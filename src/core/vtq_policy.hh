/**
 * @file
 * The paper's treelet-queue scheduling decisions (sections 3.2,
 * 4.3-4.4), kept apart from the timing of acting on them in
 * TreeletQueueRtUnit: when a fresh warp's initial ray-stationary phase
 * ends, and what a free warp slot runs next (DESIGN.md §9).
 */

#ifndef TRT_CORE_VTQ_POLICY_HH
#define TRT_CORE_VTQ_POLICY_HH

#include <cstdint>
#include <vector>

#include "bvh/bvh.hh"
#include "gpu/config.hh"

namespace trt
{

class VtqPolicy
{
  public:
    /** One treelet queue as the scheduling decision sees it. */
    struct QueueView
    {
        uint32_t treelet;
        uint32_t size;
    };

    /** What chooseDispatch() wants a free warp slot to run. */
    enum class WarpKind : uint8_t
    {
        None,    //!< Leave the slot free this cycle.
        Treelet, //!< Treelet-stationary warp from the chosen queue.
        Grouped, //!< Ray-stationary warp of gathered queue strays.
    };

    struct DispatchChoice
    {
        WarpKind kind = WarpKind::None;
        uint32_t treelet = kInvalidTreelet;
    };

    explicit VtqPolicy(const GpuConfig &cfg) : cfg_(cfg) {}

    /** Should a fresh warp's initial ray-stationary phase end, given
     *  the warp's current treelet divergence? (Section 3.2 step 1.) */
    bool endInitialPhase(uint32_t divergence) const;

    /**
     * Pick what a free warp slot should run next. @p queues lists the
     * non-empty treelet queues in table order (ascending treelet id,
     * the order the hardware table is scanned in); @p loaded_treelet is
     * the treelet currently resident in the L1 (kInvalidTreelet if
     * none). Sections 4.3-4.4: drain the loaded treelet first, then the
     * largest queue if it meets the threshold, else group strays.
     */
    DispatchChoice chooseDispatch(const std::vector<QueueView> &queues,
                                  uint32_t loaded_treelet) const;

  private:
    const GpuConfig &cfg_;
};

} // namespace trt

#endif // TRT_CORE_VTQ_POLICY_HH
