/**
 * @file
 * Dispatch policies (DESIGN.md §9): the strategy objects that decide
 * *which ray runs next, in which warp, starting at which node*, kept
 * separate from the RT units' pipeline/timing machinery.
 *
 * A policy owns the baseline unit's pending-ray pool (enqueue /
 * formWarp) and gets per-ray hooks (speculate / onRayComplete). All
 * policy state is per-RT-unit and mutated only inside that SM's tick or
 * the serial phases, so every policy is bit-identical across
 * TRT_SIM_THREADS and TRT_SIMD. Policies only move *when* rays run and
 * *where* traversal starts; the rendered frame is identical across all
 * of them (the Predict policy's speculative entry is frame-exact by
 * construction — see RayTraverser::primeSpeculation).
 *
 * Policies:
 *  - Fifo:    arrival order, warps kept intact. Reproduces the seed
 *             baseline cycle-for-cycle. The Prefetch policy's unit
 *             (core/prefetch_unit.hh) uses this pool too.
 *  - Reorder: Morton/octant-binned ray reordering before warp
 *             formation (Meister et al.'s reordering line): pending
 *             rays are binned by a quantized origin Morton code plus
 *             the direction octant and drained in key order, so each
 *             formed warp is spatially coherent.
 *  - Predict: hash-based path prediction (Demoullin/Gubran/Aamodt):
 *             a per-unit direct-mapped table maps a quantized
 *             origin/direction hash to the leaf block that resolved
 *             the last such ray; predicted rays enter traversal at
 *             that block, with misprediction detection and root
 *             fallback built into the traverser.
 *
 * Vtq does not go through this interface: its unit keeps its own
 * treelet queues and asks core/vtq_policy.hh's VtqPolicy directly.
 */

#ifndef TRT_GPU_DISPATCH_POLICY_HH
#define TRT_GPU_DISPATCH_POLICY_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "gpu/rt_unit.hh"

namespace trt
{

/**
 * Shared prediction table (TRT_PREDICT_SHARED, DESIGN.md §9): one
 * table serving every SM's PredictPolicy instead of one per RT unit
 * (one RT unit per SM in this model, so per-SM and global sharing
 * coincide). Determinism under the parallel tick fan-out: the table is
 * *frozen* during the tick phase — speculate() only reads it — while
 * training updates append to the calling SM's own pending queue
 * (race-free by construction). The Gpu applies the queues in SM order
 * at the serial cycle commit (flush()), the exact order a serial SM
 * loop would produce, so RunStats are bit-identical at any
 * TRT_SIM_THREADS. Updates therefore become visible to lookups at the
 * next cycle boundary.
 */
struct SharedPredict
{
    struct Entry
    {
        uint64_t tag = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0; //!< 0 = empty.
    };

    /** One deferred training update. */
    struct Train
    {
        uint64_t hash = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0;
    };

    explicit SharedPredict(const GpuConfig &cfg);

    std::vector<Entry> table;
    uint64_t mask = 0;
    /** Per-SM pending trainings; SM @p s appends only to pending[s]. */
    std::vector<std::vector<Train>> pending;

    /** Apply every pending training in SM order, then clear the
     *  queues. Serial phases only. */
    void flush();

    /** Snapshot hooks ("PSHR" chunk). Pending queues must be empty —
     *  the capture point is after the per-cycle flush. */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
};

/** Strategy interface; see the file comment. PendingRay (the pool
 *  element type) is declared next to its owner in rt_unit.hh. */
class DispatchPolicy
{
  public:
    /** A predicted leaf block to enter traversal at (Predict only). */
    struct Speculation
    {
        uint32_t firstTri = 0;
        uint32_t count = 0;
        bool valid = false;
    };

    DispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats)
        : cfg_(cfg), bvh_(bvh), stats_(stats)
    {
    }
    virtual ~DispatchPolicy() = default;

    // ---- pending-ray pool (warp formation) ---------------------------
    /** Hand over one warp's rays (a group; policies may keep or break
     *  the grouping). */
    virtual void enqueue(std::vector<PendingRay> &&group) = 0;
    /** Fill @p out (cleared first) with up to @p warp_size rays forming
     *  the next warp; empty = nothing to dispatch. */
    virtual void formWarp(uint32_t warp_size,
                          std::vector<PendingRay> &out) = 0;
    virtual bool hasPending() const = 0;
    virtual uint64_t pendingRays() const = 0;
    /** Move out *every* pending ray in deterministic order
     *  (drainFunctional). */
    virtual void takePending(std::vector<PendingRay> &out) = 0;

    // ---- per-ray traversal hooks -------------------------------------
    /** Consulted once per ray at slot install; a valid result primes
     *  the traverser (RayTraverser::primeSpeculation). */
    virtual Speculation
    speculate(const Ray &ray)
    {
        (void)ray;
        return {};
    }
    /** Called when a ray's traversal completes (timing or functional
     *  drain); Predict trains its table and scores the outcome here. */
    virtual void
    onRayComplete(const RayTraverser &trav)
    {
        (void)trav;
    }
    /** Attach the GPU-owned shared prediction table; @p sm_id selects
     *  this unit's pending-train queue. No-op for every policy except
     *  Predict (TRT_PREDICT_SHARED). */
    virtual void
    setShared(SharedPredict *sp, uint32_t sm_id)
    {
        (void)sp;
        (void)sm_id;
    }

    // ---- snapshot ----------------------------------------------------
    /** Persist pool + table state ("DPOL"/"PRED" chunks). */
    virtual void saveState(Serializer &s) const = 0;
    virtual void loadState(Deserializer &d) = 0;

  protected:
    const GpuConfig &cfg_;
    const Bvh &bvh_;
    RtStats &stats_;
};

/** Arrival-order pool; warps stay intact. Timing-identical to the
 *  pre-policy baseline unit. */
class FifoPolicy : public DispatchPolicy
{
  public:
    using DispatchPolicy::DispatchPolicy;

    void enqueue(std::vector<PendingRay> &&group) override;
    void formWarp(uint32_t warp_size,
                  std::vector<PendingRay> &out) override;
    bool hasPending() const override { return !groups_.empty(); }
    uint64_t pendingRays() const override { return count_; }
    void takePending(std::vector<PendingRay> &out) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  protected:
    std::deque<std::vector<PendingRay>> groups_;
    uint64_t count_ = 0;
};

/** Morton/octant-binned ray reordering (DESIGN.md §9). */
class ReorderPolicy : public DispatchPolicy
{
  public:
    ReorderPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats);

    void enqueue(std::vector<PendingRay> &&group) override;
    void formWarp(uint32_t warp_size,
                  std::vector<PendingRay> &out) override;
    bool hasPending() const override { return count_ > 0; }
    uint64_t pendingRays() const override { return count_; }
    void takePending(std::vector<PendingRay> &out) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

    /** Bin key: 3*reorderBinBits Morton bits of the quantized origin,
     *  then the 3 direction-sign octant bits (exposed for tests). */
    uint64_t binKey(const Ray &ray) const;

  private:
    /** std::map: deterministic ascending-key drain order. */
    std::map<uint64_t, std::deque<PendingRay>> bins_;
    uint64_t count_ = 0;
};

/** Hash-based path prediction (DESIGN.md §9). FIFO warp formation;
 *  the table only changes where each ray *starts* traversing. */
class PredictPolicy : public FifoPolicy
{
  public:
    PredictPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats);

    Speculation speculate(const Ray &ray) override;
    void onRayComplete(const RayTraverser &trav) override;
    void setShared(SharedPredict *sp, uint32_t sm_id) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

    /** Quantized origin/direction hash (exposed for tests). */
    uint64_t rayHash(const Ray &ray) const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0; //!< 0 = empty.
    };

    /** Private table; unused (and kept empty in snapshots) when the
     *  shared table is attached. */
    std::vector<Entry> table_;
    uint64_t mask_ = 0;
    SharedPredict *shared_ = nullptr; //!< Non-owning; Gpu-owned.
    uint32_t smId_ = 0;               //!< Pending-queue index when shared.
};

/** Construct the pending-ray policy @p cfg.policy names (FIFO for
 *  every policy without a pool of its own), bound to @p stats (the
 *  owning unit's counters). */
std::unique_ptr<DispatchPolicy>
makeDispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats);

} // namespace trt

#endif // TRT_GPU_DISPATCH_POLICY_HH
