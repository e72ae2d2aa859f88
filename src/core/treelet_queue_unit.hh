/**
 * @file
 * Dynamic Treelet Queue RT unit — the paper's proposed architecture
 * (sections 3.2, 4.2-4.5).
 *
 * Operation (Figure 7):
 *  1. *Initial traversal phase*: fresh warps traverse ray-stationary in
 *     the warp buffer until the rays of a warp spread over more than a
 *     threshold of distinct treelets; the warp is then terminated and
 *     its rays written to per-treelet queues (Treelet Count Table +
 *     Treelet Queue Table, ray data parked in the reserved L2 region).
 *  2. *Treelet stationary mode*: the treelet controller picks the most
 *     populated queue (>= queueThreshold rays), loads that treelet into
 *     the L1, fetches the queue's ray data (bypassing the L1), and runs
 *     the rays as treelet warps; rays leaving the treelet are re-queued
 *     by their next treelet. The next treelet (+ its ray data) is
 *     preloaded while the current queue drains (section 4.3; treelets
 *     are half the L1 so two fit).
 *  3. *Ray stationary mode*: when the largest queue falls below the
 *     threshold, stray rays from underpopulated queues are grouped into
 *     warps that traverse freely (section 4.4); when more than
 *     (warpSize - repackThreshold) lanes of such a warp complete, the
 *     warp is repacked with fresh rays from the queues (section 4.5).
 *
 * Ray virtualization (section 3.1/4.1) lives in the Gpu/CTA scheduler;
 * this unit enforces its ray capacity (maxVirtualRaysPerSm) by refusing
 * warps beyond it.
 */

#ifndef TRT_CORE_TREELET_QUEUE_UNIT_HH
#define TRT_CORE_TREELET_QUEUE_UNIT_HH

#include <deque>
#include <map>
#include <unordered_map>

#include "core/vtq_policy.hh"
#include "gpu/rt_unit.hh"

namespace trt
{

/** The proposed virtualized-treelet-queue RT unit. */
class TreeletQueueRtUnit : public RtUnitBase
{
  public:
    TreeletQueueRtUnit(const GpuConfig &cfg, MemorySystem &mem,
                       const Bvh &bvh, uint32_t sm_id);

    bool tryAccept(uint64_t now, TraceRequest &&req) override;
    void tick(uint64_t now) override;
    bool idle() const override;
    uint64_t raysHeld() const override;
    void onMemCommit(uint64_t now) override;
    std::string debugStatus() const override;
    void drainFunctional(uint64_t now) override;

    /** Rays currently owned by this unit (active + parked). */
    uint32_t raysInFlight() const { return raysInFlight_; }

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  protected:
    /** VTQ occupancy: rays in flight, parked rays, live queues and the
     *  four deepest queue depths (DESIGN.md §12). */
    void telemSampleFill(TelemSample &s) const override;

  private:
    /** What a warp slot is currently running. */
    enum class SlotKind : uint8_t
    {
        Free,
        Fresh,   //!< Initial traversal phase warp.
        Treelet, //!< Treelet-stationary warp.
        Grouped, //!< Ray-stationary warp of grouped queue strays.
    };

    struct Slot
    {
        SlotKind kind = SlotKind::Free;
        uint32_t treelet = kInvalidTreelet;
        bool draining = false; //!< Fresh warp diverged: park at next stop.
        /** Entries were (re)installed since handlePolicy() last ran, so
         *  the next tick pass must run it even without step progress. */
        bool policyPending = false;
        std::vector<RayEntry> entries;
        uint32_t active = 0;
    };

    /** A ray parked in a treelet queue. */
    struct Parked
    {
        RayTraverser trav;
        uint64_t warpToken = 0;
        uint32_t ctaToken = 0;
        uint32_t rayId = 0;
        uint8_t lane = 0;
        /** Nonzero: ray data was preloaded and arrives at this cycle
         *  (section 4.3 ray-data preloading). */
        uint64_t dataReadyAt = 0;
    };

    static TraversalMode modeOf(SlotKind k);

    uint64_t rayDataAddr(uint32_t ray_id) const;
    uint32_t allocRayId();
    void releaseRayId(uint32_t ray_id);

    /** Park @p entry's ray into the queue of its next treelet. */
    void parkEntry(uint64_t now, Slot &slot, RayEntry &e);
    /** Deliver a finished ray's hit and recycle its id. */
    void finishEntry(Slot &slot, RayEntry &e);
    void deliver(uint64_t warp_token, uint8_t lane, const HitRecord &hit);

    void enqueue(uint64_t now, Parked &&p, uint32_t treelet);
    /** Fold the live table counters into the stats high-water marks
     *  (sampled per enqueue, as the full rescan used to be). */
    void updateTableHighWater();
    /** Incremental table-occupancy bookkeeping: called with the queue's
     *  new size after every push / pop. */
    void noteQueueGrew(size_t sz);
    void noteQueueShrank(size_t sz);

    /** Fill free warp slots: fresh warps first, then queue dispatch. */
    void dispatch(uint64_t now);
    void dispatchFresh(uint64_t now, Slot &slot);
    void dispatchTreelet(uint64_t now, Slot &slot, uint32_t treelet);
    void dispatchGrouped(uint64_t now, Slot &slot);
    /** Pull up to @p max rays across queues in table order into @p out
     *  (cleared first; callers pass the pooled strayScratch_). */
    void gatherStrays(uint32_t max, std::vector<Parked> &out);
    void maybePreload(uint64_t now);
    void installParked(uint64_t now, Slot &slot, Parked &&p);

    /** Per-slot policy when a ray stops at a boundary / finishes. */
    void handlePolicy(uint64_t now, Slot &slot);
    /** Distinct treelets the slot's active rays need. */
    uint32_t slotDivergence(const Slot &slot) const;

    // Live treelet-table occupancy, maintained at every queue size
    // change so the per-enqueue high-water sampling is O(1) instead of
    // a scan of every queue.
    uint32_t overThresholdNow_ = 0;
    /** Sum over queues of ceil(size / warpSize). */
    uint32_t tableEntriesNow_ = 0;

    // Pooled scratch (allocation-free steady state).
    mutable std::vector<uint32_t> divScratch_;
    std::vector<Parked> strayScratch_;
    std::vector<VtqPolicy::QueueView> queueScratch_;

    /** Scheduling decisions (initial-phase termination, queue
     *  selection, DESIGN.md §9); the timing of acting on them stays
     *  here. */
    VtqPolicy policy_;

    /**
     * Retired traversers, kept for their grown stack capacity. Every
     * fresh ray takes one from here (tryAccept) and its buffers return
     * when a dispatch recycles the slot entries — without this, each
     * ray pays the full vector growth sequence of its stacks plus the
     * matching frees, which dominates the simulator's malloc traffic.
     */
    std::vector<RayTraverser> travPool_;

    /** Pop a pooled traverser (or a fresh one when the pool is dry). */
    RayTraverser
    takeTraverser()
    {
        if (travPool_.empty())
            return RayTraverser();
        RayTraverser t = std::move(travPool_.back());
        travPool_.pop_back();
        return t;
    }

    /** Return every entry's traverser buffers to the pool and reset the
     *  entries; only legal on slots with no live rays. */
    void
    reclaimEntries(Slot &slot)
    {
        for (auto &e : slot.entries) {
            travPool_.push_back(std::move(e.trav));
            e = RayEntry{};
        }
    }

    void accountInterval(uint64_t now);

    // ---- state ---------------------------------------------------------
    std::vector<Slot> slots_;
    std::deque<std::vector<Parked>> pendingFresh_;

    /** treeletId -> parked rays; std::map gives the deterministic
     *  "first table entry" order section 4.4 gathers in. */
    std::map<uint32_t, std::deque<Parked>> queues_;
    uint64_t queuedRays_ = 0;

    struct WarpBk
    {
        uint32_t outstanding = 0;
        std::vector<LaneHit> hits;
    };
    std::unordered_map<uint64_t, WarpBk> warps_;

    uint32_t raysInFlight_ = 0;
    std::vector<uint32_t> freeRayIds_;
    uint32_t nextRayId_ = 0;

    uint32_t loadedTreelet_ = kInvalidTreelet;
    uint32_t preloadedTreelet_ = kInvalidTreelet;

    /** Last cycle a QueueOverflow event was traced. Admission refusals
     *  repeat every retry cycle while the unit is full; tracing one per
     *  sampling window keeps the trace readable. Serialized (VTQU) so a
     *  resumed trace rate-limits identically. */
    uint64_t lastOverflowEventAt_ = 0;

    /**
     * Ray-data preloads deferred in an issue phase whose destination —
     * a Parked in a deque, possibly moved into a slot entry within the
     * same tick — cannot be pinned by address. onMemCommit() resolves
     * each ticket and finds the ray by id instead.
     */
    struct PreloadFixup
    {
        MemTicket ticket;
        uint32_t rayId;
        uint32_t treelet;
    };
    std::vector<PreloadFixup> preloadFixups_;
};

} // namespace trt

#endif // TRT_CORE_TREELET_QUEUE_UNIT_HH
