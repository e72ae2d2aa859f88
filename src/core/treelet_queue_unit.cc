#include "core/treelet_queue_unit.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.hh"

namespace trt
{

namespace
{

/** Base simulated address of the per-SM ray-data region (section 4.2:
 *  ray data lives in a reserved portion of the L2). */
constexpr uint64_t kRayDataBase = 0x200000000ull;

} // anonymous namespace

TreeletQueueRtUnit::TreeletQueueRtUnit(const GpuConfig &cfg,
                                       MemorySystem &mem, const Bvh &bvh,
                                       uint32_t sm_id)
    : RtUnitBase(cfg, mem, bvh, sm_id), policy_(cfg)
{
    slots_.resize(cfg.warpBufferSize);
    for (auto &s : slots_)
        s.entries.resize(cfg.warpSize);
}

TraversalMode
TreeletQueueRtUnit::modeOf(SlotKind k)
{
    switch (k) {
      case SlotKind::Fresh:
        return TraversalMode::Initial;
      case SlotKind::Treelet:
        return TraversalMode::TreeletStationary;
      default:
        return TraversalMode::RayStationary;
    }
}

uint64_t
TreeletQueueRtUnit::rayDataAddr(uint32_t ray_id) const
{
    return kRayDataBase +
           (uint64_t(smId_) * cfg_.maxVirtualRaysPerSm + ray_id) *
               kRayDataBytes;
}

uint32_t
TreeletQueueRtUnit::allocRayId()
{
    if (!freeRayIds_.empty()) {
        uint32_t id = freeRayIds_.back();
        freeRayIds_.pop_back();
        return id;
    }
    return nextRayId_++;
}

void
TreeletQueueRtUnit::releaseRayId(uint32_t ray_id)
{
    freeRayIds_.push_back(ray_id);
}

bool
TreeletQueueRtUnit::tryAccept(uint64_t now, TraceRequest &&req)
{
    uint32_t lanes = uint32_t(req.lanes.size());
    if (raysInFlight_ + lanes > cfg_.maxVirtualRaysPerSm) {
        if (telem_ && (lastOverflowEventAt_ == 0 ||
                       now >= lastOverflowEventAt_ + telem_->every)) {
            telemEvent(now, TelemEventKind::QueueOverflow,
                       raysInFlight_);
            lastOverflowEventAt_ = now;
        }
        return false;
    }

    warps_[req.token] = WarpBk{lanes, {}};
    std::vector<Parked> fresh;
    fresh.reserve(lanes);
    for (const auto &lr : req.lanes) {
        Parked p;
        p.trav = takeTraverser();
        p.trav.reset(&bvh_, lr.ray);
        p.warpToken = req.token;
        p.ctaToken = req.ctaToken;
        p.lane = lr.lane;
        p.rayId = allocRayId();
        // Section 4.2 step 1: ray data is written to the reserved L2
        // region as the warp issues to the RT unit.
        port_.write(now, rayDataAddr(p.rayId), kRayDataBytes,
                    MemClass::RayData);
        fresh.push_back(std::move(p));
    }
    raysInFlight_ += lanes;
    stats_.maxConcurrentRays =
        std::max<uint64_t>(stats_.maxConcurrentRays, raysInFlight_);
    pendingFresh_.push_back(std::move(fresh));
    dispatch(now);
    return true;
}

void
TreeletQueueRtUnit::deliver(uint64_t warp_token, uint8_t lane,
                            const HitRecord &hit)
{
    auto it = warps_.find(warp_token);
    assert(it != warps_.end());
    it->second.hits.push_back({lane, hit});
    if (--it->second.outstanding == 0) {
        std::vector<LaneHit> hits = std::move(it->second.hits);
        warps_.erase(it);
        if (completion_)
            completion_(warp_token, std::move(hits));
    }
}

void
TreeletQueueRtUnit::finishEntry(Slot &slot, RayEntry &e)
{
    deliver(e.warpToken, e.lane, e.trav.hit());
    releaseRayId(e.rayId);
    e.valid = false;
    e.stage = Stage::Done;
    slot.active--;
    raysInFlight_--;
    stats_.raysCompleted++;
}

void
TreeletQueueRtUnit::enqueue(uint64_t now, Parked &&p, uint32_t treelet)
{
    (void)now;
    auto &q = queues_[treelet];
    q.push_back(std::move(p));
    noteQueueGrew(q.size());
    queuedRays_++;
    stats_.raysEnqueued++;
    updateTableHighWater();
}

void
TreeletQueueRtUnit::noteQueueGrew(size_t sz)
{
    // Only non-empty queues exist in the table, so a threshold of 0
    // counts exactly the queues a threshold of 1 does.
    if (sz == std::max<size_t>(1, cfg_.queueThreshold))
        overThresholdNow_++;
    if ((sz - 1) % cfg_.warpSize == 0)
        tableEntriesNow_++;
}

void
TreeletQueueRtUnit::noteQueueShrank(size_t sz)
{
    if (sz + 1 == std::max<size_t>(1, cfg_.queueThreshold))
        overThresholdNow_--;
    if (sz % cfg_.warpSize == 0)
        tableEntriesNow_--;
}

void
TreeletQueueRtUnit::updateTableHighWater()
{
    stats_.countTableHighWater = std::max<uint32_t>(
        stats_.countTableHighWater, uint32_t(queues_.size()));
    stats_.countTableOverThresholdHW =
        std::max(stats_.countTableOverThresholdHW, overThresholdNow_);
    stats_.queueTableEntriesHW =
        std::max(stats_.queueTableEntriesHW, tableEntriesNow_);
}

void
TreeletQueueRtUnit::parkEntry(uint64_t now, Slot &slot, RayEntry &e)
{
    uint32_t target = e.trav.atBoundary() ? e.trav.nextTreelet()
                                          : e.trav.currentTreelet();
    assert(target != kInvalidTreelet);

    Parked p;
    p.trav = std::move(e.trav);
    p.warpToken = e.warpToken;
    p.ctaToken = e.ctaToken;
    p.rayId = e.rayId;
    p.lane = e.lane;

    // Ray state (shrunk tmax / hit-so-far) is written back to the
    // reserved L2 region; the queue-table update itself is charged to
    // the energy model per enqueue (the 6.29KB table is pinned next to
    // the treelet data, section 6.5).
    port_.write(now, rayDataAddr(p.rayId), kRayDataBytes,
                MemClass::RayData);
    enqueue(now, std::move(p), target);

    e.valid = false;
    e.stage = Stage::Done;
    slot.active--;
}

void
TreeletQueueRtUnit::installParked(uint64_t now, Slot &slot, Parked &&p)
{
    for (auto &e : slot.entries) {
        if (e.valid)
            continue;
        e.valid = true;
        e.lane = p.lane;
        e.warpToken = p.warpToken;
        e.ctaToken = p.ctaToken;
        e.rayId = p.rayId;
        e.trav = std::move(p.trav);
        e.fetchIsLeaf = false;
        // Fetch the parked ray's data from the reserved L2 region,
        // bypassing the L1 so treelet data is not evicted — unless the
        // preloader already fetched it (section 4.3).
        e.stage = Stage::WaitData;
        if (p.dataReadyAt > 0) {
            // A kPendingReady preload sentinel propagates into e.ready
            // and stalls the ray until onMemCommit() patches it (which
            // also notes the wake-up).
            e.ready = std::max(now, p.dataReadyAt);
        } else {
            e.ready = kPendingReady;
            port_.read(now, rayDataAddr(p.rayId), kRayDataBytes,
                       MemClass::RayData, true, &e.ready);
        }
        // Entries live in a fixed-size vector and a WaitData entry pins
        // its slot, so the sentinel pointer stays valid until drained.
        if (e.ready == kPendingReady)
            notePendingEvent(&e.ready);
        else
            noteEvent(e.ready);
        slot.active++;
        slot.policyPending = true;
        return;
    }
    assert(false && "no free entry in slot");
}

void
TreeletQueueRtUnit::gatherStrays(uint32_t max, std::vector<Parked> &out)
{
    // Section 4.4: select queues starting from the first treelet count
    // table entry until enough rays fill the warp.
    out.clear();
    auto it = queues_.begin();
    while (it != queues_.end() && out.size() < max) {
        auto &q = it->second;
        while (!q.empty() && out.size() < max) {
            out.push_back(std::move(q.front()));
            q.pop_front();
            noteQueueShrank(q.size());
            queuedRays_--;
        }
        if (q.empty())
            it = queues_.erase(it);
        else
            ++it;
    }
}

void
TreeletQueueRtUnit::dispatchFresh(uint64_t now, Slot &slot)
{
    std::vector<Parked> fresh = std::move(pendingFresh_.front());
    pendingFresh_.pop_front();

    slot.kind = SlotKind::Fresh;
    slot.treelet = kInvalidTreelet;
    slot.draining = false;
    slot.active = 0;
    reclaimEntries(slot);

    for (auto &p : fresh) {
        for (auto &e : slot.entries) {
            if (e.valid)
                continue;
            e.valid = true;
            e.lane = p.lane;
            e.warpToken = p.warpToken;
            e.ctaToken = p.ctaToken;
            e.rayId = p.rayId;
            e.trav = std::move(p.trav);
            // Fresh rays arrive straight from the shader core's
            // registers: no ray-data load, start at the root treelet.
            e.trav.enterNextTreelet();
            e.stage = Stage::NeedIssue;
            e.ready = now;
            slot.active++;
            slot.policyPending = true;
            break;
        }
    }
    telemEvent(now, TelemEventKind::WarpFormed,
               uint64_t(TraversalMode::Initial), slot.active);
    // Fresh entries can issue this very cycle; when dispatched from
    // tryAccept() (outside a tick) this schedules the same-cycle tick
    // the old rescan provided.
    noteEvent(now);
}

void
TreeletQueueRtUnit::dispatchTreelet(uint64_t now, Slot &slot,
                                    uint32_t treelet)
{
    auto qit = queues_.find(treelet);
    assert(qit != queues_.end() && !qit->second.empty());

    if (treelet != loadedTreelet_) {
        if (treelet == preloadedTreelet_) {
            // Already (being) loaded by the preloader.
            preloadedTreelet_ = kInvalidTreelet;
        } else {
            port_.prefetchL1(now, bvh_.treeletBaseAddr(treelet),
                             bvh_.treeletBytes(treelet),
                             MemClass::BvhNode);
        }
        loadedTreelet_ = treelet;
        stats_.treeletSwitches++;
        telemEvent(now, TelemEventKind::TreeletSwitch, treelet);
    }

    slot.kind = SlotKind::Treelet;
    slot.treelet = treelet;
    slot.draining = false;
    slot.active = 0;
    reclaimEntries(slot);

    uint32_t n = std::min<uint32_t>(cfg_.warpSize,
                                    uint32_t(qit->second.size()));
    for (uint32_t i = 0; i < n; i++) {
        installParked(now, slot, std::move(qit->second.front()));
        qit->second.pop_front();
        noteQueueShrank(qit->second.size());
        queuedRays_--;
    }
    // Ray-data preloading (section 4.3): fetch the data of the rays
    // forming this queue's *next* warp while the current warp runs.
    if (cfg_.preloadEnabled) {
        uint32_t pre = std::min<uint32_t>(cfg_.warpSize,
                                          uint32_t(qit->second.size()));
        for (uint32_t i = 0; i < pre; i++) {
            Parked &p = qit->second[i];
            if (p.dataReadyAt == 0) {
                // The Parked may move (deque churn, or into a slot)
                // before the phase commits, so the result cannot be
                // written through a pointer; record a fixup resolved
                // by ray id in onMemCommit().
                MemTicket t =
                    port_.read(now, rayDataAddr(p.rayId), kRayDataBytes,
                               MemClass::RayData, true, nullptr);
                if (port_.resolved(t)) {
                    p.dataReadyAt = port_.result(t).readyCycle;
                } else {
                    p.dataReadyAt = kPendingReady;
                    preloadFixups_.push_back({t, p.rayId, treelet});
                }
            }
        }
    }
    if (qit->second.empty()) {
        queues_.erase(qit);
        telemEvent(now, TelemEventKind::QueueDrained, treelet);
    }
    if (stats_.treeletWarpsFormed == 0)
        telemEvent(now, TelemEventKind::TreeletPhaseEntered, treelet);
    stats_.treeletWarpsFormed++;
    telemEvent(now, TelemEventKind::WarpFormed,
               uint64_t(TraversalMode::TreeletStationary), n);
    maybePreload(now);
}

void
TreeletQueueRtUnit::dispatchGrouped(uint64_t now, Slot &slot)
{
    gatherStrays(cfg_.warpSize, strayScratch_);
    if (strayScratch_.empty())
        return;

    slot.kind = SlotKind::Grouped;
    slot.treelet = kInvalidTreelet;
    slot.draining = false;
    slot.active = 0;
    reclaimEntries(slot);
    for (auto &p : strayScratch_)
        installParked(now, slot, std::move(p));
    stats_.groupedWarpsFormed++;
    telemEvent(now, TelemEventKind::WarpFormed,
               uint64_t(TraversalMode::RayStationary),
               strayScratch_.size());
}

void
TreeletQueueRtUnit::maybePreload(uint64_t now)
{
    if (!cfg_.preloadEnabled || preloadedTreelet_ != kInvalidTreelet)
        return;

    // Trigger when at most one more warp remains in the current queue.
    // (The paper estimates remaining cycles as remaining-warps x
    // intersection latency x average treelet depth and preloads when
    // that matches the memory latency; with one warp slot this reduces
    // to "preload while the last warp drains".)
    auto cur = queues_.find(loadedTreelet_);
    if (cur != queues_.end() && cur->second.size() > cfg_.warpSize)
        return;

    uint32_t min_size = cfg_.groupUnderpopulated ? cfg_.queueThreshold : 1;
    uint32_t best = kInvalidTreelet;
    size_t best_size = 0;
    for (const auto &[t, q] : queues_) {
        if (t == loadedTreelet_ || q.size() < min_size)
            continue;
        if (q.size() > best_size) {
            best = t;
            best_size = q.size();
        }
    }
    if (best == kInvalidTreelet)
        return;

    preloadedTreelet_ = best;
    port_.prefetchL1(now, bvh_.treeletBaseAddr(best),
                     bvh_.treeletBytes(best), MemClass::BvhNode);
}

uint32_t
TreeletQueueRtUnit::slotDivergence(const Slot &slot) const
{
    // Linear dedup over at most warpSize ids into pooled scratch; this
    // runs per boundary decision, so avoiding a hash set matters.
    divScratch_.clear();
    for (const auto &e : slot.entries) {
        if (!e.valid || e.stage == Stage::Done)
            continue;
        uint32_t id = e.trav.atBoundary() ? e.trav.nextTreelet()
                                          : e.trav.currentTreelet();
        if (id != kInvalidTreelet &&
            std::find(divScratch_.begin(), divScratch_.end(), id) ==
                divScratch_.end()) {
            divScratch_.push_back(id);
        }
    }
    return uint32_t(divScratch_.size());
}

void
TreeletQueueRtUnit::handlePolicy(uint64_t now, Slot &slot)
{
    for (auto &e : slot.entries) {
        if (!e.valid || e.stage != Stage::NeedIssue)
            continue;

        if (e.trav.done()) {
            finishEntry(slot, e);
            continue;
        }

        switch (slot.kind) {
          case SlotKind::Fresh: {
            if (slot.draining) {
                // Warp was terminated: park every ray at its next
                // stopping point, mid-treelet rays keyed by their
                // current treelet.
                parkEntry(now, slot, e);
                continue;
            }
            if (!e.trav.atBoundary())
                continue; // issue-port limited; retried next cycle
            if (policy_.endInitialPhase(slotDivergence(slot))) {
                slot.draining = true;
                parkEntry(now, slot, e);
            } else {
                e.trav.enterNextTreelet();
                stats_.boundaryCrossings++;
            }
            break;
          }

          case SlotKind::Treelet: {
            if (!e.trav.atBoundary())
                continue;
            if (e.trav.nextTreelet() == slot.treelet) {
                e.trav.enterNextTreelet();
                stats_.boundaryCrossings++;
            } else {
                parkEntry(now, slot, e);
            }
            break;
          }

          case SlotKind::Grouped: {
            if (!e.trav.atBoundary())
                continue;
            e.trav.enterNextTreelet();
            stats_.boundaryCrossings++;
            break;
          }

          default:
            break;
        }
    }

    // Warp repacking (section 4.5): refill a grouped warp whose active
    // count fell below the threshold with fresh rays from the queues.
    if (slot.kind == SlotKind::Grouped && cfg_.repackThreshold > 0 &&
        slot.active > 0 && slot.active < cfg_.repackThreshold &&
        queuedRays_ > 0) {
        gatherStrays(cfg_.warpSize - slot.active, strayScratch_);
        if (!strayScratch_.empty()) {
            stats_.repackEvents++;
            stats_.repackedRays += strayScratch_.size();
            for (auto &p : strayScratch_)
                installParked(now, slot, std::move(p));
        }
    }

    if (slot.kind != SlotKind::Free && slot.active == 0) {
        slot.kind = SlotKind::Free;
        slot.treelet = kInvalidTreelet;
        slot.draining = false;
    }
}

void
TreeletQueueRtUnit::dispatch(uint64_t now)
{
    for (auto &slot : slots_) {
        if (slot.kind != SlotKind::Free)
            continue;

        if (!pendingFresh_.empty()) {
            dispatchFresh(now, slot);
            continue;
        }
        if (queuedRays_ == 0)
            continue;

        // Present the non-empty queues in table order and let the
        // policy choose (DESIGN.md §9); acting on the choice — treelet
        // load, ray-data fetches, preloading — stays in this unit.
        queueScratch_.clear();
        for (const auto &[t, q] : queues_)
            if (!q.empty())
                queueScratch_.push_back({t, uint32_t(q.size())});
        VtqPolicy::DispatchChoice choice =
            policy_.chooseDispatch(queueScratch_, loadedTreelet_);
        if (choice.kind == VtqPolicy::WarpKind::Treelet)
            dispatchTreelet(now, slot, choice.treelet);
        else if (choice.kind == VtqPolicy::WarpKind::Grouped)
            dispatchGrouped(now, slot);
    }
}

void
TreeletQueueRtUnit::accountInterval(uint64_t now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t dt = now - lastAccounted_;
    lastAccounted_ = now;
    for (const auto &slot : slots_) {
        if (slot.kind == SlotKind::Free)
            continue;
        stats_.activeLaneCycles += uint64_t(slot.active) * dt;
        stats_.slotLaneCycles += uint64_t(cfg_.warpSize) * dt;
        stats_.modeCycles[modeIndex(modeOf(slot.kind))] += dt;
    }
}

void
TreeletQueueRtUnit::tick(uint64_t now)
{
    maybeTelemSample(now);
    accountInterval(now);
    // Everything due by now is handled below; drop its event records.
    consumeEventsUpTo(now);

    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &slot : slots_) {
            if (slot.kind == SlotKind::Free)
                continue;
            uint32_t before = slot.active;
            bool park_all = slot.kind == SlotKind::Fresh && slot.draining;
            bool stepped = false;
            for (auto &e : slot.entries) {
                if (!e.valid || e.stage == Stage::Done)
                    continue;
                // Not-due waits can't progress; skip the call entirely.
                if (e.stage != Stage::NeedIssue && e.ready > now)
                    continue;
                stepped |= stepRay(now, e, modeOf(slot.kind), park_all);
            }
            changed |= stepped;
            // handlePolicy() leaves no actionable entry behind, so it
            // is a no-op until a ray makes progress, entries are
            // (re)installed, or an underpopulated grouped warp can
            // still repack from the queues. Skipping it makes the
            // fixed-point verification pass cheap.
            if (stepped || slot.policyPending ||
                (slot.kind == SlotKind::Grouped &&
                 cfg_.repackThreshold > 0 && slot.active > 0 &&
                 slot.active < cfg_.repackThreshold && queuedRays_ > 0)) {
                slot.policyPending = false;
                handlePolicy(now, slot);
            }
            changed |= slot.active != before ||
                       slot.kind == SlotKind::Free;
        }
        dispatch(now);
        // Exiting is safe without a leftover-work scan: every stalled
        // entry already has a wake-up on the books. stepRay() notes the
        // issue-port free cycle when the port blocks it, installParked()
        // notes (or defers via sentinel) each entry's data-ready cycle,
        // and dispatchFresh() notes the current cycle, so rays the loop
        // leaves behind always have a pending event.
    }
}

bool
TreeletQueueRtUnit::idle() const
{
    return raysInFlight_ == 0 && pendingFresh_.empty();
}

uint64_t
TreeletQueueRtUnit::raysHeld() const
{
    // Recovery metric for the sampler's warm-up (RtUnitBase::raysHeld):
    // population alone recovers quickly after a drain, but what the
    // drain really destroys is the queue *contents* — in steady state
    // rays are spread over many queues at meaningful depths, and
    // serving rounds against freshly refilled shallow queues looks
    // nothing like it. Count the stepping/fresh rays plus each queue's
    // depth capped at twice the dispatch threshold, so depth has to
    // rebuild queue by queue and one giant root queue (the post-drain
    // shape) cannot stand in for the steady-state spread. The previous
    // population-x-spread product over-weighted exactly that shape; see
    // the re-measured error table in DESIGN.md §8.
    uint64_t cap = 2 * std::max<uint64_t>(1, cfg_.queueThreshold);
    uint64_t held = uint64_t(raysInFlight_) - queuedRays_;
    for (const auto &q : queues_)
        held += std::min<uint64_t>(q.second.size(), cap);
    return held;
}

void
TreeletQueueRtUnit::onMemCommit(uint64_t now)
{
    for (const auto &f : preloadFixups_) {
        uint64_t ready = port_.result(f.ticket).readyCycle;
        bool found = false;

        // Still parked in the queue it was preloaded from?
        auto qit = queues_.find(f.treelet);
        if (qit != queues_.end()) {
            for (auto &p : qit->second) {
                if (p.rayId == f.rayId &&
                    p.dataReadyAt == kPendingReady) {
                    p.dataReadyAt = ready;
                    found = true;
                    break;
                }
            }
        }
        if (found)
            continue;

        // Installed into a slot within the same tick: the sentinel
        // propagated into the entry's ready cycle (installParked). The
        // pending-event pointer recorded there reads kPendingReady if
        // drained before this patch (and is skipped), so note the real
        // wake-up here.
        for (auto &slot : slots_) {
            for (auto &e : slot.entries) {
                if (e.valid && e.stage == Stage::WaitData &&
                    e.rayId == f.rayId && e.ready == kPendingReady) {
                    e.ready = std::max(now, ready);
                    noteEvent(e.ready);
                    found = true;
                    break;
                }
            }
            if (found)
                break;
        }
        assert(found && "preload fixup target vanished");
        (void)found;
    }
    preloadFixups_.clear();
}

void
TreeletQueueRtUnit::drainFunctional(uint64_t now)
{
    // Same contract as saveState: the serial commit boundary, where
    // every preload ticket has been resolved by onMemCommit().
    if (!preloadFixups_.empty())
        throw std::logic_error(
            "drainFunctional: unresolved preload fixups (must be called "
            "at the serial commit boundary)");
    accountInterval(now);

    // Live slot entries first: finish each in place and deliver via the
    // normal path so per-warp bookkeeping (warps_) stays consistent.
    for (auto &slot : slots_) {
        if (slot.kind == SlotKind::Free)
            continue;
        for (auto &e : slot.entries) {
            if (!e.valid)
                continue;
            finishTraversal(e.trav);
            finishEntry(slot, e);
        }
        reclaimEntries(slot);
        slot.kind = SlotKind::Free;
        slot.treelet = kInvalidTreelet;
        slot.draining = false;
        slot.policyPending = false;
    }

    // Parked rays: pending fresh warps (still at the root boundary),
    // then every treelet queue in table order.
    auto drainParked = [&](Parked &p) {
        finishTraversal(p.trav);
        deliver(p.warpToken, p.lane, p.trav.hit());
        releaseRayId(p.rayId);
        travPool_.push_back(std::move(p.trav));
        raysInFlight_--;
        stats_.raysCompleted++;
    };
    while (!pendingFresh_.empty()) {
        for (Parked &p : pendingFresh_.front())
            drainParked(p);
        pendingFresh_.pop_front();
    }
    for (auto &kv : queues_)
        for (Parked &p : kv.second)
            drainParked(p);
    queues_.clear();
    queuedRays_ = 0;
    overThresholdNow_ = 0;
    tableEntriesNow_ = 0;
    loadedTreelet_ = kInvalidTreelet;
    preloadedTreelet_ = kInvalidTreelet;

    if (raysInFlight_ != 0 || !warps_.empty())
        throw std::logic_error(
            "drainFunctional: rays or warps left after drain");
    // All ray ids are free again; restart the id space so post-drain
    // allocation (and the ray-data addresses derived from it) is
    // independent of pre-drain history.
    freeRayIds_.clear();
    nextRayId_ = 0;
    clearEventRecords();
}

std::string
TreeletQueueRtUnit::debugStatus() const
{
    std::ostringstream os;
    os << "vtq raysInFlight=" << raysInFlight_
       << " queued=" << queuedRays_ << " queues=" << queues_.size()
       << " freshWarps=" << pendingFresh_.size() << " loaded=";
    if (loadedTreelet_ == kInvalidTreelet)
        os << "-";
    else
        os << loadedTreelet_;
    os << " preloaded=";
    if (preloadedTreelet_ == kInvalidTreelet)
        os << "-";
    else
        os << preloadedTreelet_;
    os << " slots{";
    for (size_t i = 0; i < slots_.size(); i++) {
        const Slot &s = slots_[i];
        const char *kind = s.kind == SlotKind::Free      ? "free"
                           : s.kind == SlotKind::Fresh   ? "fresh"
                           : s.kind == SlotKind::Treelet ? "treelet"
                                                         : "grouped";
        os << (i ? " " : "") << kind << ":" << s.active;
    }
    os << "}";
    return os.str();
}

// ---- snapshot hooks ----------------------------------------------------

namespace
{

constexpr uint32_t kMaxSlotKind = 3; // SlotKind::Grouped

} // namespace

void
TreeletQueueRtUnit::saveState(Serializer &s) const
{
    if (!preloadFixups_.empty())
        throw SnapshotError(
            "snapshot: unresolved preload fixups (capture outside the "
            "serial commit boundary)");

    RtUnitBase::saveState(s);
    s.beginChunk("VTQU");

    auto save_parked = [&](const Parked &p) {
        if (p.dataReadyAt == kPendingReady)
            throw SnapshotError(
                "snapshot: parked ray with unresolved preload ready");
        p.trav.saveState(s);
        s.u64(p.warpToken);
        s.u32(p.ctaToken);
        s.u32(p.rayId);
        s.u8(p.lane);
        s.u64(p.dataReadyAt);
    };

    s.u64(slots_.size());
    for (const Slot &slot : slots_) {
        s.u8(uint8_t(slot.kind));
        s.u32(slot.treelet);
        s.b(slot.draining);
        s.b(slot.policyPending);
        s.u64(slot.entries.size());
        for (const RayEntry &e : slot.entries)
            saveRayEntry(s, e);
        s.u32(slot.active);
    }

    s.u64(pendingFresh_.size());
    for (const std::vector<Parked> &warp : pendingFresh_) {
        s.u64(warp.size());
        for (const Parked &p : warp)
            save_parked(p);
    }

    // std::map iterates key-sorted: deterministic on its own.
    s.u64(queues_.size());
    for (const auto &[treelet, q] : queues_) {
        s.u32(treelet);
        s.u64(q.size());
        for (const Parked &p : q)
            save_parked(p);
    }
    s.u64(queuedRays_);

    // unordered_map iteration order is layout-dependent; persist
    // token-sorted so identical states produce identical bytes.
    std::vector<uint64_t> tokens;
    tokens.reserve(warps_.size());
    for (const auto &[token, bk] : warps_)
        tokens.push_back(token);
    std::sort(tokens.begin(), tokens.end());
    s.u64(tokens.size());
    for (uint64_t token : tokens) {
        const WarpBk &bk = warps_.at(token);
        s.u64(token);
        s.u32(bk.outstanding);
        saveLaneHits(s, bk.hits);
    }

    s.u32(raysInFlight_);
    s.vecPod(freeRayIds_);
    s.u32(nextRayId_);
    s.u32(loadedTreelet_);
    s.u32(preloadedTreelet_);
    s.u32(overThresholdNow_);
    s.u32(tableEntriesNow_);
    s.u64(lastOverflowEventAt_);
    s.endChunk();
}

void
TreeletQueueRtUnit::loadState(Deserializer &d)
{
    RtUnitBase::loadState(d);
    d.beginChunk("VTQU");

    auto load_parked = [&]() {
        Parked p;
        p.trav.loadState(d, &bvh_);
        p.warpToken = d.u64();
        p.ctaToken = d.u32();
        p.rayId = d.u32();
        p.lane = d.u8();
        p.dataReadyAt = d.u64();
        return p;
    };

    if (d.u64() != slots_.size())
        throw SnapshotError("snapshot: VTQ slot count mismatch");
    for (Slot &slot : slots_) {
        uint8_t kind = d.u8();
        if (kind > kMaxSlotKind)
            throw SnapshotError("snapshot: VTQ slot kind out of range");
        slot.kind = SlotKind(kind);
        slot.treelet = d.u32();
        slot.draining = d.b();
        slot.policyPending = d.b();
        uint64_t n = d.u64();
        slot.entries.assign(size_t(n), RayEntry{});
        for (RayEntry &e : slot.entries)
            loadRayEntry(d, e);
        slot.active = d.u32();
    }

    pendingFresh_.clear();
    uint64_t n_fresh = d.u64();
    for (uint64_t i = 0; i < n_fresh; i++) {
        std::vector<Parked> warp;
        uint64_t n = d.u64();
        warp.reserve(size_t(n));
        for (uint64_t j = 0; j < n; j++)
            warp.push_back(load_parked());
        pendingFresh_.push_back(std::move(warp));
    }

    queues_.clear();
    uint64_t n_queues = d.u64();
    for (uint64_t i = 0; i < n_queues; i++) {
        uint32_t treelet = d.u32();
        std::deque<Parked> q;
        uint64_t n = d.u64();
        for (uint64_t j = 0; j < n; j++)
            q.push_back(load_parked());
        queues_.emplace(treelet, std::move(q));
    }
    queuedRays_ = d.u64();

    warps_.clear();
    uint64_t n_warps = d.u64();
    for (uint64_t i = 0; i < n_warps; i++) {
        uint64_t token = d.u64();
        WarpBk bk;
        bk.outstanding = d.u32();
        bk.hits = loadLaneHits(d);
        warps_.emplace(token, std::move(bk));
    }

    raysInFlight_ = d.u32();
    freeRayIds_ = d.vecPod<uint32_t>();
    nextRayId_ = d.u32();
    loadedTreelet_ = d.u32();
    preloadedTreelet_ = d.u32();
    overThresholdNow_ = d.u32();
    tableEntriesNow_ = d.u32();
    lastOverflowEventAt_ = d.u64();
    preloadFixups_.clear();
    d.endChunk();
}

void
TreeletQueueRtUnit::telemSampleFill(TelemSample &s) const
{
    s.raysHeld = raysInFlight_;
    s.queuedRays =
        uint32_t(std::min<uint64_t>(queuedRays_, UINT32_MAX));
    s.queueCount = uint32_t(queues_.size());
    // Keep the four deepest depths, descending (insertion sort into the
    // fixed array; queues_ is small and samples are periodic).
    for (const auto &[treelet, q] : queues_) {
        (void)treelet;
        uint32_t depth = uint32_t(q.size());
        for (size_t i = 0; i < s.queueDepth.size(); i++) {
            if (depth > s.queueDepth[i]) {
                for (size_t j = s.queueDepth.size() - 1; j > i; j--)
                    s.queueDepth[j] = s.queueDepth[j - 1];
                s.queueDepth[i] = depth;
                break;
            }
        }
    }
}

} // namespace trt
