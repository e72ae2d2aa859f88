#include "gpu/rt_unit.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "gpu/dispatch_policy.hh"
#include "telemetry/counter_registry.hh"
#include "telemetry/telemetry.hh"

namespace trt
{

const char *
traversalModeName(TraversalMode m)
{
    switch (m) {
      case TraversalMode::Initial:
        return "initial";
      case TraversalMode::TreeletStationary:
        return "treelet_stationary";
      case TraversalMode::RayStationary:
        return "ray_stationary";
      default:
        return "unknown";
    }
}

// Tripwire for the counter registry: a field added to RtStats without
// a registry entry changes this size and fails here — update
// telemetry/counter_registry.hh (serialization, accumulation and the
// sampled-counter enumeration all follow from it automatically).
static_assert(sizeof(RtStats) == 27 * sizeof(uint64_t) +
                                     3 * sizeof(uint32_t) + 4,
              "RtStats changed: register the new counter in "
              "telemetry/counter_registry.hh");

void
RtStats::accumulate(const RtStats &o)
{
    // Registry-driven merge: Work/Exact counters sum, high-water marks
    // take the max. Gather the other side's values first (both walks
    // visit fields in the identical registry order).
    std::vector<uint64_t> vals;
    vals.reserve(32);
    forEachRtCounter(o, [&](const CounterInfo &, const auto &v) {
        vals.push_back(uint64_t(v));
    });
    size_t i = 0;
    forEachRtCounter(*this, [&](const CounterInfo &ci, auto &v) {
        using T = std::decay_t<decltype(v)>;
        if (ci.kind == CounterKind::HighWater)
            v = std::max(v, T(vals[i++]));
        else
            v = T(v + vals[i++]);
    });
}

RtUnitBase::RtUnitBase(const GpuConfig &cfg, MemorySystem &mem,
                       const Bvh &bvh, uint32_t sm_id)
    : cfg_(cfg), mem_(mem), port_(mem.port(sm_id)), bvh_(bvh),
      smId_(sm_id), memIssue_(cfg.rtMemIssuePerCycle),
      isect_(cfg.isectIssuePerCycle)
{
    // Node-visit latency (DESIGN.md §11): compressed layouts pay a
    // dequantization stage before the box tests, and 8-wide nodes push
    // a second 4-wide AABB batch through the intersection pipeline.
    nodeLatency_ = cfg.isectBoxLatency;
    if (bvh.quantized())
        nodeLatency_ += cfg.nodeDecodeLatency;
    if (bvh.width() == kMaxBvhWidth)
        nodeLatency_ += cfg.wideBoxExtraLatency;
}

void
RtUnitBase::maybeTelemSample(uint64_t now)
{
    if (!telem_ || !telem_->sampleDue(now))
        return;
    TelemSample &s = telem_->startSample(now);
    s.treeletSwitches = stats_.treeletSwitches;
    s.predictLookups = stats_.predictLookups;
    s.predictHits = stats_.predictHits;
    s.nodeVisits = stats_.nodeVisits;
    s.raysCompleted = stats_.raysCompleted;
    telemSampleFill(s);
}

void
RtUnitBase::telemSampleFill(TelemSample &s) const
{
    s.raysHeld =
        uint32_t(std::min<uint64_t>(raysHeld(), UINT32_MAX));
}

void
RtUnitBase::telemEvent(uint64_t now, TelemEventKind kind, uint64_t a0,
                       uint64_t a1)
{
    if (telem_)
        telem_->event(now, kind, a0, a1);
}

bool
RtUnitBase::stepRay(uint64_t now, RayEntry &e, TraversalMode mode,
                    bool stop_at_issue)
{
    bool changed = false;
    for (;;) {
        switch (e.stage) {
          case Stage::WaitData:
            if (e.ready > now)
                return changed;
            e.stage = Stage::NeedIssue;
            changed = true;
            break;

          case Stage::NeedIssue: {
            if (needsPolicy(e) || stop_at_issue)
                return changed; // caller decides (done / boundary / park)
            if (memIssue_.nextFree(now) > now) {
                // Issue port exhausted this cycle; wake when it frees.
                noteEvent(memIssue_.nextFree(now));
                return changed;
            }
            uint64_t issue_at = memIssue_.book(now);
            RayTraverser::Access acc = e.trav.currentAccess();
            // Let subclasses observe demand lines (prefetch tracking).
            uint64_t first = acc.addr & ~uint64_t(mem_.lineBytes() - 1);
            uint64_t last = (acc.addr + acc.bytes - 1) &
                            ~uint64_t(mem_.lineBytes() - 1);
            for (uint64_t a = first; a <= last; a += mem_.lineBytes())
                onDemandLine(a);
            MemClass cls =
                acc.leaf ? MemClass::Triangle : MemClass::BvhNode;
            // Deferred in an issue phase: the sentinel parks the ray in
            // WaitMem until commitIssuePhase() stores the real ready
            // cycle through &e.ready (slot entries never move mid-tick).
            e.ready = kPendingReady;
            port_.read(issue_at, acc.addr, acc.bytes, cls, false,
                       &e.ready);
            // Outside an issue phase the read resolved synchronously
            // and e.ready is already real; otherwise the sentinel is
            // read after commitIssuePhase() resolves it. Either way the
            // entry stays parked in WaitMem (and its slot occupied)
            // until then, so the recorded pointer cannot dangle.
            if (e.ready == kPendingReady)
                notePendingEvent(&e.ready);
            else if (e.ready > now)
                noteEvent(e.ready);
            e.fetchIsLeaf = acc.leaf;
            e.stage = Stage::WaitMem;
            changed = true;
            break;
          }

          case Stage::WaitMem: {
            if (e.ready > now)
                return changed;
            // Data returned to the response FIFO; enter the
            // intersection pipeline (throughput limited).
            uint64_t start = isect_.book(std::max(now, e.ready));
            e.ready = start + (e.fetchIsLeaf ? cfg_.isectTriLatency
                                             : nodeLatency_);
            e.stage = Stage::WaitIsect;
            if (e.ready > now)
                noteEvent(e.ready);
            changed = true;
            break;
          }

          case Stage::WaitIsect: {
            if (e.ready > now)
                return changed;
            uint32_t tests = e.trav.complete();
            stats_.isectTests[modeIndex(mode)] += tests;
            if (e.fetchIsLeaf)
                stats_.leafVisits++;
            else
                stats_.nodeVisits++;
            e.stage = Stage::NeedIssue;
            changed = true;
            break;
          }

          case Stage::Done:
            return changed;
        }
    }
}

BaselineRtUnit::BaselineRtUnit(const GpuConfig &cfg, MemorySystem &mem,
                               const Bvh &bvh, uint32_t sm_id)
    : RtUnitBase(cfg, mem, bvh, sm_id)
{
    slots_.resize(cfg.warpBufferSize);
    policy_ = makeDispatchPolicy(cfg, bvh, stats_);
}

BaselineRtUnit::~BaselineRtUnit() = default;

void
BaselineRtUnit::setSharedPredict(SharedPredict *sp)
{
    policy_->setShared(sp, smId_);
}

bool
BaselineRtUnit::tryAccept(uint64_t now, TraceRequest &&req)
{
    // The shader warp stalls at traceRayEXT() either way; pooling the
    // rays here is timing-equivalent to stalling in the SM and keeps
    // the SM model simple. Completion bookkeeping is registered up
    // front because a policy may spread the warp's rays over several
    // RT warps; the trace completes when its last ray delivers.
    WarpBk &bk = warps_[req.token];
    bk.outstanding = uint32_t(req.lanes.size());
    bk.hits.clear();
    if (bk.outstanding == 0) {
        warps_.erase(req.token);
        if (completion_)
            completion_(req.token, {});
        return true;
    }
    std::vector<PendingRay> group;
    group.reserve(req.lanes.size());
    for (const LaneRay &lr : req.lanes)
        group.push_back({lr.ray, req.token, req.ctaToken, lr.lane});
    policy_->enqueue(std::move(group));
    fillSlotsFromQueue(now);
    return true;
}

void
BaselineRtUnit::deliver(uint64_t warp_token, uint8_t lane,
                        const HitRecord &hit)
{
    auto it = warps_.find(warp_token);
    assert(it != warps_.end() && it->second.outstanding > 0);
    WarpBk &bk = it->second;
    bk.hits.push_back({lane, hit});
    if (--bk.outstanding == 0) {
        std::vector<LaneHit> hits = std::move(bk.hits);
        warps_.erase(it);
        if (completion_)
            completion_(warp_token, std::move(hits));
    }
}

bool
BaselineRtUnit::fillSlot(uint64_t now, WarpSlot &slot)
{
    policy_->formWarp(cfg_.warpSize, warpScratch_);
    if (warpScratch_.empty())
        return false;
    slot.active = true;
    uint32_t n = uint32_t(warpScratch_.size());
    telemEvent(now, TelemEventKind::WarpFormed,
               uint64_t(TraversalMode::RayStationary), n);
    // Reuse prior entries so each ray's traverser recycles its
    // stack allocations (resize keeps capacity either way).
    slot.rays.resize(n);
    slot.remaining = n;
    for (uint32_t i = 0; i < n; i++) {
        const PendingRay &pr = warpScratch_[i];
        RayEntry &e = slot.rays[i];
        e.valid = true;
        e.lane = pr.lane;
        e.warpToken = pr.warpToken;
        e.ctaToken = pr.ctaToken;
        e.trav.reset(&bvh_, pr.ray);
        DispatchPolicy::Speculation spec = policy_->speculate(pr.ray);
        if (spec.valid) {
            // Predicted rays start at the predicted leaf block; the
            // root fallback that always follows re-enters the treelet
            // path through the ordinary boundary handling.
            e.trav.primeSpeculation(spec.firstTri, spec.count);
        } else {
            // Fresh rays enter the root treelet immediately in the
            // baseline (ray-stationary) policy.
            e.trav.enterNextTreelet();
            onTreeletEnter(now, e.trav.currentTreelet());
        }
        e.stage = Stage::NeedIssue;
        e.ready = now;
        e.fetchIsLeaf = false;
    }
    return true;
}

void
BaselineRtUnit::fillSlotsFromQueue(uint64_t now)
{
    for (auto &slot : slots_) {
        if (slot.active)
            continue;
        if (!fillSlot(now, slot))
            break;
        // Freshly filled entries can issue this very cycle; this call
        // runs outside a tick (tryAccept), so schedule the same-cycle
        // tick the old rescan provided.
        noteEvent(now);
    }
}

void
BaselineRtUnit::accountInterval(uint64_t now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t dt = now - lastAccounted_;
    lastAccounted_ = now;
    for (const auto &slot : slots_) {
        if (!slot.active)
            continue;
        stats_.activeLaneCycles += uint64_t(slot.remaining) * dt;
        stats_.slotLaneCycles += uint64_t(cfg_.warpSize) * dt;
        stats_.modeCycles[modeIndex(TraversalMode::RayStationary)] += dt;
    }
}

bool
BaselineRtUnit::stepSlot(uint64_t now, WarpSlot &slot)
{
    for (auto &e : slot.rays) {
        if (!e.valid || e.stage == Stage::Done)
            continue;
        // Not-due waits can't progress; skip the call entirely.
        if (e.stage != Stage::NeedIssue && e.ready > now)
            continue;
        stepRay(now, e, TraversalMode::RayStationary);
        while (needsPolicy(e)) {
            if (e.trav.done()) {
                policy_->onRayComplete(e.trav);
                if (telem_ && e.trav.specOutcome() !=
                                  RayTraverser::SpecOutcome::None)
                    telemEvent(now, TelemEventKind::SpeculationVerdict,
                               e.trav.specOutcome() ==
                                       RayTraverser::SpecOutcome::Correct
                                   ? 1
                                   : 0);
                deliver(e.warpToken, e.lane, e.trav.hit());
                e.stage = Stage::Done;
                slot.remaining--;
                stats_.raysCompleted++;
                break;
            }
            // Boundary: the baseline just keeps going.
            e.trav.enterNextTreelet();
            stats_.boundaryCrossings++;
            onTreeletEnter(now, e.trav.currentTreelet());
            stepRay(now, e, TraversalMode::RayStationary);
        }
    }
    if (slot.remaining == 0) {
        slot.active = false;
        // slot.rays is kept: the next fill reuses the entries
        // (and their traverser stacks) in place.
        return true;
    }
    return false;
}

void
BaselineRtUnit::tick(uint64_t now)
{
    maybeTelemSample(now);
    accountInterval(now);
    // Everything due by now is handled below; drop its event records.
    consumeEventsUpTo(now);

    // One pass suffices for the resident warps: stepping a ray never
    // unblocks an already-visited one in the same cycle (issue ports
    // only fill up and ready cycles only lie ahead), so the classic
    // rescan-until-fixed-point only ever found new work in slots
    // refilled from the pending queue. Refill and step those directly.
    bool freed = false;
    for (auto &slot : slots_) {
        if (slot.active)
            freed |= stepSlot(now, slot);
    }
    while (freed) {
        freed = false;
        for (auto &slot : slots_) {
            if (slot.active || !fillSlot(now, slot))
                continue;
            freed |= stepSlot(now, slot);
        }
    }
}

void
BaselineRtUnit::drainFunctional(uint64_t now)
{
    // Charge lane-occupancy up to the boundary, then finish every ray
    // functionally. Mode-cycle/isect attribution for drained work is
    // deliberately not modeled: the sampler ends its measured interval
    // before draining, so these counters are only read as deltas inside
    // intervals and the drain burst is invisible to the estimates.
    accountInterval(now);
    for (auto &slot : slots_) {
        if (!slot.active)
            continue;
        for (auto &e : slot.rays) {
            if (!e.valid || e.stage == Stage::Done)
                continue;
            finishTraversal(e.trav);
            policy_->onRayComplete(e.trav);
            deliver(e.warpToken, e.lane, e.trav.hit());
            e.stage = Stage::Done;
            slot.remaining--;
            stats_.raysCompleted++;
        }
        slot.active = false;
    }
    // Pooled rays never entered a slot; traverse them with a scratch
    // traverser (fresh rays sit at the root boundary until
    // finishTraversal crosses it, exactly as fillSlot would).
    // Speculation is deliberately skipped: finishTraversal from the
    // root yields the identical frame, and the drained burst's timing
    // is never measured (DESIGN.md §8).
    RayTraverser scratch;
    policy_->takePending(warpScratch_);
    for (const PendingRay &pr : warpScratch_) {
        scratch.reset(&bvh_, pr.ray);
        finishTraversal(scratch);
        policy_->onRayComplete(scratch);
        deliver(pr.warpToken, pr.lane, scratch.hit());
        stats_.raysCompleted++;
    }
    warpScratch_.clear();
    clearEventRecords();
}

bool
BaselineRtUnit::idle() const
{
    if (policy_->hasPending())
        return false;
    for (const auto &slot : slots_)
        if (slot.active)
            return false;
    return true;
}

uint64_t
BaselineRtUnit::raysHeld() const
{
    uint64_t held = policy_->pendingRays();
    for (const auto &slot : slots_)
        if (slot.active)
            held += slot.remaining;
    return held;
}

std::string
BaselineRtUnit::debugStatus() const
{
    uint32_t active = 0;
    std::array<uint32_t, 5> stages{};
    for (const auto &slot : slots_) {
        if (!slot.active)
            continue;
        active++;
        for (const auto &e : slot.rays)
            if (e.valid)
                stages[size_t(e.stage)]++;
    }
    std::ostringstream os;
    os << "baseline slots=" << active << "/" << slots_.size()
       << " policy=" << dispatchPolicyName(cfg_.policy)
       << " pendingRays=" << policy_->pendingRays() << " rays{waitData="
       << stages[size_t(Stage::WaitData)]
       << " needIssue=" << stages[size_t(Stage::NeedIssue)]
       << " waitMem=" << stages[size_t(Stage::WaitMem)]
       << " waitIsect=" << stages[size_t(Stage::WaitIsect)] << "}";
    return os.str();
}

// ---- snapshot hooks ----------------------------------------------------

void
RtStats::saveState(Serializer &s) const
{
    // Registry order, native widths: the chunk layout is defined by
    // telemetry/counter_registry.hh alone.
    s.beginChunk("RTST");
    forEachRtCounter(*this, [&](const CounterInfo &, const auto &v) {
        s.pod(v);
    });
    s.endChunk();
}

void
RtStats::loadState(Deserializer &d)
{
    d.beginChunk("RTST");
    forEachRtCounter(*this, [&](const CounterInfo &, auto &v) {
        v = d.pod<std::decay_t<decltype(v)>>();
    });
    d.endChunk();
}

void
RtUnitBase::saveRayEntry(Serializer &s, const RayEntry &e) const
{
    if (e.valid && e.ready == kPendingReady)
        throw SnapshotError(
            "snapshot: ray entry with unresolved deferred ready "
            "(capture outside the serial commit boundary)");
    s.b(e.valid);
    s.u8(e.lane);
    s.u64(e.warpToken);
    s.u32(e.ctaToken);
    s.u32(e.rayId);
    e.trav.saveState(s);
    s.u8(uint8_t(e.stage));
    s.u64(e.ready);
    s.b(e.fetchIsLeaf);
}

void
RtUnitBase::loadRayEntry(Deserializer &d, RayEntry &e)
{
    e.valid = d.b();
    e.lane = d.u8();
    e.warpToken = d.u64();
    e.ctaToken = d.u32();
    e.rayId = d.u32();
    e.trav.loadState(d, &bvh_);
    uint8_t stage = d.u8();
    if (stage > uint8_t(Stage::Done))
        throw SnapshotError("snapshot: ray stage out of range");
    e.stage = Stage(stage);
    e.ready = d.u64();
    e.fetchIsLeaf = d.b();
}

void
RtUnitBase::saveState(Serializer &s) const
{
    s.beginChunk("RTUB");
    stats_.saveState(s);
    s.u64(lastAccounted_);
    memIssue_.saveState(s);
    isect_.saveState(s);
    // Fold any resolved deferred readies into the heap, then persist
    // it sorted — a sorted array is a valid min-heap and the pop order
    // of a heap of plain cycles depends only on the multiset anyway.
    (void)cachedNextEvent();
    std::vector<uint64_t> events = eventHeap_;
    std::sort(events.begin(), events.end());
    s.vecPod(events);
    s.endChunk();
}

void
RtUnitBase::loadState(Deserializer &d)
{
    d.beginChunk("RTUB");
    stats_.loadState(d);
    lastAccounted_ = d.u64();
    memIssue_.loadState(d);
    isect_.loadState(d);
    pendingEventReadies_.clear();
    eventHeap_ = d.vecPod<uint64_t>(); // sorted == valid min-heap
    d.endChunk();
}

void
RtUnitBase::saveLaneHits(Serializer &s, const std::vector<LaneHit> &hits)
{
    s.u64(hits.size());
    for (const LaneHit &h : hits) {
        s.u8(h.lane);
        s.pod(h.hit);
    }
}

std::vector<LaneHit>
RtUnitBase::loadLaneHits(Deserializer &d)
{
    uint64_t n = d.u64();
    std::vector<LaneHit> hits;
    hits.reserve(size_t(n));
    for (uint64_t i = 0; i < n; i++) {
        LaneHit h;
        h.lane = d.u8();
        h.hit = d.pod<HitRecord>();
        hits.push_back(h);
    }
    return hits;
}

void
BaselineRtUnit::saveState(Serializer &s) const
{
    RtUnitBase::saveState(s);
    s.beginChunk("BASE");
    s.u64(slots_.size());
    for (const WarpSlot &slot : slots_) {
        s.b(slot.active);
        s.u64(slot.rays.size());
        for (const RayEntry &e : slot.rays)
            saveRayEntry(s, e);
        s.u32(slot.remaining);
    }
    // std::map iterates token-sorted: identical states serialize to
    // identical bytes regardless of insertion history.
    s.u64(warps_.size());
    for (const auto &[token, bk] : warps_) {
        s.u64(token);
        s.u32(bk.outstanding);
        saveLaneHits(s, bk.hits);
    }
    s.endChunk();
    policy_->saveState(s);
}

void
BaselineRtUnit::loadState(Deserializer &d)
{
    RtUnitBase::loadState(d);
    d.beginChunk("BASE");
    if (d.u64() != slots_.size())
        throw SnapshotError("snapshot: warp slot count mismatch");
    for (WarpSlot &slot : slots_) {
        slot.active = d.b();
        uint64_t n = d.u64();
        slot.rays.assign(size_t(n), RayEntry{});
        for (RayEntry &e : slot.rays)
            loadRayEntry(d, e);
        slot.remaining = d.u32();
    }
    warps_.clear();
    uint64_t nw = d.u64();
    for (uint64_t i = 0; i < nw; i++) {
        uint64_t token = d.u64();
        WarpBk bk;
        bk.outstanding = d.u32();
        bk.hits = loadLaneHits(d);
        warps_.emplace(token, std::move(bk));
    }
    d.endChunk();
    policy_->loadState(d);
}

} // namespace trt
