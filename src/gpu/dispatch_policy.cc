#include "gpu/dispatch_policy.hh"

#include <algorithm>
#include <cassert>

#include "geom/hash.hh"

namespace trt
{

namespace
{

/** Spread the low 21 bits of @p x so consecutive bits land 3 apart
 *  (Morton interleave component). */
uint64_t
part1by2(uint64_t x)
{
    x &= 0x1fffffull;
    x = (x | x << 32) & 0x001f00000000ffffull;
    x = (x | x << 16) & 0x001f0000ff0000ffull;
    x = (x | x << 8) & 0x100f00f00f00f00full;
    x = (x | x << 4) & 0x10c30c30c30c30c3ull;
    x = (x | x << 2) & 0x1249249249249249ull;
    return x;
}

/** Quantize @p v over [lo, hi] into [0, 2^bits). Degenerate axes (and
 *  out-of-bounds origins) clamp — every ray gets *some* bin. */
uint32_t
quantizeAxis(float v, float lo, float hi, uint32_t bits)
{
    if (!(hi > lo))
        return 0;
    float f = (v - lo) / (hi - lo);
    if (!(f > 0.0f))
        return 0;
    uint32_t levels = 1u << bits;
    if (f >= 1.0f)
        return levels - 1;
    uint32_t q = uint32_t(f * float(levels));
    return std::min(q, levels - 1);
}

} // anonymous namespace

// ---- SharedPredict ----------------------------------------------------

SharedPredict::SharedPredict(const GpuConfig &cfg)
{
    uint32_t bits = std::min<uint32_t>(std::max(cfg.predictTableBits, 1u),
                                       24u);
    table.resize(size_t(1) << bits);
    mask = table.size() - 1;
    pending.resize(cfg.numSms);
}

void
SharedPredict::flush()
{
    // SM order, then enqueue order within an SM: the exact sequence a
    // serial SM loop would apply, so the table contents after every
    // cycle are thread-count independent. Applied unconditionally —
    // the queue-time dedup against the frozen table already filtered
    // no-op updates.
    for (std::vector<Train> &q : pending) {
        for (const Train &t : q) {
            Entry &e = table[size_t(t.hash & mask)];
            e.tag = t.hash;
            e.firstTri = t.firstTri;
            e.count = t.count;
        }
        q.clear();
    }
}

void
SharedPredict::saveState(Serializer &s) const
{
    for (const auto &q : pending)
        if (!q.empty())
            throw SnapshotError(
                "snapshot: unflushed shared-predictor trainings");
    s.beginChunk("PSHR");
    s.u64(table.size());
    for (const Entry &e : table) {
        s.u64(e.tag);
        s.u32(e.firstTri);
        s.u32(e.count);
    }
    s.endChunk();
}

void
SharedPredict::loadState(Deserializer &d)
{
    d.beginChunk("PSHR");
    if (d.u64() != table.size())
        throw SnapshotError(
            "snapshot: shared prediction-table size mismatch (config skew)");
    for (Entry &e : table) {
        e.tag = d.u64();
        e.firstTri = d.u32();
        e.count = d.u32();
    }
    for (auto &q : pending)
        q.clear();
    d.endChunk();
}

// ---- pool serialization helpers ---------------------------------------

namespace
{

void
savePendingRay(Serializer &s, const PendingRay &r)
{
    s.pod(r.ray);
    s.u64(r.warpToken);
    s.u32(r.ctaToken);
    s.u8(r.lane);
}

PendingRay
loadPendingRay(Deserializer &d)
{
    PendingRay r;
    r.ray = d.pod<Ray>();
    r.warpToken = d.u64();
    r.ctaToken = d.u32();
    r.lane = d.u8();
    return r;
}

} // anonymous namespace

// ---- FifoPolicy -------------------------------------------------------

void
FifoPolicy::enqueue(std::vector<PendingRay> &&group)
{
    count_ += group.size();
    groups_.push_back(std::move(group));
}

void
FifoPolicy::formWarp(uint32_t warp_size, std::vector<PendingRay> &out)
{
    out.clear();
    if (groups_.empty())
        return;
    // Warps stay intact: one incoming group becomes one RT warp, even
    // when undersized — exactly the pre-policy baseline behavior.
    (void)warp_size;
    out = std::move(groups_.front());
    groups_.pop_front();
    count_ -= out.size();
}

void
FifoPolicy::takePending(std::vector<PendingRay> &out)
{
    out.clear();
    for (auto &g : groups_)
        for (auto &r : g)
            out.push_back(std::move(r));
    groups_.clear();
    count_ = 0;
}

void
FifoPolicy::saveState(Serializer &s) const
{
    s.beginChunk("DPOL");
    s.u64(groups_.size());
    for (const auto &g : groups_) {
        s.u64(g.size());
        for (const PendingRay &r : g)
            savePendingRay(s, r);
    }
    s.endChunk();
}

void
FifoPolicy::loadState(Deserializer &d)
{
    d.beginChunk("DPOL");
    groups_.clear();
    count_ = 0;
    uint64_t n = d.u64();
    for (uint64_t i = 0; i < n; i++) {
        std::vector<PendingRay> g;
        uint64_t m = d.u64();
        g.reserve(size_t(m));
        for (uint64_t j = 0; j < m; j++)
            g.push_back(loadPendingRay(d));
        count_ += g.size();
        groups_.push_back(std::move(g));
    }
    d.endChunk();
}

// ---- ReorderPolicy ----------------------------------------------------

ReorderPolicy::ReorderPolicy(const GpuConfig &cfg, const Bvh &bvh,
                             RtStats &stats)
    : DispatchPolicy(cfg, bvh, stats)
{
}

uint64_t
ReorderPolicy::binKey(const Ray &ray) const
{
    // Morton code of the origin quantized over the scene bounds, with
    // the direction octant in the low bits: rays sharing a bin start
    // close together *and* head the same way, so the warps formed from
    // one bin traverse largely the same treelets.
    uint32_t bits = std::min<uint32_t>(std::max(cfg_.reorderBinBits, 1u),
                                       16u);
    const Aabb &b = bvh_.rootBounds();
    uint64_t mx = part1by2(
        quantizeAxis(ray.orig.x, b.lo.x, b.hi.x, bits));
    uint64_t my = part1by2(
        quantizeAxis(ray.orig.y, b.lo.y, b.hi.y, bits));
    uint64_t mz = part1by2(
        quantizeAxis(ray.orig.z, b.lo.z, b.hi.z, bits));
    uint64_t morton = mx | my << 1 | mz << 2;
    uint64_t octant = uint64_t(ray.dir.x < 0.0f) |
                      uint64_t(ray.dir.y < 0.0f) << 1 |
                      uint64_t(ray.dir.z < 0.0f) << 2;
    return morton << 3 | octant;
}

void
ReorderPolicy::enqueue(std::vector<PendingRay> &&group)
{
    for (PendingRay &r : group) {
        bins_[binKey(r.ray)].push_back(std::move(r));
        count_++;
    }
    group.clear();
}

void
ReorderPolicy::formWarp(uint32_t warp_size, std::vector<PendingRay> &out)
{
    out.clear();
    // Drain bins in ascending key order, topping an undersized bin up
    // from its key-order successors: warps come out full *and* sorted,
    // which is the whole point of reordering.
    auto it = bins_.begin();
    while (it != bins_.end() && out.size() < warp_size) {
        auto &q = it->second;
        while (!q.empty() && out.size() < warp_size) {
            out.push_back(std::move(q.front()));
            q.pop_front();
            count_--;
        }
        if (q.empty())
            it = bins_.erase(it);
        else
            ++it;
    }
    if (!out.empty())
        stats_.reorderBatches++;
}

void
ReorderPolicy::takePending(std::vector<PendingRay> &out)
{
    out.clear();
    for (auto &[key, q] : bins_)
        for (PendingRay &r : q)
            out.push_back(std::move(r));
    bins_.clear();
    count_ = 0;
}

void
ReorderPolicy::saveState(Serializer &s) const
{
    s.beginChunk("DPOL");
    s.u64(bins_.size());
    for (const auto &[key, q] : bins_) {
        s.u64(key);
        s.u64(q.size());
        for (const PendingRay &r : q)
            savePendingRay(s, r);
    }
    s.endChunk();
}

void
ReorderPolicy::loadState(Deserializer &d)
{
    d.beginChunk("DPOL");
    bins_.clear();
    count_ = 0;
    uint64_t n = d.u64();
    for (uint64_t i = 0; i < n; i++) {
        uint64_t key = d.u64();
        std::deque<PendingRay> q;
        uint64_t m = d.u64();
        for (uint64_t j = 0; j < m; j++)
            q.push_back(loadPendingRay(d));
        count_ += q.size();
        bins_.emplace(key, std::move(q));
    }
    d.endChunk();
}

// ---- PredictPolicy ----------------------------------------------------

PredictPolicy::PredictPolicy(const GpuConfig &cfg, const Bvh &bvh,
                             RtStats &stats)
    : FifoPolicy(cfg, bvh, stats)
{
    uint32_t bits = std::min<uint32_t>(std::max(cfg.predictTableBits, 1u),
                                       24u);
    table_.resize(size_t(1) << bits);
    mask_ = table_.size() - 1;
}

uint64_t
PredictPolicy::rayHash(const Ray &ray) const
{
    // Quantized origin (6 bits/axis over the scene bounds) plus
    // quantized direction (6 bits/axis of the [-1,1] components): rays
    // close in space and heading hash together, which is what makes
    // the table's last-resolver block a useful guess.
    const Aabb &b = bvh_.rootBounds();
    Fnv1a h;
    h.pod(quantizeAxis(ray.orig.x, b.lo.x, b.hi.x, 6));
    h.pod(quantizeAxis(ray.orig.y, b.lo.y, b.hi.y, 6));
    h.pod(quantizeAxis(ray.orig.z, b.lo.z, b.hi.z, 6));
    h.pod(quantizeAxis(ray.dir.x, -1.0f, 1.0f, 6));
    h.pod(quantizeAxis(ray.dir.y, -1.0f, 1.0f, 6));
    h.pod(quantizeAxis(ray.dir.z, -1.0f, 1.0f, 6));
    return h.value();
}

void
PredictPolicy::setShared(SharedPredict *sp, uint32_t sm_id)
{
    shared_ = sp;
    smId_ = sm_id;
    if (shared_) {
        // The private table is dead weight in shared mode; release it
        // so snapshots don't carry numSms idle copies.
        table_.clear();
        table_.shrink_to_fit();
        mask_ = 0;
    }
}

DispatchPolicy::Speculation
PredictPolicy::speculate(const Ray &ray)
{
    stats_.predictLookups++;
    uint64_t h = rayHash(ray);
    if (shared_) {
        // Reads only: the shared table is frozen for the whole tick
        // phase (trainings queue up and land at the cycle commit).
        const SharedPredict::Entry &e =
            shared_->table[size_t(h & shared_->mask)];
        if (e.count == 0 || e.tag != h)
            return {};
        return {e.firstTri, e.count, true};
    }
    const Entry &e = table_[size_t(h & mask_)];
    if (e.count == 0 || e.tag != h)
        return {}; // cold or conflicting slot: no prediction
    return {e.firstTri, e.count, true};
}

void
PredictPolicy::onRayComplete(const RayTraverser &trav)
{
    // Score the prediction this traversal ran under (if any).
    switch (trav.specOutcome()) {
      case RayTraverser::SpecOutcome::Correct:
        stats_.predictHits++;
        break;
      case RayTraverser::SpecOutcome::Wrong:
        stats_.predictMisses++;
        break;
      case RayTraverser::SpecOutcome::None:
        break;
    }

    // Train: remember the leaf block that resolved this ray. Misses
    // don't evict — a ray that escaped the scene says nothing about
    // where the next similar ray will hit.
    if (!trav.hit().hit() || trav.hitBlockCount() == 0)
        return;
    uint64_t h = rayHash(trav.ray());
    if (shared_) {
        // Dedup against the frozen table, then defer the write to this
        // SM's pending queue; SharedPredict::flush() applies it at the
        // serial cycle commit. predictInserts counts queued updates —
        // deterministic, since the table can't change under us here.
        const SharedPredict::Entry &e =
            shared_->table[size_t(h & shared_->mask)];
        if (e.tag != h || e.firstTri != trav.hitBlockFirst() ||
            e.count != trav.hitBlockCount()) {
            shared_->pending[smId_].push_back(
                {h, trav.hitBlockFirst(), trav.hitBlockCount()});
            stats_.predictInserts++;
        }
        return;
    }
    Entry &e = table_[size_t(h & mask_)];
    if (e.tag != h || e.firstTri != trav.hitBlockFirst() ||
        e.count != trav.hitBlockCount()) {
        e.tag = h;
        e.firstTri = trav.hitBlockFirst();
        e.count = trav.hitBlockCount();
        stats_.predictInserts++;
    }
}

void
PredictPolicy::saveState(Serializer &s) const
{
    FifoPolicy::saveState(s);
    s.beginChunk("PRED");
    // Shared mode: table_ is empty by construction (setShared cleared
    // it), so this writes a zero-length table and the real state lives
    // in the Gpu's "PSHR" chunk. predictShared is fingerprinted, so a
    // snapshot can never be resumed under the other mode.
    s.u64(table_.size());
    for (const Entry &e : table_) {
        s.u64(e.tag);
        s.u32(e.firstTri);
        s.u32(e.count);
    }
    s.endChunk();
}

void
PredictPolicy::loadState(Deserializer &d)
{
    FifoPolicy::loadState(d);
    d.beginChunk("PRED");
    if (d.u64() != table_.size())
        throw SnapshotError(
            "snapshot: prediction-table size mismatch (config skew)");
    for (Entry &e : table_) {
        e.tag = d.u64();
        e.firstTri = d.u32();
        e.count = d.u32();
    }
    d.endChunk();
}

// ---- factory ----------------------------------------------------------

std::unique_ptr<DispatchPolicy>
makeDispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats)
{
    switch (cfg.policy) {
      case DispatchPolicyKind::Reorder:
        return std::make_unique<ReorderPolicy>(cfg, bvh, stats);
      case DispatchPolicyKind::Predict:
        return std::make_unique<PredictPolicy>(cfg, bvh, stats);
      default:
        return std::make_unique<FifoPolicy>(cfg, bvh, stats);
    }
}

} // namespace trt
