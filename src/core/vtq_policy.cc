#include "core/vtq_policy.hh"

namespace trt
{

bool
VtqPolicy::endInitialPhase(uint32_t divergence) const
{
    // Section 3.2 step 1: terminate the fresh warp once its rays spread
    // over more treelets than the threshold (skipTreeletPhase parks
    // unconditionally — the section 6.4 threshold-of-zero experiment).
    return cfg_.skipTreeletPhase ||
           divergence > cfg_.initialDivergeThreshold;
}

VtqPolicy::DispatchChoice
VtqPolicy::chooseDispatch(const std::vector<QueueView> &queues,
                          uint32_t loaded_treelet) const
{
    DispatchChoice c;
    if (queues.empty())
        return c;

    // Empty the loaded treelet's queue before switching (section 3.2):
    // its data is already in the L1, so a switch would waste the fetch.
    if (!cfg_.skipTreeletPhase && loaded_treelet != kInvalidTreelet) {
        for (const QueueView &q : queues) {
            if (q.treelet == loaded_treelet && q.size > 0) {
                c.kind = WarpKind::Treelet;
                c.treelet = loaded_treelet;
                return c;
            }
        }
    }

    // Largest queue; the strict greater-than keeps the first in table
    // order on ties.
    uint32_t best = kInvalidTreelet;
    uint32_t best_size = 0;
    for (const QueueView &q : queues) {
        if (q.size > best_size) {
            best = q.treelet;
            best_size = q.size;
        }
    }
    if (best == kInvalidTreelet)
        return c;

    bool treelet_eligible =
        !cfg_.skipTreeletPhase &&
        (best_size >= cfg_.queueThreshold || !cfg_.groupUnderpopulated);
    if (treelet_eligible) {
        c.kind = WarpKind::Treelet;
        c.treelet = best;
    } else if (cfg_.groupUnderpopulated || cfg_.skipTreeletPhase) {
        c.kind = WarpKind::Grouped;
    }
    return c;
}

} // namespace trt
