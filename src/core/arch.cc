#include "core/arch.hh"

#include <cstdio>

#include "core/prefetch_unit.hh"
#include "core/treelet_queue_unit.hh"

namespace trt
{

namespace
{

/**
 * Run a snapshot-armed Gpu through @p run, first restoring the newest
 * valid snapshot when @p resume is set. A snapshot that fails to load
 * leaves the Gpu inconsistent, so the fallback cold run rebuilds it.
 */
template <typename Run>
RunStats
runResumable(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
             const SnapshotPolicy &policy, bool resume, Run run)
{
    Gpu gpu(cfg, scene, bvh, makeRtUnitFactory());
    gpu.setSnapshotPolicy(policy);
    if (!resume)
        return run(gpu);
    auto path = findNewestValidSnapshot(policy.dir, policy.worldFp);
    if (!path)
        return run(gpu);
    try {
        std::vector<uint8_t> payload =
            readSnapshotPayload(*path, policy.worldFp);
        Deserializer d(payload);
        gpu.loadState(d);
    } catch (const SnapshotError &e) {
        fprintf(stderr, "[snapshot] %s: %s; falling back to a cold run\n",
                path->string().c_str(), e.what());
        Gpu cold(cfg, scene, bvh, makeRtUnitFactory());
        cold.setSnapshotPolicy(policy);
        return run(cold);
    }
    fprintf(stderr, "[snapshot] resuming from %s (cycle %llu)\n",
            path->string().c_str(), (unsigned long long)gpu.restoredCycle());
    return run(gpu);
}

} // anonymous namespace

Gpu::RtUnitFactory
makeRtUnitFactory()
{
    return [](const GpuConfig &cfg, MemorySystem &mem, const Bvh &bvh,
              uint32_t sm_id) -> std::unique_ptr<RtUnitBase> {
        switch (cfg.policy) {
          case DispatchPolicyKind::Prefetch:
            return std::make_unique<TreeletPrefetchRtUnit>(cfg, mem, bvh,
                                                           sm_id);
          case DispatchPolicyKind::Vtq:
            return std::make_unique<TreeletQueueRtUnit>(cfg, mem, bvh,
                                                        sm_id);
          default:
            return std::make_unique<BaselineRtUnit>(cfg, mem, bvh, sm_id);
        }
    };
}

RunStats
simulate(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh)
{
    Gpu gpu(cfg, scene, bvh, makeRtUnitFactory());
    return gpu.run();
}

RunStats
simulateRays(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
             const std::vector<Ray> &rays)
{
    GpuConfig c = cfg;
    c.maxBounces = 0; // queries are a single trace per thread
    Gpu gpu(c, scene, bvh, makeRtUnitFactory(), &rays);
    return gpu.run();
}

RunStats
simulateWithSnapshots(const GpuConfig &cfg, const Scene &scene,
                      const Bvh &bvh, const SnapshotPolicy &policy,
                      bool resume)
{
    return runResumable(cfg, scene, bvh, policy, resume,
                        [](Gpu &gpu) { return gpu.run(); });
}

RunStats
simulateSampled(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
                const SampleConfig &sample, const SnapshotPolicy &policy,
                bool resume)
{
    return runResumable(cfg, scene, bvh, policy, resume,
                        [&](Gpu &gpu) { return gpu.runSampled(sample); });
}

} // namespace trt
