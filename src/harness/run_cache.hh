/**
 * @file
 * Persistent memoization of cycle-level simulation results.
 *
 * Every bench binary ends up simulating many of the same
 * (scene, GpuConfig) pairs — fig10..fig17 all share baselines with
 * fig01 — so the harness fingerprints each run with
 * (GpuConfig hash, scene name, scale, BVH build params, code version)
 * and stores the resulting RunStats as a versioned binary blob under
 * <TRT_CACHE>/runs/. A later invocation of any bench with a matching
 * fingerprint loads the blob instead of re-simulating.
 *
 * Invalidation is automatic: the fingerprint is part of the file name,
 * so any config/scene/code change keys a different file, and blobs are
 * verified (magic + version) on load. Set TRT_RUN_CACHE=0 to bypass
 * the cache entirely, or TRT_CACHE=0 to disable all harness caching.
 */

#ifndef TRT_HARNESS_RUN_CACHE_HH
#define TRT_HARNESS_RUN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "gpu/gpu.hh"

namespace trt
{

/**
 * Per-process pipeline counters, printed (once, at exit) by every
 * bench so cache effectiveness and pipeline perf regressions are
 * visible in bench output.
 */
struct HarnessTiming
{
    std::atomic<uint64_t> sceneBuildMs{0}; //!< Scene gen + BVH build.
    std::atomic<uint32_t> bundleCacheHits{0};
    std::atomic<uint32_t> bundleCacheMisses{0};
    std::atomic<uint32_t> runCacheHits{0};
    std::atomic<uint32_t> runCacheMisses{0};
    /** Blobs/bytes evicted by the TRT_RUN_CACHE_MAX_MB size cap. */
    std::atomic<uint32_t> runCachePrunedBlobs{0};
    std::atomic<uint64_t> runCachePrunedBytes{0};
};

/** The process-wide counters. First use arms an at-exit summary. */
HarnessTiming &harnessTiming();

/** Zero all counters (tests). */
void resetHarnessTiming();

/** One-line human-readable summary of harnessTiming(). */
std::string harnessTimingSummary();

/** True unless TRT_RUN_CACHE=0 or the cache root is disabled. */
bool runCacheEnabled();

/**
 * Fingerprint of one simulation run. Covers every GpuConfig field
 * (resolution and bounce count live there), the scene identity, the
 * BVH build parameters, the blob schema version and a build stamp of
 * the simulator code, so results can never be served stale.
 *
 * @p modeFp distinguishes execution modes that change the *numbers*
 * without changing the config: a sampled run (TRT_SAMPLE) passes
 * SampleConfig::fingerprint() here so its extrapolated stats can never
 * be served for a full run or vice versa, and different sampling
 * parameters never share a blob. Full runs pass 0 (the default).
 */
uint64_t runFingerprint(const GpuConfig &cfg, const std::string &scene,
                        float scale, uint64_t modeFp = 0);

/** Same, with an explicit BvhConfig instead of BvhConfig::fromEnv() —
 *  what JobSpec::fingerprint() uses so a job's BVH width is part of
 *  the spec, not ambient process state. The env-reading overload above
 *  delegates here. */
uint64_t runFingerprint(const GpuConfig &cfg, const std::string &scene,
                        float scale, const BvhConfig &bvhCfg,
                        uint64_t modeFp);

/**
 * True when a blob for @p fp exists on disk (no load, no validation,
 * no timing counters, no mtime touch). The farm's --dry-run uses this
 * to report cache-hit status without perturbing the cache.
 */
bool cachedRunExists(uint64_t fp, const std::string &scene);

/**
 * Try to load the memoized result for @p fp. Counts a hit or miss in
 * harnessTiming() when the cache is enabled; returns false (without
 * counting) when it is not.
 */
bool loadCachedRun(uint64_t fp, const std::string &scene, RunStats &st);

/**
 * Persist @p st for @p fp (atomic write; no-op if caching disabled).
 * Afterwards prunes the runs directory to TRT_RUN_CACHE_MAX_MB
 * (default 512 MB, <=0 disables), evicting least-recently-used blobs —
 * loads touch their blob's mtime, so hot entries survive.
 */
void storeCachedRun(uint64_t fp, const std::string &scene,
                    const RunStats &st);

} // namespace trt

#endif // TRT_HARNESS_RUN_CACHE_HH
