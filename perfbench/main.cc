/**
 * @file
 * The repository benchmark's program (see README.md in this
 * directory). run.py builds it and runs it in two modes:
 *
 *   perfbench setup --workload W --cache DIR --out FILE [--trace 1]
 *       Cold scene generation + BVH build of W's bundles into an empty
 *       cache root, in a fresh process (the harness keeps bundles in a
 *       process-wide cache, so a cold build needs a new process).
 *
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 --cache DIR --goldens FILE --out FILE
 *       Trace 0: repeat W's pass for S seconds through the library's
 *       public entry points and report end-to-end metrics. Trace 1: run
 *       W's pass untraced once, then every workload's pass once with
 *       spans around each layer call, and report per-layer metrics.
 *
 * Every simulation's RunStatsIo fingerprint is checked against the
 * goldens file; each mismatch, and each failed cross-check (frames
 * across configs, sampled vs full frames, farm vs in-process), is one
 * failed operation. Results go to --out as JSON; stdout belongs to the
 * library (the harness prints a summary at exit).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arch.hh"
#include "farm/scheduler.hh"
#include "geom/rng.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "harness/job.hh"
#include "harness/run_cache.hh"
#include "scene/registry.hh"
#include "spans.hh"
#include "telemetry/counter_registry.hh"

using namespace trt;
using namespace perfbench;

namespace
{

// ---- workloads -------------------------------------------------------

struct Workload
{
    std::string name;
    std::vector<std::string> scenes;
    float scale;
    uint32_t res;
    std::vector<std::string> configs;
    std::vector<uint32_t> widths;
};

/** CRNVL frame size for crnvl_hires. 512 takes ~50 s per full+sampled
 *  pass with 4 tick threads, too long to repeat inside one run; 192
 *  still samples (256 CTAs exceed one sampling schedule) and keeps the
 *  per-cycle TickPool cost dominant. */
constexpr uint32_t kCrnvlRes = 192;

/** Rays per scene and width for the traversal microbenchmark. */
constexpr uint32_t kTraverseRays = 20000;

/** Farm jobs re-run in-process to cross-check the farm's results. */
constexpr size_t kFarmCrossChecks = 4;

const Workload &
workload(const std::string &name)
{
    static const std::vector<Workload> all = {
        {"fig10_suite", sceneNames(), 0.15f, 64,
         {"baseline", "prefetch", "vtq"}, {4}},
        {"crnvl_hires", {"CRNVL"}, 1.0f, kCrnvlRes, {"baseline", "vtq"},
         {4}},
        // Every other Table 2 scene plus the largest: 0.3-47 MB BVHs.
        {"farm_sweep",
         {"BUNNY", "CHSNT", "CRNVL", "PARTY", "LANDS", "PARK", "CAR",
          "ROBOT"},
         0.15f, 64, {"baseline", "vtq", "reorder", "predict"}, {4, 8}},
    };
    for (const Workload &w : all)
        if (w.name == name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

const std::vector<std::string> kWorkloads = {"fig10_suite", "crnvl_hires",
                                             "farm_sweep"};

JobSpec
makeSpec(const std::string &scene, float scale, uint32_t res,
         const std::string &config, uint32_t width, bool sampled)
{
    JobSpec s;
    s.scene = scene;
    s.scale = scale;
    s.resolution = res;
    s.config = config;
    s.bvhWidth = width;
    s.sample.enabled = sampled;
    return s;
}

/** One (scene, scale, width) bundle. */
struct BundleKey
{
    std::string scene;
    float scale;
    uint32_t width;
};

std::vector<BundleKey>
bundlesOf(const std::vector<std::string> &workloads)
{
    std::vector<BundleKey> out;
    for (const std::string &wn : workloads) {
        const Workload &w = workload(wn);
        for (uint32_t width : w.widths)
            for (const std::string &s : w.scenes) {
                bool dup = false;
                for (const BundleKey &k : out)
                    dup |= k.scene == s && k.scale == w.scale &&
                           k.width == width;
                if (!dup)
                    out.push_back({s, w.scale, width});
            }
    }
    return out;
}

/** The BVH build parameters a farm job of BVH width @p width uses. */
BvhConfig
bvhConfigOf(uint32_t width)
{
    JobSpec s;
    s.bvhWidth = width;
    return s.bvhConfig();
}

const SceneBundle &
bundle(const BundleKey &k)
{
    return getSceneBundle(k.scene, k.scale, bvhConfigOf(k.width));
}

uint32_t
nproc()
{
    uint32_t n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

template <typename T>
void
shuffle(std::vector<T> &v, Pcg32 &rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.nextBounded(uint32_t(i))]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// ---- results ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metrics plus the operation ledger: every simulation and every
 *  cross-check is one attempted operation. */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void check(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
        }
    }
};

/** Pinned RunStatsIo fingerprints, keyed by JobSpec::label(). */
class Goldens
{
  public:
    Goldens(const std::string &path, bool record, bool plantMismatch)
        : record_(record), plant_(plantMismatch)
    {
        if (record_)
            return;
        std::ifstream is(path);
        if (!is)
            throw std::runtime_error("cannot read goldens " + path);
        std::string label, hex;
        while (is >> label >> hex)
            pinned_[label] = std::stoull(hex, nullptr, 16);
    }

    /** Check (or record) the fingerprint of one simulation. */
    void check(Report &rep, const JobSpec &spec, const RunStats &st)
    {
        std::string label = spec.label();
        uint64_t fp = RunStatsIo::fingerprint(st);
        if (record_) {
            seen_[label] = fp;
            rep.check(true, label);
            return;
        }
        if (plant_) {
            // Self-test hook: corrupt the first comparison only.
            plant_ = false;
            fp ^= 1;
        }
        auto it = pinned_.find(label);
        rep.check(it != pinned_.end() && it->second == fp,
                  "golden fingerprint " + label);
    }

    void write(const std::string &path) const
    {
        std::ofstream os(path);
        for (const auto &[label, fp] : seen_) {
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          (unsigned long long)fp);
            os << label << " " << hex << "\n";
        }
    }

  private:
    bool record_;
    bool plant_;
    std::map<std::string, uint64_t> pinned_;
    std::map<std::string, uint64_t> seen_;
};

/** One simulation's outcome. */
struct Sim
{
    JobSpec spec;
    RunStats stats;
    double wallS = 0;
};

/** All frames of @p sims whose (scene, sampled) match are identical:
 *  dispatch policy, prefetching and BVH width change timing, never
 *  pixels. */
void
checkFramesAcrossConfigs(Report &rep, const std::vector<Sim> &sims)
{
    std::map<std::string, const Sim *> first;
    std::map<std::string, bool> same;
    for (const Sim &s : sims) {
        std::string key = s.spec.scene + (s.spec.sample.enabled ? "/s" : "");
        auto [it, fresh] = first.emplace(key, &s);
        if (fresh)
            same[key] = true;
        else
            same[key] = same[key] &&
                        s.stats.framebuffer == it->second->stats.framebuffer;
    }
    for (const auto &[key, ok] : same)
        rep.check(ok, "frames identical across configs of " + key);
}

// ---- per-layer accumulators (traced runs) ---------------------------

struct CfgTime
{
    double simS = 0;
    double cycles = 0;
    double rays = 0;
};

struct LayerStats
{
    std::map<std::string, CfgTime> gpu;
    std::map<std::string, double> counters;

    void addSim(const std::string &config, double wallS, const RunStats &st)
    {
        CfgTime &c = gpu[config];
        c.simS += wallS;
        c.cycles += double(st.cycles);
        c.rays += double(st.raysTraced);
        forEachRunCounter(st, [&](const CounterInfo &info, const auto &v) {
            counters[info.name] += double(v);
        });
    }
};

/** Everything one run shares across passes. */
struct Ctx
{
    const Workload *w = nullptr;
    uint64_t seed = 0;
    std::string cache;
    std::string work;
    Tracer tracer{false};
    Goldens *goldens = nullptr;
    Report rep;
    std::vector<double> passWalls; //!< Timed runs: each pass's wall.
};

void
setRunCache(bool on)
{
    ::setenv("TRT_RUN_CACHE", on ? "1" : "0", 1);
}

// ---- fig10_suite -----------------------------------------------------

struct SuitePass
{
    double wallS = 0;
    std::vector<Sim> sims;
};

SuitePass
runSuite(Ctx &c, Pcg32 &order)
{
    const Workload &w = workload("fig10_suite");
    SuitePass p;
    for (const std::string &s : w.scenes)
        for (const std::string &cfg : w.configs)
            p.sims.push_back({makeSpec(s, w.scale, w.res, cfg, 4, false),
                              {}, 0});
    shuffle(p.sims, order);

    HarnessOptions opt;
    opt.resolution = w.res;
    opt.sceneScale = w.scale;
    opt.threads = nproc();
    for (const Sim &s : p.sims)
        opt.scenes.push_back(s.spec.scene);

    setRunCache(false);
    auto t0 = Clock::now();
    {
        Tracer::Scope sp(c.tracer, "harness.parallelForScenes");
        int64_t parent = Tracer::current();
        parallelForScenes(opt, [&](size_t i, const std::string &scene) {
            Tracer::Scope s(c.tracer, "gpu.runScene", parent);
            auto t = Clock::now();
            p.sims[i].stats = runScene(scene, p.sims[i].spec.gpuConfig(), opt);
            p.sims[i].wallS = secondsSince(t);
        });
    }
    p.wallS = secondsSince(t0);
    for (const Sim &s : p.sims)
        c.goldens->check(c.rep, s.spec, s.stats);
    checkFramesAcrossConfigs(c.rep, p.sims);
    return p;
}

// ---- crnvl_hires -----------------------------------------------------

struct HiresPass
{
    double wallS = 0;
    double fullS = 0;
    double sampledS = 0;
    std::vector<Sim> full;
    std::vector<Sim> sampled;
};

HiresPass
runHires(Ctx &c)
{
    const Workload &w = workload("crnvl_hires");
    const std::string &scene = w.scenes.front();
    HarnessOptions opt;
    opt.resolution = w.res;
    opt.sceneScale = w.scale;
    opt.scenes = w.scenes;
    // threads stays 0: the harness default split, which gives a lone
    // scene every hardware thread as SM tick threads.

    setRunCache(false);
    HiresPass p;
    auto t0 = Clock::now();
    for (const std::string &cfg : w.configs) {
        Sim s{makeSpec(scene, w.scale, w.res, cfg, 4, false), {}, 0};
        Tracer::Scope sp(c.tracer, "gpu.runScene");
        auto t = Clock::now();
        s.stats = runScene(scene, s.spec.gpuConfig(), opt);
        s.wallS = secondsSince(t);
        p.full.push_back(std::move(s));
    }
    p.fullS = secondsSince(t0);
    const SceneBundle &b = getSceneBundle(scene, w.scale);
    auto t1 = Clock::now();
    for (const std::string &cfg : w.configs) {
        Sim s{makeSpec(scene, w.scale, w.res, cfg, 4, true), {}, 0};
        GpuConfig g = s.spec.gpuConfig();
        g.simThreads = opt.effectiveSimThreads();
        Tracer::Scope sp(c.tracer, "gpu.simulateSampled");
        auto t = Clock::now();
        s.stats = simulateSampled(g, b.scene, b.bvh, s.spec.sample);
        s.wallS = secondsSince(t);
        p.sampled.push_back(std::move(s));
    }
    p.sampledS = secondsSince(t1);
    p.wallS = secondsSince(t0);

    for (const Sim &s : p.full)
        c.goldens->check(c.rep, s.spec, s.stats);
    for (const Sim &s : p.sampled)
        c.goldens->check(c.rep, s.spec, s.stats);
    checkFramesAcrossConfigs(c.rep, p.full);
    for (size_t i = 0; i < p.full.size(); i++)
        c.rep.check(p.sampled[i].stats.framebuffer ==
                        p.full[i].stats.framebuffer,
                    "sampled frame equals full frame " +
                        p.full[i].spec.label());
    return p;
}

// ---- farm_sweep ------------------------------------------------------

struct FarmPass
{
    double wallS = 0;
    double coldS = 0;
    double warmS = 0;
    FarmResult cold;
    FarmResult warm;
};

std::string
farmManifest(Pcg32 &order)
{
    const Workload &w = workload("farm_sweep");
    std::vector<std::string> jobs;
    for (const std::string &s : w.scenes)
        for (const std::string &cfg : w.configs)
            for (uint32_t width : w.widths)
                jobs.push_back("{\"scene\": \"" + s + "\", \"config\": \"" +
                               cfg + "\", \"bvh_width\": " +
                               std::to_string(width) + "}");
    shuffle(jobs, order);
    std::ostringstream ss;
    ss << "{\"name\": \"farm_sweep\", \"defaults\": {\"res\": " << w.res
       << ", \"scale\": " << w.scale << "}, \"jobs\": [";
    for (size_t i = 0; i < jobs.size(); i++)
        ss << (i ? ", " : "") << jobs[i];
    ss << "]}";
    return ss.str();
}

FarmPass
runFarmPass(Ctx &c, Pcg32 &order)
{
    Manifest m = Manifest::parse(farmManifest(order), "farm_sweep");
    FarmOptions fo;
    fo.workers = nproc();
    fo.simThreads = 1;
    fo.outDir = c.work + "/farm";
    fo.progressS = 3600;

    setRunCache(true);
    std::error_code ec;
    std::filesystem::remove_all(std::filesystem::path(c.cache) / "runs", ec);
    FarmPass p;
    auto t0 = Clock::now();
    {
        Tracer::Scope sp(c.tracer, "farm.runFarm.cold");
        p.cold = runFarm(m, fo);
    }
    p.coldS = secondsSince(t0);
    auto t1 = Clock::now();
    {
        Tracer::Scope sp(c.tracer, "farm.runFarm.warm");
        p.warm = runFarm(m, fo);
    }
    p.warmS = secondsSince(t1);
    p.wallS = secondsSince(t0);

    std::vector<Sim> sims;
    for (const JobRecord &r : p.cold.jobs) {
        c.rep.check(!r.failed && !r.cacheHit,
                    "cold farm job simulated " + r.spec.label());
        c.goldens->check(c.rep, r.spec, r.stats);
        sims.push_back({r.spec, r.stats, double(r.wallMs) / 1e3});
    }
    checkFramesAcrossConfigs(c.rep, sims);
    for (size_t i = 0; i < p.warm.jobs.size(); i++) {
        const JobRecord &r = p.warm.jobs[i];
        c.rep.check(!r.failed && r.cacheHit &&
                        RunStatsIo::fingerprint(r.stats) ==
                            RunStatsIo::fingerprint(p.cold.jobs[i].stats),
                    "warm farm job served from the run cache " +
                        r.spec.label());
    }
    return p;
}

/** Re-run a seed-chosen few farm jobs in-process (run cache off) and
 *  compare with what the farm's workers returned. */
void
crossCheckFarm(Ctx &c, const FarmPass &p, Pcg32 &rng)
{
    setRunCache(false);
    std::vector<size_t> idx(p.cold.jobs.size());
    std::iota(idx.begin(), idx.end(), size_t(0));
    shuffle(idx, rng);
    JobRunnerOptions ropt;
    ropt.simThreads = 1;
    for (size_t k = 0; k < std::min(kFarmCrossChecks, idx.size()); k++) {
        const JobRecord &r = p.cold.jobs[idx[k]];
        JobOutcome o = runJob(r.spec, ropt);
        c.rep.check(RunStatsIo::fingerprint(o.stats) ==
                        RunStatsIo::fingerprint(r.stats),
                    "farm result equals in-process result " +
                        r.spec.label());
    }
}

// ---- setup -----------------------------------------------------------

/** Cold-build every bundle of @p workloads into the (empty) cache root.
 *  Traced: scene generation and BVH build are also called directly so
 *  their time splits by layer; getSceneBundle then builds and stores
 *  the bundle the run process loads. */
void
runSetup(Ctx &c, const std::vector<std::string> &workloads)
{
    std::vector<BundleKey> keys = bundlesOf(workloads);
    HarnessOptions opt;
    opt.threads = nproc();
    for (const BundleKey &k : keys)
        opt.scenes.push_back(k.scene);

    std::vector<BvhStats> stats(keys.size());
    auto t0 = Clock::now();
    {
        Tracer::Scope sp(c.tracer, "harness.parallelForScenes");
        int64_t parent = Tracer::current();
        parallelForScenes(opt, [&](size_t i, const std::string &) {
            const BundleKey &k = keys[i];
            BvhConfig bcfg = bvhConfigOf(k.width);
            if (c.tracer.on()) {
                Scene scene;
                {
                    Tracer::Scope s(c.tracer, "scene.buildScene", parent);
                    scene = buildScene(k.scene, k.scale);
                }
                Tracer::Scope s(c.tracer,
                                "bvh.build.w" + std::to_string(k.width),
                                parent);
                Bvh::build(scene.triangles, bcfg);
            }
            Tracer::Scope s(c.tracer, "harness.getSceneBundle", parent);
            stats[i] = getSceneBundle(k.scene, k.scale, bcfg).bvhStats;
        });
    }
    double wall = secondsSince(t0);
    c.rep.metric("setup_s", wall, "s");
    if (!c.tracer.on())
        return;
    // A scene appears once per width; generation is counted per call.
    c.rep.metric("scene.build_s", c.tracer.total("scene.buildScene"), "s");
    c.rep.metric("bvh.build_s.w4", c.tracer.total("bvh.build.w4"), "s");
    c.rep.metric("bvh.build_s.w8", c.tracer.total("bvh.build.w8"), "s");
    double nodes = 0, bytes = 0, treelets = 0;
    for (const BvhStats &s : stats) {
        nodes += s.nodeCount;
        bytes += double(s.totalBytes);
        treelets += s.treeletCount;
    }
    c.rep.metric("bvh.nodes", nodes, "count");
    c.rep.metric("bvh.bytes", bytes, "bytes");
    c.rep.metric("bvh.treelets", treelets, "count");
}

// ---- traced-only measurements ----------------------------------------

/** Warm bundle loads from disk (fresh process, so the in-process cache
 *  is empty). */
double
loadBundles(Ctx &c, const std::vector<std::string> &workloads)
{
    auto t0 = Clock::now();
    for (const BundleKey &k : bundlesOf(workloads)) {
        Tracer::Scope s(c.tracer, "harness.getSceneBundle");
        bundle(k);
    }
    return secondsSince(t0);
}

/** Bvh::intersectClosest over a seeded camera-ray set of the farm
 *  scenes at both widths; the two widths must agree on every hit. */
void
traversal(Ctx &c, Pcg32 &rng)
{
    const Workload &w = workload("farm_sweep");
    double ns[2] = {0, 0};
    uint64_t n = 0;
    for (const std::string &scene : w.scenes) {
        std::vector<Ray> rays(kTraverseRays);
        const SceneBundle &b4 = bundle({scene, w.scale, 4});
        for (Ray &r : rays)
            r = b4.scene.camera.generateRay(rng.nextBounded(w.res),
                                            rng.nextBounded(w.res), w.res,
                                            w.res);
        std::vector<HitRecord> hits[2];
        for (int k = 0; k < 2; k++) {
            uint32_t width = k ? 8 : 4;
            const SceneBundle &b = bundle({scene, w.scale, width});
            hits[k].resize(rays.size());
            Tracer::Scope s(c.tracer,
                            "bvh.intersectClosest.w" + std::to_string(width));
            auto t0 = Clock::now();
            for (size_t i = 0; i < rays.size(); i++)
                hits[k][i] = b.bvh.intersectClosest(rays[i]);
            ns[k] += secondsSince(t0) * 1e9;
        }
        bool same = true;
        for (size_t i = 0; i < rays.size(); i++)
            same = same && hits[0][i].t == hits[1][i].t &&
                   hits[0][i].triIndex == hits[1][i].triIndex;
        c.rep.check(same, "width-4 and width-8 hits agree on " + scene);
        n += rays.size();
    }
    c.rep.metric("bvh.traverse_ns_per_ray.w4", ns[0] / double(n), "ns");
    c.rep.metric("bvh.traverse_ns_per_ray.w8", ns[1] / double(n), "ns");
}

/** Store and reload every cold-sweep result through the run cache. */
void
runCacheProbe(Ctx &c, const FarmPass &p)
{
    setRunCache(true);
    double storeS = 0, loadS = 0, bytes = 0;
    for (const JobRecord &r : p.cold.jobs) {
        auto t0 = Clock::now();
        {
            Tracer::Scope s(c.tracer, "run_cache.store");
            storeCachedRun(r.fingerprint, r.spec.scene, r.stats);
        }
        auto t1 = Clock::now();
        RunStats back;
        bool ok;
        {
            Tracer::Scope s(c.tracer, "run_cache.load");
            ok = loadCachedRun(r.fingerprint, r.spec.scene, back);
        }
        loadS += secondsSince(t1);
        storeS += std::chrono::duration<double>(t1 - t0).count();
        c.rep.check(ok && RunStatsIo::fingerprint(back) ==
                              RunStatsIo::fingerprint(r.stats),
                    "run-cache round trip " + r.spec.label());
    }
    std::error_code ec;
    for (const auto &e : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(c.cache) / "runs", ec))
        if (e.is_regular_file())
            bytes += double(e.file_size());
    double n = double(std::max<size_t>(p.cold.jobs.size(), 1));
    c.rep.metric("run_cache.store_ms", storeS * 1e3 / n, "ms");
    c.rep.metric("run_cache.load_ms", loadS * 1e3 / n, "ms");
    c.rep.metric("run_cache.blob_bytes", bytes / n, "bytes");
}

/** CRNVL baseline with telemetry on against off, one tick thread,
 *  alternating, median of each. */
double
telemetryOverheadPct(Ctx &c)
{
    const Workload &w = workload("crnvl_hires");
    const std::string &scene = w.scenes.front();
    setRunCache(false);
    GpuConfig cfg =
        makeSpec(scene, w.scale, w.res, "baseline", 4, false).gpuConfig();
    std::vector<double> on, off;
    uint64_t fp[2] = {0, 0};
    for (int rep = 0; rep < 2; rep++) {
        for (int telem = 0; telem < 2; telem++) {
            HarnessOptions opt;
            opt.resolution = w.res;
            opt.sceneScale = w.scale;
            opt.scenes = w.scenes;
            opt.simThreads = 1;
            opt.telem.enabled = telem;
            opt.telem.outDir = c.work + "/telemetry";
            Tracer::Scope s(c.tracer, telem ? "gpu.runScene.telemetry_on"
                                            : "gpu.runScene.telemetry_off");
            auto t0 = Clock::now();
            RunStats st = runScene(scene, cfg, opt);
            (telem ? on : off).push_back(secondsSince(t0));
            fp[telem] = RunStatsIo::fingerprint(st);
        }
    }
    c.rep.check(fp[0] == fp[1], "telemetry leaves RunStats unchanged");
    return (median(on) / median(off) - 1) * 100;
}

/** Σ host time of @p configs simulated with one tick thread. */
double
oneThreadTime(const std::vector<Sim> &sims)
{
    double t = 0;
    for (const Sim &s : sims) {
        const SceneBundle &b = getSceneBundle(s.spec.scene, s.spec.scale);
        GpuConfig g = s.spec.gpuConfig();
        g.simThreads = 1;
        auto t0 = Clock::now();
        simulate(g, b.scene, b.bvh);
        t += secondsSince(t0);
    }
    return t;
}

// ---- modes -----------------------------------------------------------

void
reportPeakRss(Report &rep)
{
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    rep.metric("peak_rss_mb",
               double(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0,
               "MB");
}

/** End-to-end run: repeat the workload's pass for @p seconds. */
void
runTimed(Ctx &c, double seconds)
{
    Pcg32 rng(c.seed);
    const std::string &wn = c.w->name;
    if (wn != "farm_sweep") {
        // Bundles come from the setup's disk cache, outside the clock.
        for (const BundleKey &k : bundlesOf({wn}))
            bundle(k);
    }
    std::vector<double> walls;
    FarmPass lastFarm;
    auto t0 = Clock::now();
    do {
        if (wn == "fig10_suite")
            walls.push_back(runSuite(c, rng).wallS);
        else if (wn == "crnvl_hires")
            walls.push_back(runHires(c).wallS);
        else {
            lastFarm = runFarmPass(c, rng);
            walls.push_back(lastFarm.wallS);
        }
    } while (secondsSince(t0) < seconds);
    if (wn == "farm_sweep")
        crossCheckFarm(c, lastFarm, rng);
    c.rep.check(harnessTiming().bundleCacheMisses == 0,
                "no bundle was built outside setup");
    c.rep.metric("wall_s", median(walls), "s");
    c.passWalls = walls;
    reportPeakRss(c.rep);
}

/** Traced run: every workload's pass once, with spans. */
void
runTraced(Ctx &c)
{
    Report &rep = c.rep;
    Pcg32 rng(c.seed);
    const std::string &wn = c.w->name;
    LayerStats ls;

    // Untraced reference pass of the requested workload; the farm's
    // goes first so no worker inherits bundles loaded in this process.
    double untraced = 0;
    c.tracer.setOn(false);
    if (wn == "farm_sweep") {
        Pcg32 r(c.seed);
        untraced = runFarmPass(c, r).wallS;
    }
    c.tracer.setOn(true);

    Pcg32 farmOrder(c.seed);
    FarmPass fp = runFarmPass(c, farmOrder);
    double loadS = loadBundles(c, kWorkloads);
    crossCheckFarm(c, fp, rng);
    runCacheProbe(c, fp);

    c.tracer.setOn(false);
    if (wn == "fig10_suite") {
        Pcg32 r(c.seed);
        untraced = runSuite(c, r).wallS;
    } else if (wn == "crnvl_hires") {
        untraced = runHires(c).wallS;
    }
    c.tracer.setOn(true);

    Pcg32 suiteOrder(c.seed);
    SuitePass sp = runSuite(c, suiteOrder);
    HiresPass hp = runHires(c);

    double traced = wn == "fig10_suite"   ? sp.wallS
                    : wn == "crnvl_hires" ? hp.wallS
                                          : fp.wallS;

    // gpu.<cfg>: every full simulation of the traced passes.
    for (const Sim &s : sp.sims)
        ls.addSim(s.spec.config, s.wallS, s.stats);
    for (const Sim &s : hp.full)
        ls.addSim(s.spec.config, s.wallS, s.stats);
    std::vector<double> jobS;
    double jobSum = 0;
    for (const JobRecord &r : fp.cold.jobs) {
        ls.addSim(r.spec.config, double(r.wallMs) / 1e3, r.stats);
        jobS.push_back(double(r.wallMs) / 1e3);
        jobSum += double(r.wallMs) / 1e3;
    }

    // Harness layer.
    rep.metric("harness.bundle_load_s", loadS, "s");
    double simSum = 0;
    for (const Sim &s : sp.sims)
        simSum += s.wallS;
    rep.metric("harness.scene_par_eff", simSum / (nproc() * sp.wallS),
               "ratio");

    // Simulator core, per configuration.
    for (const char *cfg :
         {"baseline", "prefetch", "vtq", "reorder", "predict"}) {
        const CfgTime &t = ls.gpu[cfg];
        std::string base = std::string("gpu.") + cfg;
        rep.metric(base + ".sim_s", t.simS, "s");
        rep.metric(base + ".ns_per_cycle",
                   t.simS * 1e9 / std::max(t.cycles, 1.0), "ns");
        rep.metric(base + ".ns_per_ray",
                   t.simS * 1e9 / std::max(t.rays, 1.0), "ns");
    }
    for (const char *name :
         {"rt.nodeVisits", "rt.isectTests.initial",
          "rt.isectTests.treelet_stationary", "rt.isectTests.ray_stationary",
          "rt.treeletSwitches", "mem.bvh_node.l1Misses",
          "mem.bvh_node.l2Misses"})
        rep.metric(name, ls.counters[name], "count");

    // sim_pool: one tick thread against the harness default, CRNVL.
    double hiresFull = 0;
    for (const Sim &s : hp.full)
        hiresFull += s.wallS;
    double oneThread;
    {
        Tracer::Scope s(c.tracer, "gpu.simulate.one_thread");
        oneThread = oneThreadTime(hp.full);
    }
    rep.metric("sim_pool.speedup", oneThread / hiresFull, "ratio");

    auto vtqNsPerRay = [](const std::vector<Sim> &sims) {
        double s = 0, rays = 0;
        for (const Sim &x : sims)
            if (x.spec.config == "vtq") {
                s += x.wallS;
                rays += double(x.stats.raysTraced);
            }
        return s * 1e9 / std::max(rays, 1.0);
    };
    rep.metric("vtq.ns_per_ray_growth",
               vtqNsPerRay(hp.full) / vtqNsPerRay(sp.sims), "ratio");

    // Sampled estimator on CRNVL.
    double sampledS = 0, err = 0, ci = 0, detail = 1, covers = 1;
    for (size_t i = 0; i < hp.sampled.size(); i++) {
        const RunStats &full = hp.full[i].stats;
        const RunStats &smp = hp.sampled[i].stats;
        sampledS += hp.sampled[i].wallS;
        double diff = std::fabs(double(smp.cycles) - double(full.cycles));
        err = std::max(err, diff / double(full.cycles) * 100);
        ci = std::max(ci, smp.sampled.cyclesCi95 / double(smp.cycles) * 100);
        detail = std::min(
            detail, 1.0 - double(smp.sampled.ffRays) /
                              double(std::max<uint64_t>(
                                  smp.sampled.totalRays, 1)));
        covers = std::min(covers, diff <= smp.sampled.cyclesCi95 ? 1.0 : 0.0);
    }
    rep.metric("sampled.sim_s", sampledS, "s");
    rep.metric("sampled.speedup", hiresFull / sampledS, "ratio");
    rep.metric("sampled.detail_frac", detail, "ratio");
    rep.metric("sampled.ci95_pct", ci, "%");
    rep.metric("sampled.ci_covers_full", covers, "bool");
    rep.metric("sampled.err_pct", err, "%");

    // Run cache and farm.
    rep.metric("run_cache.hits", fp.cold.cached + fp.warm.cached, "count");
    rep.metric("run_cache.misses", fp.cold.simulated + fp.warm.simulated,
               "count");
    rep.metric("run_cache.warm_sweep_s", fp.warmS, "s");
    rep.metric("farm.job_s.p50", percentile(jobS, 0.5), "s");
    rep.metric("farm.job_s.p90", percentile(jobS, 0.9), "s");
    rep.metric("farm.overhead_s",
               fp.coldS - jobSum / double(std::max(nproc(), 1u)), "s");
    rep.metric("farm.retries", fp.cold.retries + fp.warm.retries, "count");
    rep.metric("farm.worker_crashes",
               fp.cold.workerCrashes + fp.warm.workerCrashes, "count");
    rep.metric("farm.jobs_per_hour",
               double(fp.cold.jobs.size()) * 3600 / fp.coldS, "1/h");

    traversal(c, rng);
    rep.metric("telemetry.overhead_pct", telemetryOverheadPct(c), "%");
    rep.metric("trace.overhead_s", traced - untraced, "s");
    rep.metric("trace.spans", double(c.tracer.spans().size()), "count");
}

void
writeJson(const std::string &path, const Ctx &c)
{
    std::ostringstream os;
    auto num = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    os << "{\"attempted\": " << c.rep.attempted
       << ", \"failed\": " << c.rep.failed << ", \"metrics\": {";
    bool first = true;
    auto put = [&](const std::string &name, double v, const std::string &u) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << num(v) << ", \"unit\": \"" << u << "\"}";
        first = false;
    };
    for (const Metric &m : c.rep.metrics)
        put(m.name, m.value, m.unit);
    if (c.tracer.on())
        for (const auto &[layer, s] : c.tracer.selfTimeByLayer())
            put(layer + ".self_s", s, "s");
    os << "}, \"build\": {\"compiler\": \"" << __VERSION__
       << "\", \"threads\": " << nproc() << "}, \"pass_walls\": [";
    for (size_t i = 0; i < c.passWalls.size(); i++)
        os << (i ? ", " : "") << num(c.passWalls[i]);
    os << "], \"spans\": [";
    const auto &spans = c.tracer.spans();
    for (size_t i = 0; i < spans.size(); i++)
        os << (i ? ", " : "") << "{\"id\": " << i << ", \"name\": \""
           << spans[i].name << "\", \"start\": " << num(spans[i].start)
           << ", \"end\": " << num(spans[i].end)
           << ", \"parent\": " << spans[i].parent << "}";
    os << "]}\n";
    std::ofstream out(path);
    out << os.str();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** Drop every TRT_* knob the caller's environment may carry: the
 *  workloads set exactly what they measure. */
void
scrubEnvironment(const std::string &cache)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; e++) {
        std::string kv = *e;
        if (kv.rfind("TRT_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    ::setenv("TRT_CACHE", cache.c_str(), 1);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench setup|run --workload W --cache DIR "
                 "--out FILE [--seed N] [--seconds S] [--trace 0|1] "
                 "[--goldens FILE] [--record-goldens FILE] "
                 "[--plant-mismatch]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> args;
    bool plant = false;
    for (int i = 2; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--plant-mismatch")
            plant = true;
        else if (a.rfind("--", 0) == 0 && i + 1 < argc)
            args[a.substr(2)] = argv[++i];
        else
            return usage();
    }
    if ((mode != "setup" && mode != "run") || !args.count("workload") ||
        !args.count("cache") || !args.count("out"))
        return usage();

    try {
        Ctx c;
        bool traced = args["trace"] == "1";
        std::string wn = args["workload"];
        c.w = &workload(wn);
        c.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
        c.cache = args["cache"];
        c.work = c.cache + "/work";
        scrubEnvironment(c.cache);
        c.tracer.setOn(traced);

        if (mode == "setup") {
            runSetup(c, traced ? kWorkloads : std::vector<std::string>{wn});
        } else {
            bool record = args.count("record-goldens");
            Goldens g(args["goldens"], record, plant);
            c.goldens = &g;
            if (traced)
                runTraced(c);
            else
                runTimed(c, std::stod(args.count("seconds") ? args["seconds"]
                                                            : "1"));
            if (record)
                g.write(args["record-goldens"]);
        }
        writeJson(args["out"], c);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
        return 1;
    }
    return 0;
}
