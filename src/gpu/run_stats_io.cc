#include "gpu/run_stats_io.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "geom/hash.hh"
#include "telemetry/counter_registry.hh"
#include "util/binary_io.hh"

namespace trt
{

namespace
{

constexpr uint32_t kMagic = 0x54525452u; // 'TRTR'

// Counters are written field by field in counter-registry order (not
// as one struct) so that uninitialized padding between the uint32
// high-water fields never reaches the file: cache blobs stay
// byte-deterministic, and every registered counter round-trips by
// construction (v4; telemetry/counter_registry.hh).
void
writeCounters(std::ostream &os, const RunStats &st)
{
    forEachRunCounter(st, [&](const CounterInfo &, const auto &v) {
        writePod(os, v);
    });
}

bool
readCounters(std::istream &is, RunStats &st)
{
    bool ok = true;
    forEachRunCounter(st, [&](const CounterInfo &, auto &v) {
        ok = ok && readPod(is, v);
    });
    return ok;
}

} // anonymous namespace

void
RunStatsIo::save(std::ostream &os, const RunStats &st)
{
    writePod(os, kMagic);
    writePod(os, kVersion);

    writePod(os, st.cycles);
    writeVec(os, st.framebuffer);
    // Every scalar counter (RT, per-class memory, GPU-level) in
    // registry order; MemClassStats stays all-uint64 so the per-field
    // walk writes the same bytes a whole-struct write would.
    static_assert(sizeof(MemClassStats) == 8 * sizeof(uint64_t));
    writeCounters(os, st);
    writePod(os, st.bvhL1MissRate);
    writeVec(os, st.bvhMissSeries);
    writeVec(os, st.primaryHits);

    // v2: sampled-run summary (all zeros for full runs).
    writePod(os, uint8_t(st.sampled.enabled ? 1 : 0));
    writePod(os, st.sampled.intervals);
    writePod(os, st.sampled.measuredCycles);
    writePod(os, st.sampled.measuredRounds);
    writePod(os, st.sampled.totalRays);
    writePod(os, st.sampled.ffRays);
    writePod(os, st.sampled.cyclesCi95);
    writeVec(os, st.sampled.counterCi95);
}

bool
RunStatsIo::load(std::istream &is, RunStats &st)
{
    uint32_t magic = 0, version = 0;
    if (!readPod(is, magic) || !readPod(is, version))
        return false;
    if (magic != kMagic || version != kVersion)
        return false;

    if (!(readPod(is, st.cycles) && readVec(is, st.framebuffer) &&
          readCounters(is, st) && readPod(is, st.bvhL1MissRate) &&
          readVec(is, st.bvhMissSeries) && readVec(is, st.primaryHits)))
        return false;

    uint8_t sampled_enabled = 0;
    if (!(readPod(is, sampled_enabled) &&
          readPod(is, st.sampled.intervals) &&
          readPod(is, st.sampled.measuredCycles) &&
          readPod(is, st.sampled.measuredRounds) &&
          readPod(is, st.sampled.totalRays) &&
          readPod(is, st.sampled.ffRays) &&
          readPod(is, st.sampled.cyclesCi95) &&
          readVec(is, st.sampled.counterCi95)))
        return false;
    st.sampled.enabled = sampled_enabled != 0;

    // The blob must end exactly here; trailing bytes mean a schema skew
    // that kVersion failed to catch.
    return is.peek() == std::istream::traits_type::eof();
}

uint64_t
RunStatsIo::fingerprint(const RunStats &st)
{
    // Hash the exact serialized form: anything save() covers is covered
    // here, and padding can never leak in (save() writes field by
    // field).
    std::ostringstream os(std::ios::binary);
    save(os, st);
    std::string bytes = os.str();
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    return h.value();
}

} // namespace trt
