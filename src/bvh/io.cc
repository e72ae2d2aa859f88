#include "bvh/io.hh"

#include <cstdint>

#include "util/binary_io.hh"

namespace trt
{

namespace
{

/** Stream magic/version: load() rejects anything else up front, so a
 *  truncated or stale cache file can never deserialize into garbage
 *  vectors. v2: explicit header + BVH width (8-wide backend). */
constexpr uint32_t kBvhIoMagic = 0x54425648u; // 'TBVH'
constexpr uint32_t kBvhIoVersion = 2;

} // anonymous namespace

void
BvhIo::save(std::ostream &os, const Bvh &bvh)
{
    writePod(os, kBvhIoMagic);
    writePod(os, kBvhIoVersion);
    writePod(os, int32_t(bvh.width_));
    writePod(os, bvh.nodeBytes_);
    writeVec(os, bvh.nodes_);
    writeVec(os, bvh.tris_);
    writeVec(os, bvh.triOrig_);
    writePod(os, bvh.rootBounds_);
    writeVec(os, bvh.nodeTreelet_);
    writeVec(os, bvh.treeletNodes_);
    writeVec(os, bvh.treeletBytes_);
    writeVec(os, bvh.treeletAddr_);
    writeVec(os, bvh.treeletDepth_);
    writeVec(os, bvh.nodeAddr_);
    writeVec(os, bvh.triAddr_);
    writePod(os, bvh.totalBytes_);
}

bool
BvhIo::load(std::istream &is, Bvh &bvh)
{
    uint32_t magic = 0, version = 0;
    int32_t width = 0;
    if (!readPod(is, magic) || magic != kBvhIoMagic ||
        !readPod(is, version) || version != kBvhIoVersion ||
        !readPod(is, width) ||
        (width != kBvhWidth && width != kMaxBvhWidth) ||
        !readPod(is, bvh.nodeBytes_) ||
        (bvh.nodeBytes_ != kNodeBytes &&
         bvh.nodeBytes_ != kCompressedNodeBytes &&
         bvh.nodeBytes_ != kCompressedNode8Bytes)) {
        return false;
    }
    bvh.width_ = width;
    bool ok =
        readVec(is, bvh.nodes_) && readVec(is, bvh.tris_) &&
        readVec(is, bvh.triOrig_) && readPod(is, bvh.rootBounds_) &&
        readVec(is, bvh.nodeTreelet_) &&
        readVec(is, bvh.treeletNodes_) &&
        readVec(is, bvh.treeletBytes_) &&
        readVec(is, bvh.treeletAddr_) &&
        readVec(is, bvh.treeletDepth_) && readVec(is, bvh.nodeAddr_) &&
        readVec(is, bvh.triAddr_) && readPod(is, bvh.totalBytes_);
    if (ok) {
        // The SoA kernel mirror is derived, not serialized.
        bvh.buildPackedBounds(1);
    }
    return ok;
}

} // namespace trt
