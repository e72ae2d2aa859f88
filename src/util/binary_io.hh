/**
 * @file
 * Native-endian binary stream helpers shared by the on-disk formats
 * (run-cache blobs, BVH and scene-bundle files): raw trivially-copyable
 * values and length-prefixed vectors.
 *
 * readVec() checks a length prefix against the bytes the stream still
 * holds before it allocates, so a corrupt or hostile file can never ask
 * for more memory than its own size.
 */

#ifndef TRT_UTIL_BINARY_IO_HH
#define TRT_UTIL_BINARY_IO_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

namespace trt
{

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
readPod(std::istream &is, T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return bool(is);
}

/** Bytes between the read position of @p is and its end; UINT64_MAX
 *  when the stream cannot seek. */
inline uint64_t
bytesLeft(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return UINT64_MAX;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || end < here)
        return UINT64_MAX;
    return uint64_t(end - here);
}

/** uint64 element count, then the elements. */
template <typename T>
void
writeVec(std::ostream &os, const std::vector<T> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = v.size();
    writePod(os, n);
    if (n)
        os.write(reinterpret_cast<const char *>(v.data()),
                 std::streamsize(n * sizeof(T)));
}

/** Inverse of writeVec(); false, with nothing allocated, when the
 *  length prefix exceeds 2^32 elements or the bytes left in @p is. */
template <typename T>
bool
readVec(std::istream &is, std::vector<T> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    if (!readPod(is, n) || n > (1ull << 32) ||
        n * sizeof(T) > bytesLeft(is))
        return false;
    v.resize(n);
    if (n)
        is.read(reinterpret_cast<char *>(v.data()),
                std::streamsize(n * sizeof(T)));
    return bool(is);
}

} // namespace trt

#endif // TRT_UTIL_BINARY_IO_HH
