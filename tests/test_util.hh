/**
 * @file
 * Helpers shared by the test binaries: private scratch directories,
 * scoped environment variables and the process's peak memory.
 *
 * ctest runs every test as its own process, many at once, so a fixed
 * path under the temp root would let one test delete another's files.
 * Each TempDir is a fresh mkdtemp directory instead, removed when it
 * goes out of scope.
 */

#ifndef TRT_TESTS_TEST_UTIL_HH
#define TRT_TESTS_TEST_UTIL_HH

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace trt
{

/** Unique directory under the system temp root, removed on scope
 *  exit by the process that made it (a forked child leaves it). */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            ("trt_" + tag + "_XXXXXX"))
                               .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data()))
            throw std::runtime_error("mkdtemp failed for " + tmpl);
        path_ = buf.data();
    }

    ~TempDir()
    {
        if (::getpid() != owner_)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }
    std::string sub(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
    pid_t owner_ = ::getpid();
};

/** This process's scratch root, created on first use and removed at
 *  exit. Per-name helpers below it are private to the process. */
inline const TempDir &
processTempDir()
{
    static const TempDir dir("test");
    return dir;
}

/** Empty directory @p name under processTempDir(). */
inline std::filesystem::path
freshTestDir(const std::string &name)
{
    std::filesystem::path p = processTempDir().sub(name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p;
}

/** RAII environment variable setter. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        setenv(name, value, 1);
    }

    ~EnvGuard()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    std::string name_, old_;
    bool had_ = false;
};

/** This process's peak resident set size in KB. */
inline long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

} // namespace trt

#endif // TRT_TESTS_TEST_UTIL_HH
