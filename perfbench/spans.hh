/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is (name, start, end, parent) around one call from the
 * benchmark into a simulator layer; the layer is the name's prefix up
 * to the first '.'. Spans stay in memory until the run ends. A layer's
 * self time is the span duration minus the part of it that child spans
 * cover (children of a parallel section overlap, so the covered part
 * is the union of their intervals, not the sum).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int64_t parent = -1;
    };

    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }
    /** Switch recording; only while no span is open. */
    void setOn(bool on) { on_ = on; }

    /** The innermost open span of the calling thread (-1: none). */
    static int64_t current() { return tlsCurrent(); }

    /** RAII span; @p parent defaults to the calling thread's innermost
     *  open span (pass it explicitly inside worker threads). */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, int64_t parent = current())
            : t_(t), saved_(tlsCurrent())
        {
            if (!t_.on_)
                return;
            std::lock_guard<std::mutex> lk(t_.mtx_);
            id_ = int64_t(t_.spans_.size());
            t_.spans_.push_back({std::move(name), t_.now(), 0, parent});
            tlsCurrent() = id_;
        }
        ~Scope()
        {
            if (id_ < 0)
                return;
            double end = t_.now();
            std::lock_guard<std::mutex> lk(t_.mtx_);
            t_.spans_[size_t(id_)].end = end;
            tlsCurrent() = saved_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int64_t saved_;
        int64_t id_ = -1;
    };

    /** Σ duration of every span named @p name. */
    double total(const std::string &name) const
    {
        double s = 0;
        for (const Span &sp : spans_)
            if (sp.name == name)
                s += sp.end - sp.start;
        return s;
    }

    /** Self time summed per layer (name prefix before the first '.'). */
    std::map<std::string, double> selfTimeByLayer() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &sp : spans_)
            if (sp.parent >= 0)
                kids[size_t(sp.parent)].push_back({sp.start, sp.end});
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &sp = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0, lo = 0, hi = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, sp.start);
                b = std::min(b, sp.end);
                if (b <= a)
                    continue;
                if (a > hi) {
                    covered += std::max(0.0, hi - lo);
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += std::max(0.0, hi - lo);
            self[sp.name.substr(0, sp.name.find('.'))] +=
                (sp.end - sp.start) - covered;
        }
        return self;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    static int64_t &tlsCurrent()
    {
        thread_local int64_t cur = -1;
        return cur;
    }
    double now() const { return secondsSince(epoch_); }

    bool on_;
    Clock::time_point epoch_;
    std::mutex mtx_; // Guards spans_.
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
