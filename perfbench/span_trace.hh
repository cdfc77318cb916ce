/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer: name, start, end (ns since the
 * recorder was created) and the id of the span that caused it. Spans
 * stay in memory while the benchmark runs and are written out once, at
 * the end, so tracing never does I/O inside the measured phase. Self
 * time (a span's duration minus the time its children cover) is derived
 * from these records afterwards.
 *
 * When the recorder is disabled, opening and closing a span is one
 * branch; the benchmark's untraced runs construct it disabled.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanRecorder
{
  public:
    struct Span
    {
        /** Static string naming the layer call ("platform.arm", ...). */
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        /** Index of the causing span, or -1 for a top-level span. */
        std::int32_t parent = -1;
        /** Small per-process thread number (0 = first thread seen). */
        std::uint32_t thread = 0;
    };

    explicit SpanRecorder(bool enabled) : on(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return on; }

    /** Open a span; returns its id (-1 when disabled). */
    std::int32_t open(const char *name, std::int32_t parent)
    {
        if (!on)
            return -1;
        const std::int64_t now = nowNs();
        const std::lock_guard<std::mutex> lock(mutex);
        Span span;
        span.name = name;
        span.startNs = now;
        span.parent = parent;
        span.thread = threadNumber();
        spans.push_back(span);
        return std::int32_t(spans.size() - 1);
    }

    void close(std::int32_t id)
    {
        if (id < 0)
            return;
        const std::int64_t now = nowNs();
        const std::lock_guard<std::mutex> lock(mutex);
        spans[std::size_t(id)].endNs = now;
    }

    /** Finished spans (call once every worker has joined). */
    const std::vector<Span> &all() const { return spans; }

    /** Durations (ms) of every closed span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans) {
            if (s.endNs >= 0 && name == s.name)
                out.push_back(double(s.endNs - s.startNs) * 1e-6);
        }
        return out;
    }

    /** Summed duration (s) of the closed top-level spans. */
    double topLevelSeconds() const
    {
        double total = 0.0;
        for (const Span &s : spans) {
            if (s.parent < 0 && s.endNs >= 0)
                total += double(s.endNs - s.startNs) * 1e-9;
        }
        return total;
    }

    /**
     * Total self time (ms) per span name: each span's duration minus
     * the part covered by its children. Children of one span never
     * overlap on its own thread; pool tasks (children on other threads)
     * can, so their summed time is capped at the parent's duration.
     */
    std::map<std::string, double> selfMs() const
    {
        std::vector<std::int64_t> childNs(spans.size(), 0);
        for (const Span &s : spans) {
            if (s.parent >= 0 && s.endNs >= 0)
                childNs[std::size_t(s.parent)] += s.endNs - s.startNs;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.endNs < 0)
                continue;
            const std::int64_t own = s.endNs - s.startNs;
            out[s.name] +=
                double(own - std::min(own, childNs[i])) * 1e-6;
        }
        return out;
    }

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (!file)
            return false;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(file,
                         "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"parent\":%d,\"thread\":%u}\n",
                         i, s.name, (long long)s.startNs,
                         (long long)s.endNs, int(s.parent), s.thread);
        }
        return std::fclose(file) == 0;
    }

  private:
    bool on;
    Clock::time_point origin = Clock::now();
    std::mutex mutex;
    std::vector<Span> spans; // guarded by mutex
    std::vector<std::thread::id> threads; // guarded by mutex

    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    std::uint32_t threadNumber()
    {
        const std::thread::id self = std::this_thread::get_id();
        for (std::size_t i = 0; i < threads.size(); ++i) {
            if (threads[i] == self)
                return std::uint32_t(i);
        }
        threads.push_back(self);
        return std::uint32_t(threads.size() - 1);
    }
};

/**
 * RAII span. The default parent is the innermost open span of the
 * calling thread; pool tasks pass their batch span explicitly.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name)
        : ScopedSpan(recorder, name, current())
    {
    }

    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::int32_t parent)
        : rec(recorder), id_(recorder.open(name, parent)),
          saved(current())
    {
        if (id_ >= 0)
            current() = id_;
    }

    ~ScopedSpan()
    {
        if (id_ >= 0) {
            rec.close(id_);
            current() = saved;
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t id() const { return id_; }

  private:
    SpanRecorder &rec;
    std::int32_t id_;
    std::int32_t saved;

    static std::int32_t &current()
    {
        thread_local std::int32_t innermost = -1;
        return innermost;
    }
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
