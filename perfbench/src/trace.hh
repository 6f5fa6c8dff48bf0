/**
 * @file
 * In-memory wall-clock span recorder for the benchmark's traced runs.
 *
 * A span is one call into a library layer, timed from the benchmark's
 * side of the API: name, start, end, the span that was open when it
 * began (its parent), and the grid point it belongs to.  Spans stay
 * in memory while the run measures and are written out as a Chrome
 * trace_event file when it ends.  Untraced passes pass a null Tracer,
 * so they pay one pointer test per span site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    const char *name = ""; ///< a string literal: the layer's span name
    double start = 0.0;    ///< seconds since the tracer's epoch
    double end = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 at top
    int64_t point = -1;    ///< grid point id, -1 outside a point
};

class Tracer
{
  public:
    Tracer();

    /** Open a span; `point` -1 inherits the parent's point. */
    int begin(const char *name, int64_t point = -1);

    /** Close the span `begin` returned (must be the innermost). */
    void end(int id);

    /** Spans recorded so far (the next span's index). */
    size_t mark() const { return spans_.size(); }

    /** Drop spans recorded after `mark` (none may be open). */
    void truncate(size_t mark);

    /** Summed duration of spans called `name` recorded after `from`. */
    double total(const char *name, size_t from) const;

    /** Write every recorded span as a Chrome trace_event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int64_t point = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, point) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
