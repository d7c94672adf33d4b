/**
 * @file
 * Benchmark-side span recorder. Spans are kept per thread in memory
 * (a plain vector append, no shared atomics on the hot path), parented
 * to the innermost open span of the same thread, and collected by the
 * main thread while the workers are idle. Nothing here touches the
 * library's own obs:: timing, so traced runs measure the program as
 * users run it plus only this recorder's cost.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
std::uint64_t nowNs();

/** One closed span. Ids are unique per process; parent 0 = root. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t lanes = 1; ///< work items covered (batch lanes)
    std::uint16_t label = 0;
    std::uint16_t thread = 0;

    std::uint64_t durNs() const { return endNs - startNs; }
};

/**
 * Turn span recording on or off (default on). Spans opened while it is
 * off record nothing, so untraced runs keep no span memory.
 */
void setRecording(bool on);

/** Intern @p name as a span label id (thread-safe, call off the hot path). */
std::uint16_t internLabel(const std::string &name);
const std::string &labelName(std::uint16_t label);

/**
 * RAII span on the calling thread. Construction pushes it as the
 * parent of spans opened before its destruction.
 */
class Span
{
  public:
    explicit Span(std::uint16_t label, std::uint32_t lanes = 1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecord rec_;
    bool active_ = false;
};

/**
 * Move every thread's closed spans out of the per-thread buffers.
 * Call only while no other thread is recording (between engine
 * calls, after they returned).
 */
std::vector<SpanRecord> collectSpans();

/** Spans discarded past the per-thread memory cap. */
std::uint64_t droppedSpans();

/**
 * Write the spans of @p parts, in order and at most @p cap of them, as
 * a chrome://tracing JSON file. Returns false when it cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const std::vector<SpanRecord> *> &parts,
                      std::size_t cap);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
