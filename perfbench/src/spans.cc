#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "host.hh"

namespace perfbench {

namespace {

/** Per-thread cap (~40 MiB of records) before spans are dropped. */
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

std::atomic<bool> g_recording{true};

struct ThreadBuffer
{
    std::uint16_t thread = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> open; ///< ids of the open span stack
    std::vector<SpanRecord> closed;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::vector<std::string> labels;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buf = nullptr;
    if (!buf) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<ThreadBuffer>());
        buf = r.buffers.back().get();
        buf->thread = static_cast<std::uint16_t>(r.buffers.size() - 1);
    }
    return *buf;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setRecording(bool on)
{
    g_recording.store(on, std::memory_order_relaxed);
}

std::uint16_t
internLabel(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < r.labels.size(); ++i)
        if (r.labels[i] == name)
            return static_cast<std::uint16_t>(i);
    r.labels.push_back(name);
    return static_cast<std::uint16_t>(r.labels.size() - 1);
}

const std::string &
labelName(std::uint16_t label)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.labels.at(label);
}

Span::Span(std::uint16_t label, std::uint32_t lanes)
{
    if (!g_recording.load(std::memory_order_relaxed))
        return;
    active_ = true;
    ThreadBuffer &buf = localBuffer();
    rec_.id = (std::uint64_t{buf.thread} << 48) | buf.nextSeq++;
    rec_.parent = buf.open.empty() ? 0 : buf.open.back();
    rec_.label = label;
    rec_.thread = buf.thread;
    rec_.lanes = lanes;
    buf.open.push_back(rec_.id);
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!active_)
        return;
    rec_.endNs = nowNs();
    ThreadBuffer &buf = localBuffer();
    buf.open.pop_back();
    if (buf.closed.size() < kMaxSpansPerThread)
        buf.closed.push_back(rec_);
    else
        ++buf.dropped;
}

std::vector<SpanRecord>
collectSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::size_t total = 0;
    for (auto &buf : r.buffers)
        total += buf->closed.size();
    std::vector<SpanRecord> out;
    out.reserve(total);
    for (auto &buf : r.buffers) {
        out.insert(out.end(), buf->closed.begin(), buf->closed.end());
        std::vector<SpanRecord>().swap(buf->closed); // release the memory
    }
    return out;
}

std::uint64_t
droppedSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::uint64_t total = 0;
    for (auto &buf : r.buffers)
        total += buf->dropped;
    return total;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const std::vector<SpanRecord> *> &parts,
                 std::size_t cap)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::vector<const SpanRecord *> spans;
    std::size_t total = 0;
    for (const auto *part : parts) {
        total += part->size();
        for (const SpanRecord &s : *part)
            if (spans.size() < cap)
                spans.push_back(&s);
    }
    std::uint64_t origin = ~std::uint64_t{0};
    for (const SpanRecord *s : spans)
        origin = std::min(origin, s->startNs);
    os << "{\"traceEvents\":[\n";
    const std::size_t n = spans.size();
    for (std::size_t i = 0; i < n; ++i) {
        const SpanRecord &s = *spans[i];
        const std::uint64_t start = s.startNs >= origin ? s.startNs - origin : 0;
        os << (i ? ",\n" : "") << "{\"name\":" << quoted(labelName(s.label))
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << start / 1000.0 << ",\"dur\":"
           << s.durNs() / 1000.0 << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"lanes\":" << s.lanes
           << "}}";
    }
    os << "\n],\"truncated\":" << (total - n) << "}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench
