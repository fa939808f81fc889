/**
 * @file
 * Spans for the traced round: one host-time interval per call into a
 * layer, recorded from the benchmark's side of the call. Spans are
 * kept in memory and written out when the benchmark ends.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** What a span's Ssd::submit call did, from its counter deltas. */
enum class SubmitKind : uint8_t
{
    None,          ///< Not a submit span.
    Read,          ///< Read request.
    BufferedWrite, ///< Write absorbed by the write buffer.
    Flush,         ///< Write that flushed the buffer (and compacted).
    Gc,            ///< Flush that also ran GC.
    Compaction,    ///< Compaction without a flush.
};

/** One host-time interval around a call into a layer. */
struct Span
{
    uint32_t name;
    SubmitKind kind;
    /** Index of the enclosing span, or kNoParent. */
    uint32_t parent;
    /** Stream index of the request the call served, or kNoRequest. */
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;

    uint64_t duration() const { return end_ns - start_ns; }
};

/** In-memory span recorder. */
class SpanLog
{
  public:
    static constexpr uint32_t kNoParent = UINT32_MAX;
    static constexpr uint64_t kNoRequest = UINT64_MAX;

    /** Intern a span name (call outside hot loops). */
    uint32_t name(const char *text);

    /** Open a span now. @return its index. */
    uint32_t begin(uint32_t name, uint32_t parent = kNoParent,
                   uint64_t request = kNoRequest);
    uint32_t
    begin(const char *text, uint32_t parent = kNoParent,
          uint64_t request = kNoRequest)
    {
        return begin(name(text), parent, request);
    }

    /** Close span @a id now. @return its duration in ns. */
    uint64_t end(uint32_t id, SubmitKind kind = SubmitKind::None);

    void reserve(size_t n) { spans_.reserve(n); }
    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of the durations of the spans named @a text. */
    uint64_t totalNs(const char *text) const;

    /** Write all spans as CSV. @return false on an I/O error. */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

} // namespace perfbench
