#include "spans.hh"

#include <cstdio>

#include "util/host_clock.hh"

namespace perfbench
{

namespace
{

const char *
kindName(SubmitKind kind)
{
    switch (kind) {
    case SubmitKind::Read:
        return "read";
    case SubmitKind::BufferedWrite:
        return "buffered_write";
    case SubmitKind::Flush:
        return "flush";
    case SubmitKind::Gc:
        return "gc";
    case SubmitKind::Compaction:
        return "compaction";
    case SubmitKind::None:
        break;
    }
    return "";
}

} // namespace

uint32_t
SpanLog::name(const char *text)
{
    for (uint32_t i = 0; i < names_.size(); i++)
        if (names_[i] == text)
            return i;
    names_.emplace_back(text);
    return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t
SpanLog::begin(uint32_t name, uint32_t parent, uint64_t request)
{
    spans_.push_back({name, SubmitKind::None, parent, request,
                      leaftl::hostNowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
}

uint64_t
SpanLog::end(uint32_t id, SubmitKind kind)
{
    Span &s = spans_[id];
    s.end_ns = leaftl::hostNowNs();
    s.kind = kind;
    return s.duration();
}

uint64_t
SpanLog::totalNs(const char *text) const
{
    uint64_t total = 0;
    for (const Span &s : spans_)
        if (names_[s.name] == text)
            total += s.duration();
    return total;
}

bool
SpanLog::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id,name,kind,parent,request,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%s,%s,", i, names_[s.name].c_str(),
                     kindName(s.kind));
        if (s.parent != kNoParent)
            std::fprintf(f, "%u", s.parent);
        std::fputc(',', f);
        if (s.request != kNoRequest)
            std::fprintf(f, "%llu", static_cast<unsigned long long>(s.request));
        std::fprintf(f, ",%llu,%llu\n",
                     static_cast<unsigned long long>(s.start_ns - origin),
                     static_cast<unsigned long long>(s.end_ns - origin));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
