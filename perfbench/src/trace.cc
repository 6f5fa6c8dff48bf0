#include "trace.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/json.hh"

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now())
{
    spans_.reserve(1 << 16);
    open_.reserve(16);
}

int
Tracer::begin(const char *name, int64_t point)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.point = point >= 0 || s.parent < 0 ? point : spans_[s.parent].point;
    s.start = secondsSince(epoch_);
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans_[id].end = secondsSince(epoch_);
    open_.pop_back();
}

void
Tracer::truncate(size_t mark)
{
    if (mark < spans_.size())
        spans_.resize(mark);
}

double
Tracer::total(const char *name, size_t from) const
{
    double sum = 0.0;
    for (size_t i = from; i < spans_.size(); ++i) {
        if (std::strcmp(spans_[i].name, name) == 0)
            sum += spans_[i].end - spans_[i].start;
    }
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    char buf[96];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start * 1e6,
                      (s.end - s.start) * 1e6);
        out << (i ? ",\n" : "\n") << "{\"name\":\""
            << mcscope::jsonEscapeString(s.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"point\":" << s.point << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
