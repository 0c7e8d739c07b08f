#include "bench.h"

#include <algorithm>
#include <fstream>

#include "common/json.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int
Tracer::record(const std::string &name, int parent, uint64_t op,
               Clock::time_point start, Clock::time_point end,
               uint64_t calls, int64_t busy_ns, bool replay)
{
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_).count();
    };
    Span s;
    s.name = name;
    s.start_ns = ns(start);
    s.end_ns = ns(end);
    s.parent = parent;
    s.op = op;
    s.calls = calls;
    s.busy_ns = busy_ns >= 0 ? busy_ns : s.end_ns - s.start_ns;
    s.replay = replay;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

int
Tracer::open(const std::string &name, int parent, uint64_t op)
{
    Clock::time_point now = Clock::now();
    return record(name, parent, op, now, now);
}

void
Tracer::close(int id)
{
    Span &s = spans_[id];
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_).count();
    s.busy_ns = s.end_ns - s.start_ns;
}

double
Tracer::seconds(int id) const
{
    return static_cast<double>(spans_[id].busy_ns) * 1e-9;
}

bool
Tracer::write(const std::string &path,
              const std::string &provenance_json) const
{
    ulpdp::JsonWriter j;
    j.beginArray();
    for (const Span &s : spans_) {
        j.beginObject();
        j.field("name", s.name);
        j.field("start_ns", static_cast<int64_t>(s.start_ns));
        j.field("end_ns", static_cast<int64_t>(s.end_ns));
        j.field("parent", s.parent);
        j.field("op", s.op);
        j.field("calls", s.calls);
        j.field("busy_ns", static_cast<int64_t>(s.busy_ns));
        j.field("replay", s.replay);
        j.endObject();
    }
    j.endArray();
    std::ofstream out(path);
    out << "{\"provenance\": " << provenance_json
        << ", \"spans\": " << j.str() << "}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
