#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "route/synth.hh"

namespace perfbench {

Inputs
makeInputs(uint64_t seed, size_t prefixes, size_t keys, size_t updates)
{
    // Distinct streams per input, all derived from the one seed.
    Inputs in;
    in.table = chisel::generateScaledTable(prefixes, 32, seed * 4 + 1);
    in.keys = chisel::generateLookupKeys(in.table, keys, 32, 0.85,
                                         seed * 4 + 2);
    chisel::UpdateTraceGenerator gen(in.table, chisel::TraceProfile{}, 32,
                                     seed * 4 + 3);
    in.updates = gen.generate(updates);

    // A fixed stride through the key set: hits and misses in their
    // workload proportions.
    constexpr size_t kSample = 16384;
    size_t stride = std::max<size_t>(1, in.keys.size() / kSample);
    for (size_t i = 0; i < in.keys.size() && in.sample.size() < kSample;
         i += stride)
        in.sample.push_back(in.keys[i]);
    return in;
}

void
applyToTrie(chisel::BinaryTrie &trie, const Update &update)
{
    if (update.kind == chisel::UpdateKind::Announce)
        trie.insert(update.prefix, update.nextHop);
    else
        trie.erase(update.prefix);
}

// ---- Samples ----------------------------------------------------------

void
Samples::append(const Samples &other)
{
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
    sorted_ = 0;
}

void
Samples::sortOnce() const
{
    if (sorted_ != ns_.size()) {
        std::sort(ns_.begin(), ns_.end());
        sorted_ = ns_.size();
    }
}

double
Samples::percentileUs(double p) const
{
    if (ns_.empty())
        return 0;
    sortOnce();
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(ns_.size())));
    rank = std::clamp<size_t>(rank, 1, ns_.size());
    return static_cast<double>(ns_[rank - 1]) * 1e-3;
}

std::string
Samples::summary() const
{
    // Highest percentile 100*(1 - 10^-d) with >= 10 samples beyond it.
    double top = 50;
    for (double beyond = 0.01; static_cast<double>(ns_.size()) *
                                   beyond >= 10.0;
         beyond /= 10)
        top = 100.0 * (1.0 - beyond);

    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%zu p50=%.3fus p99=%.3fus p%.6g=%.3fus", ns_.size(),
                  percentileUs(50), percentileUs(99), top,
                  percentileUs(top));
    return buf;
}

void
Series::append(const Series &other)
{
    points_.insert(points_.end(), other.points_.begin(),
                   other.points_.end());
}

Samples
Series::samples() const
{
    Samples s;
    s.reserve(points_.size());
    for (const auto &p : points_)
        s.add(p.second);
    return s;
}

std::vector<WindowStat>
Series::windows(uint64_t start_ns, uint64_t end_ns, double per_sample,
                size_t count) const
{
    uint64_t width = (end_ns - start_ns) / count;
    std::vector<Samples> buckets(count);
    for (const auto &[end, latency] : points_) {
        if (end < start_ns || width == 0)
            continue;
        size_t w = (end - start_ns) / width;
        if (w < count)
            buckets[w].add(latency);
    }
    std::vector<WindowStat> out;
    for (const Samples &b : buckets) {
        if (b.size() == 0)
            continue;
        out.push_back({static_cast<double>(b.size()) * per_sample /
                           (static_cast<double>(width) * 1e-9),
                       b.percentileUs(50), b.percentileUs(90),
                       b.percentileUs(99)});
    }
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void
reportMismatch(const Key128 &key, bool found, uint32_t next_hop,
               unsigned len, const chisel::BinaryTrie &trie)
{
    auto want = trie.lookup(key);
    std::fprintf(stderr,
                 "oracle mismatch: key %08x got found=%d nh=%u len=%u, "
                 "want found=%d nh=%u len=%u\n",
                 key.toIpv4(), found, next_hop, len, want.has_value(),
                 want ? want->nextHop : 0u,
                 want ? want->prefix.length() : 0u);
}

double
residentMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    return 0;
}

// ---- Spans ------------------------------------------------------------

SpanRing::SpanRing(uint32_t tid, size_t capacity)
    : tid_(tid), ring_(capacity)
{
}

std::vector<SpanRing::Span>
SpanRing::spans() const
{
    size_t n = std::min<uint64_t>(next_, ring_.size());
    std::vector<Span> out;
    out.reserve(n);
    for (uint64_t i = next_ - n; i < next_; ++i)
        out.push_back(ring_[i % ring_.size()]);
    return out;
}

SpanRing *
SpanLog::ring(size_t capacity)
{
    auto tid = static_cast<uint32_t>(rings_.size() + 1);
    rings_.push_back(std::make_unique<SpanRing>(tid, capacity));
    return rings_.back().get();
}

size_t
SpanLog::write(const std::string &path) const
{
    uint64_t origin = UINT64_MAX;
    for (const auto &r : rings_)
        for (const SpanRing::Span &s : r->spans())
            origin = std::min(origin, s.startNs);

    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    size_t n = 0;
    char buf[256];
    for (const auto &r : rings_) {
        for (const SpanRing::Span &s : r->spans()) {
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                          n ? "," : "", s.name, r->tid(),
                          static_cast<double>(s.startNs - origin) * 1e-3,
                          static_cast<double>(s.endNs - s.startNs) * 1e-3,
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent));
            out << buf;
            ++n;
        }
    }
    out << "\n]}\n";
    return n;
}

// ---- Output -----------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace {

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // anonymous namespace

std::string
hostJson()
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":\"" << cpuModel() << "\""
       << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
       << ",\"compiler\":\"" << __VERSION__ << "\""
       << ",\"CHISEL_ENABLE_TRACING\":" << PERFBENCH_TRACING
       << ",\"CHISEL_ENABLE_FLIGHT\":" << PERFBENCH_FLIGHT
       << ",\"CHISEL_ENABLE_FAULT_INJECTION\":" << PERFBENCH_FAULT_INJECTION
       << "}";
    return os.str();
}

void
printResult(const Result &result)
{
    for (const Metric &m : result.metrics)
        std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    if (!result.part.empty()) {
        std::printf("%s, \"part\": %s}\n", json.c_str(),
                    result.part.c_str());
        std::fflush(stdout);
        return;
    }
    json += ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
