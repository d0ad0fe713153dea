/**
 * @file
 * Shared pieces of the repository benchmark: run arguments, generated
 * inputs, raw-sample percentiles, the trie oracle check, in-memory
 * spans and the result line.
 *
 * Everything here sits on the chisel library's public headers only.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "common/key128.hh"
#include "core/engine.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "trie/binary_trie.hh"

namespace perfbench {

using chisel::Key128;
using chisel::Update;

inline uint64_t nowNs() { return chisel::monotonicNowNs(); }

inline double
secondsSince(uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for journals, snapshots and span files. */
    std::string outDir;
};

/** Generated inputs of one workload; a pure function of the seed. */
struct Inputs
{
    chisel::RoutingTable table;
    std::vector<Key128> keys;       ///< Lookup key set.
    std::vector<Update> updates;    ///< Pre-generated update trace.
    std::vector<Key128> sample;     ///< Oracle check keys.
};

/**
 * Build one workload's inputs from @p seed.
 *
 * @param prefixes Synthetic table size (generateScaledTable).
 * @param keys Lookup keys at a 0.85 hit target.
 * @param updates Updates from the default TraceProfile.
 */
Inputs makeInputs(uint64_t seed, size_t prefixes, size_t keys,
                  size_t updates);

/** Apply one update to the oracle. */
void applyToTrie(chisel::BinaryTrie &trie, const Update &update);

/** Raw latency samples in nanoseconds; percentiles by nearest rank. */
class Samples
{
  public:
    void add(uint64_t ns) { ns_.push_back(ns); }
    void append(const Samples &other);
    void reserve(size_t n) { ns_.reserve(n); }
    size_t size() const { return ns_.size(); }

    /** The @p p-th percentile (0 < p <= 100), microseconds. */
    double percentileUs(double p) const;

    /**
     * "n=.. p50=..us p99=..us p99.9=..us": the sample count, the
     * median, p99 and the highest percentile of the form 99.9..9 with
     * at least ten samples beyond it.
     */
    std::string summary() const;

  private:
    void sortOnce() const;

    mutable std::vector<uint64_t> ns_;
    mutable size_t sorted_ = 0;
};

/** Rate and latency of one window of a load. */
struct WindowStat
{
    double rate = 0;    ///< Operations per second.
    double p50Us = 0;
    double p90Us = 0;
    double p99Us = 0;
};

/**
 * Timestamped latency samples of one load.  Besides the raw
 * percentiles, the load is cut into equal windows so a run can report
 * the median window: a stall that hits one window moves one window,
 * not the run's result.
 */
class Series
{
  public:
    void
    add(uint64_t end_ns, uint64_t latency_ns)
    {
        points_.push_back({end_ns, latency_ns});
    }
    void append(const Series &other);
    void reserve(size_t n) { points_.reserve(n); }

    /** The latencies alone. */
    Samples samples() const;

    /**
     * Cut [start_ns, end_ns) into @p count equal windows.  Each sample
     * stands for @p per_sample operations when computing rates.
     */
    std::vector<WindowStat> windows(uint64_t start_ns, uint64_t end_ns,
                                    double per_sample,
                                    size_t count = 10) const;

  private:
    std::vector<std::pair<uint64_t, uint64_t>> points_;
};

/** Median of a small set of values (setups, trials). */
double median(std::vector<double> values);

/**
 * Compare engine answers with the trie oracle on @p keys: found,
 * nextHop and matchedLength must all agree.
 *
 * @return Number of mismatching keys; the first few are logged.
 */
template <typename LookupFn>
size_t
oracleMismatches(const chisel::BinaryTrie &trie,
                 const std::vector<Key128> &keys, LookupFn &&lookup);

/** Log one oracle mismatch to stderr. */
void reportMismatch(const Key128 &key, bool found, uint32_t next_hop,
                    unsigned len, const chisel::BinaryTrie &trie);

template <typename LookupFn>
size_t
oracleMismatches(const chisel::BinaryTrie &trie,
                 const std::vector<Key128> &keys, LookupFn &&lookup)
{
    size_t bad = 0;
    for (const Key128 &k : keys) {
        auto want = trie.lookup(k);
        bool found = false;
        uint32_t next_hop = 0;
        unsigned len = 0;
        lookup(k, found, next_hop, len);
        bool ok = found == want.has_value() &&
                  (!found || (next_hop == want->nextHop &&
                              len == want->prefix.length()));
        if (!ok) {
            if (bad < 5)
                reportMismatch(k, found, next_hop, len, trie);
            ++bad;
        }
    }
    return bad;
}

/** Current resident set size in MiB (VmRSS). */
double residentMiB();

/**
 * In-memory spans of the traced run.  Each thread writes its own ring
 * (the last @c capacity spans survive), so recording costs two clock
 * reads and a store; rings are written out once, when the run ends.
 */
class SpanRing
{
  public:
    struct Span
    {
        const char *name = nullptr;  ///< Static string.
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        uint64_t id = 0;       ///< Request id; children share it.
        uint64_t parent = 0;   ///< Enclosing span's id (0 = none).
    };

    SpanRing(uint32_t tid, size_t capacity);

    void
    record(const char *name, uint64_t start_ns, uint64_t end_ns,
           uint64_t id, uint64_t parent)
    {
        Span &s = ring_[next_++ % ring_.size()];
        s = {name, start_ns, end_ns, id, parent};
    }

    uint32_t tid() const { return tid_; }
    std::vector<Span> spans() const;

  private:
    uint32_t tid_;
    uint64_t next_ = 0;
    std::vector<Span> ring_;
};

/** Owns the rings of every traced thread. */
class SpanLog
{
  public:
    /** A ring for a new thread; the pointer lives as long as this. */
    SpanRing *ring(size_t capacity = 1 << 16);

    /** Write every ring as Chrome trace_event JSON; @return spans. */
    size_t write(const std::string &path) const;

  private:
    std::vector<std::unique_ptr<SpanRing>> rings_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports: the last line of standard output. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    /**
     * Untraced runs leave metrics empty and report this process's
     * windows and set-ups instead, as a JSON object that
     * perfbench/run.py combines across processes.
     */
    std::string part;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/**
 * Print each metric as "name value unit" lines, then the JSON line:
 * the result, or {"correct", "attempted", "failed", "part"} when
 * Result::part is set.
 */
void printResult(const Result &result);

/** JSON number with all its digits; non-finite values become 0. */
std::string jsonNumber(double v);

/** Host and build description (one JSON object). */
std::string hostJson();

/** Run one workload; defined per workload in workloads.cc. */
Result runLookupDfz(const Args &args);
Result runChurn(const Args &args);
Result runServiceMixed(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
