/**
 * @file
 * Lightweight statistics for experiments: counters, means, and
 * histograms with formatted output, in the spirit of a simulator's
 * stats package.
 */

#ifndef CHISEL_SIM_STATS_HH
#define CHISEL_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace chisel {

/**
 * Running scalar statistic: count, sum, min, max, mean.
 */
class ScalarStat
{
  public:
    explicit ScalarStat(std::string name = "");

    void sample(double value);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const { return min_; }
    double max() const { return max_; }

    const std::string &name() const { return name_; }

    /** "name: mean=... min=... max=... n=..." */
    std::string str() const;

    void reset();

  private:
    std::string name_;
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bucket histogram over [0, buckets); values at or beyond the
 * last bucket land in the overflow bucket.
 */
class Histogram
{
  public:
    Histogram(std::string name, size_t buckets);

    void sample(uint64_t value);

    uint64_t bucket(size_t i) const { return buckets_[i]; }
    uint64_t overflow() const { return overflow_; }
    uint64_t total() const { return total_; }
    size_t size() const { return buckets_.size(); }

    /**
     * Smallest i such that at least a fraction q of the mass is at
     * values <= i.  Edge cases: with no samples, 0; q <= 0 returns
     * the smallest sampled value; q >= 1 the largest (or size() if
     * any sample overflowed).
     */
    uint64_t quantile(double q) const;

    std::string str() const;

    void reset();

  private:
    std::string name_;
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

/**
 * Interval timer for throughput and latency measurements.
 *
 * Explicitly monotonic: both reset() and the readers sample
 * monotonicNowNs() (steady_clock), so wall-clock adjustments can
 * never yield negative or skewed intervals.  ns() is the full-
 * precision reading; seconds() is a convenience for rates.
 */
class StopWatch
{
  public:
    StopWatch();

    /** Restart the interval. */
    void reset();

    /** Nanoseconds since construction or the last reset(). */
    uint64_t ns() const;

    /** Seconds since construction or the last reset(). */
    double seconds() const;

  private:
    uint64_t startNs_;
};

/**
 * Mean software ns per call of @p op, for the benches' ns/op rows.
 *
 * Calls op(i) for i in [0, warmup) untimed, then for i in [0, ops)
 * under a StopWatch.  Each call returns a uint64_t that is summed
 * into @p checksum; the bench prints the checksum, so the compiler
 * cannot drop the timed loop as dead code.
 */
template <typename Op>
double
nsPerOp(size_t warmup, size_t ops, uint64_t &checksum, Op &&op)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < warmup; ++i)
        sum += op(i);
    StopWatch watch;
    for (size_t i = 0; i < ops; ++i)
        sum += op(i);
    double ns = static_cast<double>(watch.ns());
    checksum += sum;
    return ns / static_cast<double>(ops);
}

} // namespace chisel

#endif // CHISEL_SIM_STATS_HH
