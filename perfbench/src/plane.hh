/**
 * @file
 * Load generators over the serving plane: closed-loop reader threads,
 * a single-writer trace replay, and a plane-plus-service node with its
 * own persistence directory.
 */

#ifndef PERFBENCH_PLANE_HH
#define PERFBENCH_PLANE_HH

#include <functional>
#include <memory>
#include <string>

#include "bench.hh"
#include "net/server.hh"
#include "shard/sharded.hh"

namespace perfbench {

using chisel::shard::ShardedChisel;

/**
 * Pin the calling thread to load slot @p slot.  The load (readers,
 * writer, clients) runs one thread per CPU; slot 0 is the main
 * thread, which also drives the writer.  Slots wrap around every
 * usable CPU but the last one, the housekeeping CPU.
 */
void pinLoadThread(size_t slot);

/**
 * While alive, the calling thread runs on the housekeeping CPU (the
 * last usable one) or, with @p any, on every usable CPU.  Threads
 * inherit the affinity of the thread that starts them, so the plane's
 * own threads -- the per-shard control threads, whose 50 us sleep-poll
 * would otherwise preempt readers -- are started inside a
 * housekeeping scope.
 */
class CpuScope
{
  public:
    explicit CpuScope(bool any);
    ~CpuScope();

    CpuScope(const CpuScope &) = delete;
    CpuScope &operator=(const CpuScope &) = delete;

  private:
    std::vector<int> saved_;
};

/** Timed lookups of a reader pool. */
struct ReaderRun
{
    static constexpr size_t kSampleEvery = 16;

    uint64_t lookups = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    Series latency;   ///< Every 16th lookup, timed on its own.

    double seconds() const { return (endNs - startNs) * 1e-9; }
    double rate() const { return lookups / seconds(); }
};

/**
 * Run @p threads closed-loop readers over @p keys while @p body runs
 * on the calling thread; readers stop when it returns.  Reader t
 * starts at offset t * keys.size() / threads.  With @p spans every
 * lookup is recorded as a span.
 */
ReaderRun runReaders(const ShardedChisel &plane,
                     const std::vector<Key128> &keys, size_t threads,
                     SpanLog *spans, const std::function<void()> &body);

/** One lookup of every key, split across @p threads (cache warm-up). */
void warmPass(const ShardedChisel &plane, const std::vector<Key128> &keys,
              size_t threads);

/** Timed applies of a writer. */
struct ReplayRun
{
    uint64_t applied = 0;
    uint64_t rejected = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    Series latency;   ///< Every apply.

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/**
 * Apply @p updates through ShardedChisel::apply in order, stopping
 * early once @p limit_s seconds have passed (0 = no limit).
 */
ReplayRun replay(ShardedChisel &plane, const std::vector<Update> &updates,
                 SpanRing *spans, double limit_s = 0);

/**
 * A serving plane with 4 shards and default options, optionally with
 * a per-shard journal and snapshot under @p dir (strict fsync) and a
 * ChiselService on an ephemeral loopback port.  The directory is
 * removed on destruction.
 */
struct ServingNode
{
    ServingNode(const chisel::RoutingTable &table, const std::string &dir,
                bool serve);
    ~ServingNode();

    ServingNode(const ServingNode &) = delete;
    ServingNode &operator=(const ServingNode &) = delete;

    std::string dir;
    std::unique_ptr<ShardedChisel> plane;
    std::unique_ptr<chisel::net::ChiselService> service;
};

/**
 * Replace @p node with a freshly built one.  Appends the build's
 * seconds to @p seconds and the resident MiB it added to @p mib.
 */
void timedSetup(std::unique_ptr<ServingNode> &node,
                const chisel::RoutingTable &table, const std::string &dir,
                bool serve, std::vector<double> &seconds,
                std::vector<double> &mib);

/** Oracle check of the plane on @p keys; @return mismatches. */
size_t checkPlane(const ShardedChisel &plane, const chisel::BinaryTrie &trie,
                  const std::vector<Key128> &keys);

} // namespace perfbench

#endif // PERFBENCH_PLANE_HH
