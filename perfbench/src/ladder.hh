/**
 * @file
 * The traced run's layer ladder.  Each rung times the benchmark's own
 * calls into one layer's public functions over the workload's keys or
 * updates; the difference between two adjacent rungs is the self
 * time of the layer between them (perfbench/README.md).
 */

#ifndef PERFBENCH_LADDER_HH
#define PERFBENCH_LADDER_HH

#include "net/client.hh"
#include "plane.hh"

namespace perfbench {

/** Keys the lookup rungs run over: a prefix of the workload's keys. */
std::vector<Key128> ladderKeys(const std::vector<Key128> &keys);

/**
 * shard.select_ns, shard.lookup_ns and concurrent.lookup_ns on the
 * live plane.  @return shard.lookup_ns.
 */
double planeRungs(const ShardedChisel &plane,
                  const std::vector<Key128> &keys, Result &out);

/**
 * net.ping_us and net.overhead_us from one idle client on @p port.
 * @p stats receives the client's counters.
 */
void netRungs(uint16_t port, const std::vector<Key128> &keys,
              double shard_lookup_ns, Result &out,
              chisel::net::ClientStats &stats);

/** net.overloaded_share, net.backpressure_pauses, net.client_retries. */
void netCounters(const chisel::net::ServiceStats &service,
                 uint64_t client_retries, Result &out);

/**
 * shard.broadcast_share over @p updates, shard.route_imbalance and
 * health.unhealthy_shards, read from the plane's public counters.
 */
void planeCounters(const ShardedChisel &plane,
                   const std::vector<Update> &updates, Result &out);

/**
 * concurrent.reader_slowdown: two readers' lookups/s while a writer
 * replays @p updates, over their lookups/s with no writer.
 */
void readerSlowdownRung(ShardedChisel &plane,
                        const std::vector<Key128> &keys,
                        const std::vector<Update> &updates, Result &out);

/**
 * persist.sync_us: append + ensureDurable of each update on a scratch
 * journal in @p dir, which is removed afterwards.  @return journal
 * bytes per update.
 */
double persistRung(const std::string &dir,
                   const std::vector<Update> &updates, Result &out);

/**
 * hash.h3_ns and every core.* metric on a standalone ChiselEngine
 * built from @p table: lookup rungs over @p keys, then the apply rung
 * over @p updates.
 */
void engineRungs(const chisel::RoutingTable &table,
                 const std::vector<Key128> &keys,
                 const std::vector<Update> &updates, Result &out);

/** concurrent.apply_ns on a standalone ConcurrentChisel. */
void concurrentApplyRung(const chisel::RoutingTable &table,
                         const std::vector<Update> &updates, Result &out);

} // namespace perfbench

#endif // PERFBENCH_LADDER_HH
