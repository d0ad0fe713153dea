#include "ladder.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "concurrent/concurrent_engine.hh"
#include "hash/h3.hh"
#include "net/client.hh"
#include "persist/journal.hh"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_sink{0};

/**
 * Mean nanoseconds of f(i) over i in [0, n): one untimed pass to warm
 * caches, then one timed pass.
 */
template <typename F>
double
nsPerCall(size_t n, F &&f)
{
    uint64_t sink = 0;
    for (size_t i = 0; i < n; ++i)
        sink += f(i);
    uint64_t t0 = nowNs();
    for (size_t i = 0; i < n; ++i)
        sink += f(i);
    double ns = static_cast<double>(nowNs() - t0) / static_cast<double>(n);
    g_sink.fetch_add(sink, std::memory_order_relaxed);
    return ns;
}

} // anonymous namespace

std::vector<Key128>
ladderKeys(const std::vector<Key128> &keys)
{
    constexpr size_t kLadderKeys = 256 * 1024;
    return {keys.begin(),
            keys.begin() + std::min(keys.size(), kLadderKeys)};
}

double
planeRungs(const ShardedChisel &plane, const std::vector<Key128> &keys,
           Result &out)
{
    double select = nsPerCall(keys.size(), [&](size_t i) {
        return uint64_t{plane.shardOf(keys[i])};
    });
    double sharded = nsPerCall(keys.size(), [&](size_t i) {
        return uint64_t{plane.lookup(keys[i]).nextHop};
    });

    // The concurrent rung calls each key's shard engine directly, in
    // the same key order, so it differs from the sharded rung only by
    // the shard selection.
    std::vector<const chisel::concurrent::ConcurrentChisel *> engines;
    for (size_t s = 0; s < plane.shards(); ++s)
        engines.push_back(&plane.shardEngine(s));
    std::vector<uint8_t> owner(keys.size());
    for (size_t i = 0; i < keys.size(); ++i)
        owner[i] = static_cast<uint8_t>(plane.shardOf(keys[i]));
    double concurrent = nsPerCall(keys.size(), [&](size_t i) {
        return uint64_t{engines[owner[i]]->lookup(keys[i]).nextHop};
    });

    out.add("shard.select_ns", select, "ns");
    out.add("shard.lookup_ns", sharded, "ns");
    out.add("concurrent.lookup_ns", concurrent, "ns");
    return sharded;
}

void
netRungs(uint16_t port, const std::vector<Key128> &keys,
         double shard_lookup_ns, Result &out,
         chisel::net::ClientStats &stats)
{
    constexpr size_t kWarm = 200;
    constexpr size_t kCalls = 2000;
    constexpr size_t kBatch = 32;

    chisel::net::ClientOptions copts;
    copts.port = port;
    chisel::net::ServiceClient client(copts);

    Samples ping;
    for (size_t i = 0; i < kWarm + kCalls; ++i) {
        uint64_t t0 = nowNs();
        client.ping();
        if (i >= kWarm)
            ping.add(nowNs() - t0);
    }

    Samples call;
    std::vector<Key128> batch(kBatch);
    size_t cursor = 0;
    for (size_t i = 0; i < kWarm + kCalls; ++i) {
        for (Key128 &k : batch) {
            k = keys[cursor];
            cursor = (cursor + 1) % keys.size();
        }
        uint64_t t0 = nowNs();
        client.lookup(batch);
        if (i >= kWarm)
            call.add(nowNs() - t0);
    }
    stats = client.stats();

    double ping_us = ping.percentileUs(50);
    out.add("net.ping_us", ping_us, "us");
    out.add("net.overhead_us",
            call.percentileUs(50) - ping_us -
                kBatch * shard_lookup_ns * 1e-3,
            "us");
}

void
netCounters(const chisel::net::ServiceStats &service,
            uint64_t client_retries, Result &out)
{
    out.add("net.overloaded_share",
            service.requests ? static_cast<double>(service.overloaded) /
                                   static_cast<double>(service.requests)
                             : 0.0,
            "ratio");
    out.add("net.backpressure_pauses",
            static_cast<double>(service.backpressurePauses), "count");
    out.add("net.client_retries", static_cast<double>(client_retries),
            "count");
}

void
planeCounters(const ShardedChisel &plane,
              const std::vector<Update> &updates, Result &out)
{
    size_t broadcast = 0;
    for (const Update &u : updates)
        broadcast += plane.shardOf(u.prefix) == ShardedChisel::kBroadcast;

    size_t max_routes = 0;
    size_t total_routes = 0;
    size_t unhealthy = 0;
    for (size_t s = 0; s < plane.shards(); ++s) {
        chisel::shard::ShardStatus st = plane.status(s);
        max_routes = std::max(max_routes, st.routes);
        total_routes += st.routes;
        unhealthy += st.state != chisel::health::HealthState::Healthy;
    }
    double mean_routes = static_cast<double>(total_routes) /
                         static_cast<double>(plane.shards());

    out.add("shard.broadcast_share",
            updates.empty() ? 0.0
                            : static_cast<double>(broadcast) /
                                  static_cast<double>(updates.size()),
            "ratio");
    out.add("shard.route_imbalance",
            mean_routes > 0 ? static_cast<double>(max_routes) / mean_routes
                            : 0.0,
            "ratio");
    out.add("health.unhealthy_shards", static_cast<double>(unhealthy),
            "count");
}

void
readerSlowdownRung(ShardedChisel &plane, const std::vector<Key128> &keys,
                   const std::vector<Update> &updates, Result &out)
{
    constexpr double kWindow = 0.5;
    warmPass(plane, keys, 2);
    ReaderRun idle = runReaders(plane, keys, 2, nullptr, [kWindow] {
        std::this_thread::sleep_for(std::chrono::duration<double>(kWindow));
    });
    ReaderRun busy = runReaders(plane, keys, 2, nullptr, [&] {
        replay(plane, updates, nullptr, kWindow);
    });
    out.add("concurrent.reader_slowdown",
            idle.rate() > 0 ? busy.rate() / idle.rate() : 0.0, "ratio");
}

double
persistRung(const std::string &dir, const std::vector<Update> &updates,
            Result &out)
{
    namespace fs = std::filesystem;
    constexpr size_t kAppends = 256;
    fs::create_directories(dir);
    std::string path = dir + "/scratch.journal";

    size_t n = std::min(kAppends, updates.size());
    Samples sync;
    uintmax_t header = 0;
    {
        chisel::persist::UpdateJournal journal(
            path, chisel::configFingerprint(chisel::ChiselConfig{}), 1);
        journal.sync();
        header = fs::file_size(path);
        for (size_t i = 0; i < n; ++i) {
            uint64_t t0 = nowNs();
            uint64_t seq = journal.append(updates[i]);
            journal.ensureDurable(seq);
            sync.add(nowNs() - t0);
        }
    }
    double bytes = n ? static_cast<double>(fs::file_size(path) - header) /
                           static_cast<double>(n)
                     : 0.0;
    fs::remove_all(dir);
    out.add("persist.sync_us", sync.percentileUs(50), "us");
    return bytes;
}

void
engineRungs(const chisel::RoutingTable &table,
            const std::vector<Key128> &keys,
            const std::vector<Update> &updates, Result &out)
{
    chisel::ChiselEngine engine(table);
    out.add("core.bloomier_setups",
            static_cast<double>(engine.bloomierSetups()), "count");
    out.add("core.storage_bits_per_route",
            static_cast<double>(engine.storage().totalBits()) /
                static_cast<double>(engine.routeCount()),
            "bits/route");

    // The engine hashes each key once per cell at the cell's base
    // length; the hash rung cycles through those lengths.
    std::vector<unsigned> lens;
    for (size_t c = 0; c < engine.cellCount(); ++c)
        lens.push_back(engine.cell(c).base());
    chisel::H3Hash h3(24, 0x5eed);
    out.add("hash.h3_ns", nsPerCall(keys.size(), [&](size_t i) {
                return h3.hash(keys[i], lens[i % lens.size()]);
            }),
            "ns");

    double cell_ns = 0;
    for (size_t c = 0; c < engine.cellCount(); ++c) {
        const chisel::SubCell &cell = engine.cell(c);
        cell_ns += nsPerCall(keys.size(), [&](size_t i) {
            return uint64_t{cell.lookup(keys[i]).nextHop};
        });
    }
    out.add("core.subcell_lookup_ns",
            cell_ns / static_cast<double>(engine.cellCount()), "ns");

    engine.resetAccessCounters();
    out.add("core.engine_lookup_ns", nsPerCall(keys.size(), [&](size_t i) {
                return uint64_t{engine.lookup(keys[i]).nextHop};
            }),
            "ns");
    const chisel::AccessCounters &acc = engine.accessCounters();
    auto lookups = static_cast<double>(acc.lookups);
    out.add("core.accesses_per_lookup",
            static_cast<double>(acc.onChipTotal() + acc.resultReads) /
                lookups,
            "accesses");
    out.add("core.critical_accesses_per_lookup",
            static_cast<double>(acc.onChipTotal()) /
                    (lookups * static_cast<double>(engine.cellCount())) +
                static_cast<double>(acc.resultReads) / lookups,
            "accesses");

    uint64_t t0 = nowNs();
    for (const Update &u : updates)
        engine.apply(u);
    out.add("core.apply_ns",
            static_cast<double>(nowNs() - t0) /
                static_cast<double>(updates.size()),
            "ns");
    out.add("core.resetup_share",
            engine.updateStats().fraction(chisel::UpdateClass::Resetup),
            "ratio");
    out.add("core.offpath_routes",
            static_cast<double>(engine.spillCount() +
                                engine.slowPathCount()),
            "count");
}

void
concurrentApplyRung(const chisel::RoutingTable &table,
                    const std::vector<Update> &updates, Result &out)
{
    std::optional<CpuScope> housekeeping(std::in_place, false);
    chisel::concurrent::ConcurrentChisel engine(table);
    housekeeping.reset();
    uint64_t t0 = nowNs();
    for (const Update &u : updates)
        engine.apply(u);
    out.add("concurrent.apply_ns",
            static_cast<double>(nowNs() - t0) /
                static_cast<double>(updates.size()),
            "ns");
}

} // namespace perfbench
