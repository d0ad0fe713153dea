/**
 * @file
 * The three workloads.  Each run builds its inputs from the seed,
 * sets the plane up, warms it, measures a closed-loop load, and checks
 * the plane's answers against the trie oracle.  An untraced run
 * reports the end-to-end metrics; a traced run repeats the load with
 * spans, runs the layer ladder and reports the per-layer metrics.
 */

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <optional>
#include <thread>

#include "ladder.hh"
#include "net/client.hh"

namespace perfbench {

namespace {

using chisel::net::CallStatus;

/**
 * End-to-end tallies of one process: per-window rates and
 * percentiles (Series::windows) plus the raw samples for the summary.
 */
struct EndToEnd
{
    std::vector<double> setups;
    std::vector<double> memMiB;
    std::vector<WindowStat> lookupWindows;
    std::vector<WindowStat> updateWindows;
    Samples lookupLatency;
    Samples updateLatency;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    addLookups(const Series &s, uint64_t start_ns, uint64_t end_ns,
               double per_sample)
    {
        auto w = s.windows(start_ns, end_ns, per_sample);
        lookupWindows.insert(lookupWindows.end(), w.begin(), w.end());
        lookupLatency.append(s.samples());
    }

    void
    addUpdates(const Series &s, uint64_t start_ns, uint64_t end_ns)
    {
        auto w = s.windows(start_ns, end_ns, 1);
        updateWindows.insert(updateWindows.end(), w.begin(), w.end());
        updateLatency.append(s.samples());
    }
};

double
medianOf(const std::vector<WindowStat> &windows, double WindowStat::*field)
{
    std::vector<double> v;
    for (const WindowStat &w : windows)
        v.push_back(w.*field);
    return median(v);
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
jsonWindows(const std::vector<WindowStat> &windows)
{
    std::string out = "[";
    for (size_t i = 0; i < windows.size(); ++i) {
        const WindowStat &w = windows[i];
        out += (i ? ", " : "") +
               jsonList({w.rate, w.p50Us, w.p90Us, w.p99Us});
    }
    return out + "]";
}

/**
 * Print this process's raw figures for a reader and fill
 * @p res.part: its windows, set-ups and counts, which
 * perfbench/run.py combines across processes into the metrics.
 */
void
reportPart(const EndToEnd &e, Result &res)
{
    std::printf("setup_s samples %s\nmem_mb samples %s\n"
                "latency lookup %s\nlatency update %s\n",
                jsonList(e.setups).c_str(), jsonList(e.memMiB).c_str(),
                e.lookupLatency.summary().c_str(),
                e.updateLatency.summary().c_str());
    for (const auto *w : {&e.lookupWindows, &e.updateWindows})
        std::printf("windows %s %zu, medians p50=%.3fus p90=%.3fus "
                    "p99=%.3fus\n",
                    w == &e.lookupWindows ? "lookup" : "update", w->size(),
                    medianOf(*w, &WindowStat::p50Us),
                    medianOf(*w, &WindowStat::p90Us),
                    medianOf(*w, &WindowStat::p99Us));

    res.part = "{\"setup_s\": " + jsonList(e.setups) +
               ", \"mem_mb\": " + jsonList(e.memMiB) +
               ", \"lookup\": " + jsonWindows(e.lookupWindows) +
               ", \"update\": " + jsonWindows(e.updateWindows) + "}";
}

std::function<void()>
sleepFor(double seconds)
{
    return [seconds] {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    };
}

std::string
scratchPath(const Args &args, const std::string &what)
{
    return args.outDir + "/" + args.workload + "-" +
           std::to_string(::getpid()) + what;
}

void
writeSpans(const Args &args, const SpanLog &spans)
{
    std::string path = args.outDir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".trace.json";
    size_t n = spans.write(path);
    std::printf("spans %zu written to %s\n", n, path.c_str());
}

/** Net rungs and counters through a service started for the ladder. */
void
netLadder(ShardedChisel &plane, const std::vector<Key128> &keys,
          double shard_lookup_ns, Result &res)
{
    std::optional<CpuScope> any(std::in_place, true);
    chisel::net::ChiselService service(plane);
    if (!service.start())
        throw std::runtime_error("ChiselService failed to start");
    any.reset();
    chisel::net::ClientStats client;
    netRungs(service.port(), keys, shard_lookup_ns, res, client);
    netCounters(service.stats(), client.retries + client.reconnects, res);
    service.stop();
}

/** The ladder rungs after the load: on the plane, then standalone. */
void
closingRungs(const Args &args, std::unique_ptr<ServingNode> &node,
             const Inputs &in, const std::vector<Key128> &ladder_keys,
             Result &res, bool scratch_journal_bytes)
{
    planeCounters(*node->plane, in.updates, res);
    readerSlowdownRung(*node->plane, in.keys, in.updates, res);
    double bytes =
        persistRung(scratchPath(args, "-persist"), in.updates, res);
    if (scratch_journal_bytes)
        res.add("persist.journal_bytes_per_update", bytes, "bytes/update");
    node.reset();
    engineRungs(in.table, ladder_keys, in.updates, res);
    concurrentApplyRung(in.table, in.updates, res);
}

// ---- service-mixed clients --------------------------------------------

constexpr size_t kClients = 3;
constexpr size_t kBatch = 32;
constexpr uint64_t kCallsPerCycle = 16;  ///< 15 lookup calls, 1 update.

struct ClientRun
{
    uint64_t calls = 0;
    uint64_t failedCalls = 0;
    uint64_t keys = 0;
    uint64_t acked = 0;
    uint64_t retries = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    Series lookupLatency;   ///< Per 32-key call.
    Series updateLatency;   ///< Per update call, until durable ack.

    double keyRate() const { return keys / ((endNs - startNs) * 1e-9); }
};

void
clientLoop(uint16_t port, size_t c, const std::vector<Key128> &keys,
           const std::vector<Update> &stream, size_t &cursor,
           size_t warm_calls, std::latch &ready,
           const std::atomic<bool> &stop, ClientRun &out, SpanRing *ring)
{
    pinLoadThread(c + 1);
    chisel::net::ClientOptions copts;
    copts.port = port;
    copts.seed = c + 1;
    chisel::net::ServiceClient client(copts);

    std::vector<Key128> batch(kBatch);
    size_t next_key = c * keys.size() / kClients;
    auto fill = [&] {
        for (Key128 &k : batch) {
            k = keys[next_key];
            next_key = (next_key + 1) % keys.size();
        }
    };
    for (size_t i = 0; i < warm_calls; ++i) {
        fill();
        client.lookup(batch);
    }
    ready.arrive_and_wait();

    for (uint64_t call = 0; !stop.load(std::memory_order_relaxed); ++call) {
        uint64_t t0 = nowNs();
        uint64_t t1 = 0;
        const char *name = nullptr;
        if (call % kCallsPerCycle != kCallsPerCycle - 1) {
            name = "rpc.lookup";
            fill();
            auto r = client.lookup(batch);
            t1 = nowNs();
            if (r.status == CallStatus::Ok && r.results.size() == kBatch) {
                out.keys += kBatch;
                out.lookupLatency.add(t1, t1 - t0);
            } else {
                ++out.failedCalls;
            }
        } else {
            // Announce and withdraw are idempotent, so an update that
            // was not acked is simply sent again on the next cycle.
            name = "rpc.update";
            auto r = client.update({stream[cursor % stream.size()]});
            t1 = nowNs();
            if (r.status == CallStatus::Ok && r.acks.size() == 1 &&
                r.acks[0].acked) {
                ++cursor;
                ++out.acked;
                out.updateLatency.add(t1, t1 - t0);
            } else {
                ++out.failedCalls;
            }
        }
        ++out.calls;
        if (ring != nullptr)
            ring->record(name, t0, t1,
                         uint64_t{ring->tid()} << 40 | (call + 1), 1);
    }
    out.retries = client.stats().retries + client.stats().reconnects;
}

/** Run the clients for @p seconds after @p warm_calls each. */
ClientRun
runClients(uint16_t port, const std::vector<Key128> &keys,
           const std::vector<std::vector<Update>> &streams,
           std::vector<size_t> &cursors, double seconds,
           size_t warm_calls, SpanLog *spans)
{
    std::latch ready(kClients + 1);
    std::atomic<bool> stop{false};
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> pool;
    for (size_t c = 0; c < kClients; ++c) {
        SpanRing *ring = spans ? spans->ring() : nullptr;
        pool.emplace_back(clientLoop, port, c, std::cref(keys),
                          std::cref(streams[c]), std::ref(cursors[c]),
                          warm_calls, std::ref(ready), std::cref(stop),
                          std::ref(runs[c]), ring);
    }
    ready.arrive_and_wait();
    ClientRun total;
    total.startNs = nowNs();
    sleepFor(seconds)();
    total.endNs = nowNs();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &th : pool)
        th.join();
    if (spans != nullptr)
        spans->ring(1)->record("load", total.startNs, nowNs(), 1, 0);

    for (const ClientRun &r : runs) {
        total.calls += r.calls;
        total.failedCalls += r.failedCalls;
        total.keys += r.keys;
        total.acked += r.acked;
        total.retries += r.retries;
        total.lookupLatency.append(r.lookupLatency);
        total.updateLatency.append(r.updateLatency);
    }
    return total;
}

/** Oracle check through the wire: found, nextHop and matchedLength. */
size_t
checkService(uint16_t port, const chisel::BinaryTrie &trie,
             const std::vector<Key128> &keys)
{
    chisel::net::ClientOptions copts;
    copts.port = port;
    chisel::net::ServiceClient client(copts);
    std::vector<chisel::net::WireLookup> answers;
    for (size_t i = 0; i < keys.size(); i += kBatch) {
        std::vector<Key128> batch(keys.begin() + i,
                                  keys.begin() +
                                      std::min(keys.size(), i + kBatch));
        auto r = client.lookup(batch);
        if (r.status != CallStatus::Ok || r.results.size() != batch.size())
            return keys.size();
        answers.insert(answers.end(), r.results.begin(), r.results.end());
    }
    size_t next = 0;
    return oracleMismatches(
        trie, keys,
        [&](const Key128 &, bool &found, uint32_t &nh, unsigned &len) {
            const chisel::net::WireLookup &w = answers[next++];
            found = w.found;
            nh = w.nextHop;
            len = w.matchedLength;
        });
}

uint64_t
journalBytes(ShardedChisel &plane)
{
    uint64_t bytes = 0;
    for (size_t s = 0; s < plane.shards(); ++s)
        bytes += std::filesystem::file_size(plane.journal(s)->path());
    return bytes;
}

} // anonymous namespace

// ---- lookup-dfz -------------------------------------------------------

Result
runLookupDfz(const Args &args)
{
    constexpr size_t kPrefixes = 1000000;
    constexpr size_t kKeys = 1000000;
    constexpr size_t kUpdates = 100000;
    constexpr size_t kReaders = 3;

    Inputs in = makeInputs(args.seed, kPrefixes, kKeys, kUpdates);
    chisel::BinaryTrie trie(in.table);
    Result res;
    EndToEnd e;
    SpanLog spans;

    std::unique_ptr<ServingNode> node;
    timedSetup(node, in.table, "", false, e.setups, e.memMiB);
    ShardedChisel &plane = *node->plane;
    size_t bad = checkPlane(plane, trie, in.sample);
    warmPass(plane, in.keys, kReaders);

    std::vector<Key128> ladder_keys;
    if (args.trace) {
        ladder_keys = ladderKeys(in.keys);
        double shard_ns = planeRungs(plane, ladder_keys, res);
        netLadder(plane, ladder_keys, shard_ns, res);
    }

    ReaderRun reads =
        runReaders(plane, in.keys, kReaders, nullptr,
                   sleepFor(args.trace ? args.seconds / 2 : args.seconds));
    if (args.trace) {
        ReaderRun traced = runReaders(plane, in.keys, kReaders, &spans,
                                      sleepFor(args.seconds / 2));
        res.add("telemetry.trace_overhead", 1.0 - traced.rate() / reads.rate(),
                "ratio");
    }

    // Every workload reports update cost; here it is the DFZ table's,
    // from one writer after the read-only window.
    ReplayRun writes = replay(plane, in.updates, nullptr);
    for (const Update &u : in.updates)
        applyToTrie(trie, u);
    bad += checkPlane(plane, trie, in.sample);

    e.addLookups(reads.latency, reads.startNs, reads.endNs,
                 ReaderRun::kSampleEvery);
    e.addUpdates(writes.latency, writes.startNs, writes.endNs);
    e.attempted = reads.lookups + writes.applied + writes.rejected;
    e.failed = writes.rejected;

    if (args.trace) {
        closingRungs(args, node, in, ladder_keys, res, true);
        writeSpans(args, spans);
    } else {
        reportPart(e, res);
    }
    res.attempted = e.attempted;
    res.failed = e.failed;
    res.correct = bad == 0;
    return res;
}

// ---- churn ------------------------------------------------------------

Result
runChurn(const Args &args)
{
    constexpr size_t kPrefixes = 200000;
    constexpr size_t kKeys = 256 * 1024;
    constexpr size_t kUpdates = 400000;
    constexpr size_t kReaders = 2;

    Inputs in = makeInputs(args.seed, kPrefixes, kKeys, kUpdates);
    chisel::BinaryTrie trie(in.table);
    for (const Update &u : in.updates)
        applyToTrie(trie, u);
    Result res;
    EndToEnd e;
    SpanLog spans;

    // Every replay is the whole trace on a fresh plane.  An untraced
    // run makes the whole number of replays nearest to --seconds, by
    // the first replay's time, and at least one; a traced run replays
    // once untraced and once traced.
    std::unique_ptr<ServingNode> node;
    std::vector<Key128> ladder_keys;
    std::vector<double> rates;
    size_t replays = args.trace ? 2 : 1;
    size_t bad = 0;
    for (size_t r = 0; r < replays; ++r) {
        timedSetup(node, in.table, "", false, e.setups, e.memMiB);
        ShardedChisel &plane = *node->plane;
        warmPass(plane, in.keys, kReaders);
        if (args.trace && r == 0) {
            ladder_keys = ladderKeys(in.keys);
            double shard_ns = planeRungs(plane, ladder_keys, res);
            netLadder(plane, ladder_keys, shard_ns, res);
        }

        bool traced = args.trace && r == 1;
        ReplayRun writes;
        ReaderRun reads = runReaders(
            plane, in.keys, kReaders, traced ? &spans : nullptr, [&] {
                writes = replay(plane, in.updates,
                                traced ? spans.ring() : nullptr);
            });
        bad += checkPlane(plane, trie, in.sample);
        rates.push_back(reads.rate());

        if (r == 0 && !args.trace)
            replays = std::max<size_t>(
                1, std::lround(args.seconds / writes.seconds()));
        e.addLookups(reads.latency, writes.startNs, writes.endNs,
                     ReaderRun::kSampleEvery);
        e.addUpdates(writes.latency, writes.startNs, writes.endNs);
        e.attempted += reads.lookups + writes.applied + writes.rejected;
        e.failed += writes.rejected;
    }

    if (args.trace) {
        res.add("telemetry.trace_overhead", 1.0 - rates[1] / rates[0],
                "ratio");
        closingRungs(args, node, in, ladder_keys, res, true);
        writeSpans(args, spans);
    } else {
        reportPart(e, res);
    }
    res.attempted = e.attempted;
    res.failed = e.failed;
    res.correct = bad == 0;
    return res;
}

// ---- service-mixed ----------------------------------------------------

Result
runServiceMixed(const Args &args)
{
    constexpr size_t kPrefixes = 50000;
    constexpr size_t kKeys = 64 * 1024;
    constexpr size_t kUpdates = 60000;
    constexpr size_t kWarmCalls = 64;

    Inputs in = makeInputs(args.seed, kPrefixes, kKeys, kUpdates);
    // Each prefix's updates go to one client, in trace order, so the
    // final table does not depend on how the clients interleave.
    std::vector<std::vector<Update>> streams(kClients);
    for (const Update &u : in.updates)
        streams[chisel::PrefixHasher{}(u.prefix) % kClients].push_back(u);
    std::vector<size_t> cursors(kClients, 0);
    chisel::BinaryTrie trie(in.table);
    Result res;
    EndToEnd e;
    SpanLog spans;

    std::unique_ptr<ServingNode> node;
    timedSetup(node, in.table, scratchPath(args, "-node"), true, e.setups,
               e.memMiB);
    ShardedChisel &plane = *node->plane;
    uint16_t port = node->service->port();

    std::vector<Key128> ladder_keys;
    uint64_t ladder_retries = 0;
    if (args.trace) {
        ladder_keys = ladderKeys(in.keys);
        double shard_ns = planeRungs(plane, ladder_keys, res);
        chisel::net::ClientStats ladder_client;
        netRungs(port, ladder_keys, shard_ns, res, ladder_client);
        ladder_retries = ladder_client.retries + ladder_client.reconnects;
    }

    uint64_t journal_before = journalBytes(plane);
    ClientRun run = runClients(
        port, in.keys, streams, cursors,
        args.trace ? args.seconds / 2 : args.seconds, kWarmCalls, nullptr);
    ClientRun traced;
    if (args.trace) {
        traced = runClients(port, in.keys, streams, cursors,
                            args.seconds / 2, 0, &spans);
        res.add("telemetry.trace_overhead",
                1.0 - traced.keyRate() / run.keyRate(),
                "ratio");
    }
    uint64_t journal_growth = journalBytes(plane) - journal_before;

    for (size_t c = 0; c < kClients; ++c)
        for (size_t i = 0; i < cursors[c]; ++i)
            applyToTrie(trie, streams[c][i % streams[c].size()]);
    size_t bad = checkService(port, trie, in.sample);

    e.addLookups(run.lookupLatency, run.startNs, run.endNs, kBatch);
    e.addUpdates(run.updateLatency, run.startNs, run.endNs);
    e.attempted = run.calls + traced.calls;
    e.failed = run.failedCalls + traced.failedCalls;

    if (args.trace) {
        netCounters(node->service->stats(),
                    run.retries + traced.retries + ladder_retries, res);
        uint64_t acked = run.acked + traced.acked;
        res.add("persist.journal_bytes_per_update",
                acked ? static_cast<double>(journal_growth) /
                            static_cast<double>(acked)
                      : 0.0,
                "bytes/update");
        closingRungs(args, node, in, ladder_keys, res, false);
        writeSpans(args, spans);
    } else {
        reportPart(e, res);
    }
    res.attempted = e.attempted;
    res.failed = e.failed;
    res.correct = bad == 0;
    return res;
}

} // namespace perfbench
