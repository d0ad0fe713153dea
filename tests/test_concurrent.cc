/**
 * @file
 * Concurrency tests (docs/concurrency.md): the synchronization
 * primitives (epoch manager, relaxed counters),
 * the per-thread fault-injector streams, the thread-safe telemetry
 * and logging layers, the scrub path, and — the centerpiece — a
 * 4-reader / 1-writer stress run in which every tagged lookup is
 * validated against a trie oracle replayed to the exact generation
 * that served it.
 *
 * Thread count: set CHISEL_THREADS to override the default 4 reader
 * threads (the TSan CI leg runs this binary with CHISEL_THREADS=4).
 * Every test uses fixed seeds, so failures replay exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "concurrent/concurrent_engine.hh"
#include "concurrent/epoch.hh"
#include "concurrent/relaxed.hh"
#include "core/engine.hh"
#include "fault/fault.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using concurrent::EpochManager;
using concurrent::RelaxedU64;
using concurrent::TaggedLookup;

unsigned
readerThreads()
{
    const char *env = std::getenv("CHISEL_THREADS");
    if (env != nullptr) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 4;
}

// ---- EpochManager ----------------------------------------------------------

TEST(Epoch, SynchronizeWaitsForActiveReader)
{
    EpochManager mgr;
    std::atomic<bool> readerIn{false};
    std::atomic<bool> readerMayLeave{false};
    std::atomic<bool> syncDone{false};

    std::thread reader([&] {
        EpochManager::ReadGuard guard(mgr);
        readerIn.store(true, std::memory_order_release);
        while (!readerMayLeave.load(std::memory_order_acquire))
            std::this_thread::yield();
    });

    while (!readerIn.load(std::memory_order_acquire))
        std::this_thread::yield();

    std::thread writer([&] {
        mgr.synchronize();
        syncDone.store(true, std::memory_order_release);
    });

    // The reader is parked inside its critical section, so the grace
    // period cannot have elapsed yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(syncDone.load(std::memory_order_acquire));

    readerMayLeave.store(true, std::memory_order_release);
    reader.join();
    writer.join();
    EXPECT_TRUE(syncDone.load(std::memory_order_acquire));
}

TEST(Epoch, SynchronizeIgnoresQuiescentThreads)
{
    EpochManager mgr;
    {
        EpochManager::ReadGuard guard(mgr);
    }
    // No reader active: synchronize must return immediately.
    mgr.synchronize();
    mgr.synchronize();
    EXPECT_GE(mgr.epoch(), 3u);
}

// ---- Relaxed counters ------------------------------------------------------

TEST(RelaxedCounters, ConcurrentIncrementsAllLand)
{
    RelaxedU64 counter;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPer = 50000;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kPer; ++i)
                ++counter;
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(counter.load(), kThreads * kPer);
}

// ---- Telemetry under threads -----------------------------------------------

TEST(TelemetryConcurrency, CountersAndHistogramsSumExactly)
{
    telemetry::MetricRegistry reg;
    telemetry::Counter &c = reg.counter("stress.count");
    telemetry::Pow2Histogram &h = reg.histogram("stress.hist");

    constexpr unsigned kThreads = 6;
    constexpr uint64_t kPer = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPer; ++i) {
                c.inc();
                h.sample(t * kPer + i);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPer);
    EXPECT_EQ(h.count(), kThreads * kPer);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kThreads * kPer - 1);
    // The export path reads a consistent-enough snapshot.
    EXPECT_NE(reg.toJson(false).find("stress.count"), std::string::npos);
}

// ---- Logging under threads -------------------------------------------------

TEST(LoggingConcurrency, WarnOnceAndSinkSwapAreSafe)
{
    static std::atomic<uint64_t> emitted{0};
    emitted.store(0);
    LogSink counting = [](LogLevel, const std::string &) {
        emitted.fetch_add(1, std::memory_order_relaxed);
    };
    LogSink prev = setLogSink(counting);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i)
                warnOnce("concurrent warnOnce probe");
        });
    }
    // One thread races sink swaps against the warners.
    threads.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
            setLogSink(counting);
            std::this_thread::yield();
        }
    });
    for (auto &th : threads)
        th.join();

    setLogSink(prev);
    // One call site => at most one emission no matter the thread count.
    EXPECT_LE(emitted.load(), 1u);
}

// ---- FaultInjector per-thread streams --------------------------------------

#if CHISEL_FAULT_INJECTION_ENABLED

/** Poll pattern of @p polls decisions on the calling thread. */
std::vector<bool>
pollPattern(fault::FaultInjector &inj, size_t polls)
{
    std::vector<bool> out;
    out.reserve(polls);
    for (size_t i = 0; i < polls; ++i)
        out.push_back(inj.shouldFire(fault::FaultPoint::TcamOverflow));
    return out;
}

TEST(FaultInjectorThreads, PerThreadStreamsAreReproducible)
{
    constexpr uint64_t kSeed = 321;
    constexpr size_t kPolls = 2000;
    constexpr unsigned kThreads = 3;

    auto run = [&] {
        fault::FaultInjector inj(kSeed);
        inj.arm(fault::FaultPoint::TcamOverflow, 0.25);
        std::vector<std::vector<bool>> patterns(kThreads);
        // Threads start in order and run concurrently; each records
        // its own stream.  Ordinal assignment races, so compare the
        // *set* of streams, which is determined by seed alone.
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                patterns[t] = pollPattern(inj, kPolls);
            });
        }
        for (auto &th : threads)
            th.join();
        std::sort(patterns.begin(), patterns.end());
        return patterns;
    };

    EXPECT_EQ(run(), run());
}

TEST(FaultInjectorThreads, FirstStreamMatchesLegacySingleThread)
{
    constexpr uint64_t kSeed = 99;
    constexpr size_t kPolls = 1000;

    fault::FaultInjector solo(kSeed);
    solo.arm(fault::FaultPoint::TcamOverflow, 0.5);
    std::vector<bool> reference = pollPattern(solo, kPolls);

    // The first thread to touch a shared injector draws ordinal 0 and
    // must reproduce the legacy single-threaded stream exactly.
    fault::FaultInjector shared(kSeed);
    shared.arm(fault::FaultPoint::TcamOverflow, 0.5);
    EXPECT_EQ(shared.threadOrdinal(), 0u);
    EXPECT_EQ(pollPattern(shared, kPolls), reference);

    std::thread other([&] {
        EXPECT_EQ(shared.threadOrdinal(), 1u);
    });
    other.join();
}

TEST(FaultInjectorThreads, CountersTallyAcrossThreads)
{
    fault::FaultInjector inj(5);
    inj.arm(fault::FaultPoint::TcamOverflow, 1.0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back(
            [&] { pollPattern(inj, 1000); });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(inj.polls(fault::FaultPoint::TcamOverflow), 4000u);
    EXPECT_EQ(inj.fires(fault::FaultPoint::TcamOverflow), 4000u);
}

#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- Scrub path ------------------------------------------------------------

TEST(Scrub, CleanEngineScrubsClean)
{
    RoutingTable table = generateScaledTable(2000, 32, 11);
    ChiselEngine e(table);
    ScrubReport r = e.scrub();
    EXPECT_GT(r.wordsChecked, 0u);
    EXPECT_EQ(r.errorsFound, 0u);
    EXPECT_EQ(r.cellsRecovered, 0u);
    EXPECT_TRUE(e.selfCheck());
}

#if CHISEL_FAULT_INJECTION_ENABLED

TEST(Scrub, DetectsAndRecoversInjectedBitFlips)
{
    RoutingTable table = generateScaledTable(2000, 32, 12);
    ChiselEngine e(table);
    BinaryTrie oracle(table);

    // Flip bits in all three on-chip tables via the injector, firing
    // on the next update poll.
    // Each point is polled once per update, so two faulty updates
    // fire each armed point twice — six corrupted bits in total.
    fault::FaultInjector inj(77);
    inj.arm(fault::FaultPoint::BitFlipIndex, 1.0, 2);
    inj.arm(fault::FaultPoint::BitFlipFilter, 1.0, 2);
    inj.arm(fault::FaultPoint::BitFlipBitVector, 1.0, 2);
    {
        fault::ScopedInjector scope(&inj);
        e.announce(table.routes()[0].prefix, 4242);
        e.announce(table.routes()[1].prefix, 4243);
    }
    EXPECT_EQ(inj.totalFires(), 6u);

    ScrubReport r = e.scrub();
    // A flip can land on a word whose parity a lookup never checks
    // (an unused slot), but six independent flips essentially always
    // leave at least one detectable error; recovery rewrites all.
    EXPECT_GT(r.errorsFound, 0u);
    EXPECT_GT(r.cellsRecovered, 0u);

    // After the scrub the engine serves exact oracle answers again.
    oracle.insert(table.routes()[0].prefix, 4242);
    oracle.insert(table.routes()[1].prefix, 4243);
    auto keys = generateLookupKeys(table, 3000, 32, 0.7, 13);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }

    // And a second pass finds nothing left to fix.
    ScrubReport clean = e.scrub();
    EXPECT_EQ(clean.errorsFound, 0u);
}

#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- ConcurrentChisel basics -----------------------------------------------

TEST(ConcurrentChisel, MatchesOracleSingleThreaded)
{
    RoutingTable table = generateScaledTable(3000, 32, 21);
    ConcurrentChisel c(table);
    BinaryTrie oracle(table);

    EXPECT_EQ(c.routeCount(), table.size());
    EXPECT_EQ(c.generation(), 0u);

    auto keys = generateLookupKeys(table, 5000, 32, 0.7, 22);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        TaggedLookup b = c.lookupTagged(key);
        EXPECT_EQ(b.generation, 0u);
        ASSERT_EQ(a.has_value(), b.result.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.result.nextHop);
    }

    // Updates bump the generation and land in both images.
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 23);
    for (int i = 0; i < 200; ++i)
        c.apply(gen.next());
    EXPECT_EQ(c.generation(), 200u);
    EXPECT_EQ(c.updatesApplied(), 200u);
    EXPECT_TRUE(c.selfCheck());
}

TEST(ConcurrentChisel, SnapshotRoundTripAndResetup)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "chisel_concurrent_snap_test";
    fs::create_directories(dir);
    std::string path = (dir / "engine.snap").string();

    RoutingTable table = generateScaledTable(1500, 32, 41);
    ConcurrentChisel c(table);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 42);
    for (int i = 0; i < 100; ++i)
        c.apply(gen.next());

    EXPECT_GT(c.saveSnapshot(path), 0u);

    // Restore into a second instance; lookups must agree everywhere.
    ConcurrentChisel restored{RoutingTable{}};
    ASSERT_TRUE(restored.restoreFromSnapshot(path));
    EXPECT_EQ(restored.routeCount(), c.routeCount());

    auto keys = generateLookupKeys(table, 2000, 32, 0.7, 43);
    for (const auto &key : keys) {
        LookupResult a = c.lookup(key);
        LookupResult b = restored.lookup(key);
        ASSERT_EQ(a.found, b.found);
        if (a.found)
            EXPECT_EQ(a.nextHop, b.nextHop);
    }

    // A resetup rebuilds both images without changing the route set.
    size_t before = c.routeCount();
    c.resetup();
    EXPECT_EQ(c.routeCount(), before);
    EXPECT_TRUE(c.selfCheck());

    // A garbage path leaves the serving state untouched.
    EXPECT_FALSE(
        restored.restoreFromSnapshot((dir / "missing.snap").string()));
    EXPECT_EQ(restored.routeCount(), before);

    fs::remove_all(dir);
}

TEST(ConcurrentChisel, BackgroundScrubberRuns)
{
    RoutingTable table = generateScaledTable(500, 32, 51);
    ConcurrentOptions opts;
    opts.scrubInterval = std::chrono::milliseconds(1);
    ConcurrentChisel c(table, {}, opts);

    auto keys = generateLookupKeys(table, 200, 32, 0.7, 52);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (c.scrubPasses() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
        for (const auto &key : keys)
            c.lookup(key);
    }
    EXPECT_GE(c.scrubPasses(), 3u);
    EXPECT_TRUE(c.selfCheck());
}

TEST(ConcurrentChisel, IdleControlThreadStopsPromptly)
{
    // The control thread sleeps until its next deadline, an hour
    // out; the destructor must wake it rather than wait that out.
    ConcurrentOptions opts;
    opts.gcInterval = std::chrono::hours(1);
    auto *c = new ConcurrentChisel(generateScaledTable(200, 32, 53), {},
                                   opts);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Destroy on a helper thread so a wedged destructor fails the
    // test instead of hanging it.
    auto destroyed = std::make_shared<std::atomic<bool>>(false);
    std::thread destroyer([c, destroyed] {
        delete c;
        destroyed->store(true, std::memory_order_release);
    });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!destroyed->load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (destroyed->load(std::memory_order_acquire)) {
        destroyer.join();
    } else {
        // A wedged destructor blocks for the full hour: let the
        // helper go so the suite reports the failure instead of
        // hanging on it.
        ADD_FAILURE() << "destructor still waiting after 1 s";
        destroyer.detach();
    }
}

TEST(ConcurrentChisel, TimedGcStillRunsOnControlThread)
{
    ChiselConfig config;
    config.defaultTtlMs = 100;
    ConcurrentOptions opts;
    opts.ttlWallClock = false;   // Only advanceTtlClock moves time.
    opts.gcInterval = std::chrono::milliseconds(5);
    ConcurrentChisel c(RoutingTable{}, config, opts);
    Prefix p(Key128::fromIpv4(0x0A000000u), 24);
    c.announce(p, 1);

    // Past the route's TTL: the control thread's next GC pass, not a
    // direct gcTick(), must retire it.
    c.advanceTtlClock(1000);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (c.expired() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(c.expired(), 0u);
    EXPECT_FALSE(c.find(p).has_value());
}

TEST(ConcurrentChisel, HealthTickRunsCapacityResize)
{
    // Under-provisioned on purpose: starved cells spill, and the
    // small spill TCAM sits past its warn level from the first sample.
    ChiselConfig config;
    config.minCellCapacity = 8;
    config.capacityHeadroom = 0.01;
    config.spillCapacity = 16;
    RoutingTable truth = generateScaledTable(3000, 32, 57);
    ConcurrentChisel c(truth, config);
    for (const Route &r : generateScaledTable(500, 32, 58).routes()) {
        ASSERT_TRUE(c.announce(r.prefix, r.nextHop).ok());
        truth.add(r.prefix, r.nextHop);
    }
    ASSERT_GT(c.robustness().tcamOverflows, 0u);

    // Three consecutive capacity-pressure samples arm a Resize, and
    // the tick that arms it runs it.
    c.healthTick();
    c.healthTick();
    EXPECT_EQ(c.resizes(), 0u);
    c.healthTick();
    EXPECT_EQ(c.resizes(), 1u);
    EXPECT_GT(c.config().spillCapacity, config.spillCapacity);

    BinaryTrie oracle(truth);
    for (const Route &r : truth.routes()) {
        std::optional<Route> want = oracle.lookup(r.prefix.bits(), 32);
        ASSERT_TRUE(want.has_value());
        LookupResult got = c.lookup(r.prefix.bits());
        ASSERT_TRUE(got.found) << r.prefix.str();
        EXPECT_EQ(got.nextHop, want->nextHop);
        EXPECT_EQ(got.matchedLength, want->prefix.length());
    }
    EXPECT_TRUE(c.selfCheck());
}

// ---- The stress test -------------------------------------------------------

/** One recorded reader observation. */
struct Sample
{
    uint32_t keyIndex;
    uint64_t generation;
    bool found;
    NextHop nextHop;
};

/**
 * N readers stream tagged lookups while one writer replays a
 * synthetic BGP trace; every recorded sample is then checked against
 * a trie oracle replayed to exactly the generation that served it.
 * This is the "no lookup is ever inconsistent with some published
 * table version" contract — readers may trail the writer, but can
 * never see a torn or intermediate state.
 */
TEST(ConcurrentStress, ReadersAlwaysSeeSomePublishedGeneration)
{
    constexpr size_t kRoutes = 2000;
    constexpr size_t kUpdates = 800;
    constexpr size_t kSamplesPerReader = 10000;

    RoutingTable table = generateScaledTable(kRoutes, 32, 61);
    std::vector<Key128> keys =
        generateLookupKeys(table, 2048, 32, 0.7, 62);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 63);
    std::vector<Update> updates = gen.generate(kUpdates);

    ConcurrentChisel c(table);

    const unsigned nReaders = readerThreads();
    std::atomic<bool> writerDone{false};
    std::vector<std::vector<Sample>> samples(nReaders);

    std::vector<std::thread> readers;
    for (unsigned t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            std::vector<Sample> &mine = samples[t];
            mine.reserve(kSamplesPerReader);
            uint64_t i = t;   // Stagger the key walk per reader.
            while (!writerDone.load(std::memory_order_acquire) ||
                   mine.size() < 1000) {
                uint32_t ki =
                    static_cast<uint32_t>(i++ % keys.size());
                TaggedLookup r = c.lookupTagged(keys[ki]);
                if (mine.size() < kSamplesPerReader) {
                    mine.push_back({ki, r.generation, r.result.found,
                                    r.result.nextHop});
                } else {
                    // Full: keep the read side hot but stop hogging
                    // the cores (single-core CI would otherwise
                    // starve the writer).
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                // Let the writer run between lookups when cores are
                // scarce; a no-op when there are cores to spare.
                std::this_thread::yield();
            }
        });
    }

    size_t applied = 0;
    for (const Update &u : updates) {
        c.apply(u);
        // Pace the writer so readers demonstrably overlap many table
        // versions even on a single-core CI runner; a real update
        // feed is orders of magnitude sparser than lookups anyway.
        if (++applied % 10 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        std::this_thread::yield();
    }
    writerDone.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(c.generation(), kUpdates);

    // Bucket every sample by the generation that served it.
    std::vector<std::vector<Sample>> byGen(kUpdates + 1);
    size_t total = 0;
    for (const auto &vec : samples) {
        for (const Sample &s : vec) {
            ASSERT_LE(s.generation, kUpdates);
            byGen[s.generation].push_back(s);
            ++total;
        }
    }
    ASSERT_GT(total, 0u);

    // Replay the oracle one generation at a time and validate the
    // samples tagged with it.  Generation g == initial table plus the
    // first g updates.
    BinaryTrie oracle(table);
    size_t checked = 0, generationsObserved = 0;
    for (uint64_t g = 0; g <= kUpdates; ++g) {
        if (g > 0) {
            const Update &u = updates[g - 1];
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
        if (byGen[g].empty())
            continue;
        ++generationsObserved;
        for (const Sample &s : byGen[g]) {
            auto expect = oracle.lookup(keys[s.keyIndex], 32);
            ASSERT_EQ(expect.has_value(), s.found)
                << "generation " << g << " key " << s.keyIndex;
            if (expect) {
                ASSERT_EQ(expect->nextHop, s.nextHop)
                    << "generation " << g << " key " << s.keyIndex;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, total);
    // Readers overlapped the writer across many table versions, not
    // just the endpoints — otherwise this test proved nothing.
    EXPECT_GT(generationsObserved, 2u);

    EXPECT_TRUE(c.selfCheck());
    EXPECT_GE(c.accessTotals().lookups, total);
}

/**
 * Same overlap, harsher churn: the writer interleaves scrubs and a
 * snapshot save while readers stream, exercising every flip path
 * (update, scrub, install) under contention.
 */
TEST(ConcurrentStress, MixedWriterOperationsKeepReadersConsistent)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "chisel_concurrent_mixed_test";
    fs::create_directories(dir);

    RoutingTable table = generateScaledTable(1000, 32, 71);
    std::vector<Key128> keys =
        generateLookupKeys(table, 1024, 32, 0.7, 72);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 73);

    ConcurrentChisel c(table);
    BinaryTrie oracle(table);

    const unsigned nReaders = readerThreads();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lookups{0};

    std::vector<std::thread> readers;
    for (unsigned t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            uint64_t i = t;
            while (!stop.load(std::memory_order_acquire)) {
                const Key128 &key = keys[i++ % keys.size()];
                LookupResult r = c.lookup(key);
                // Sanity only — full validation is the test above.
                // A hit must carry a real next hop.
                if (r.found && !r.fromDefault)
                    ASSERT_NE(r.nextHop, kNoRoute);
                lookups.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
            }
        });
    }

    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 30; ++i) {
            Update u = gen.next();
            c.apply(u);
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
        ScrubReport r = c.scrubNow();
        EXPECT_EQ(r.errorsFound, 0u);
        if (round == 5) {
            c.saveSnapshot((dir / "mid.snap").string());
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_GT(lookups.load(), 0u);

    // Settled state equals the oracle.
    for (const Key128 &key : keys) {
        auto a = oracle.lookup(key, 32);
        LookupResult b = c.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }
    EXPECT_TRUE(c.selfCheck());
    fs::remove_all(dir);
}

} // anonymous namespace
} // namespace chisel
