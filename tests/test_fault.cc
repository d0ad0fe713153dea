/**
 * @file
 * Fault-injection tests: the injector itself, every hardened path it
 * can trigger (setup failure, forced non-singleton, TCAM overflow,
 * soft-error bit flips in all four tables), and a long mixed-fault
 * soak that proves the engine never loses a route or serves a wrong
 * lookup while the whole degradation ladder is being exercised.
 *
 * Every test uses a fixed seed: a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "core/engine.hh"
#include "core/result_table.hh"
#include "core/subcell.hh"
#include "fault/fault.hh"
#include "route/reader.hh"
#include "route/synth.hh"
#include "tcam/tcam.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using fault::FaultInjector;
using fault::FaultPoint;
using fault::ScopedInjector;

// Tests that need live injection points skip themselves when the
// framework is compiled out (-DCHISEL_ENABLE_FAULT_INJECTION=OFF);
// the injector class itself and the lenient readers work regardless.
#if CHISEL_FAULT_INJECTION_ENABLED
#define REQUIRE_INJECTION() (void)0
#else
#define REQUIRE_INJECTION() \
    GTEST_SKIP() << "fault injection compiled out"
#endif

// ---- The injector itself ---------------------------------------------------

TEST(FaultInjector, InertByDefault)
{
    REQUIRE_INJECTION();
    // No injector installed: every point reads as "no fault".
    EXPECT_EQ(fault::activeInjector(), nullptr);
    EXPECT_FALSE(CHISEL_FAULT_FIRE(TcamOverflow));

    // An installed injector with nothing armed never fires either,
    // but it does count the polls.
    FaultInjector inj(7);
    ScopedInjector scope(&inj);
    ASSERT_EQ(fault::activeInjector(), &inj);
    EXPECT_FALSE(CHISEL_FAULT_FIRE(TcamOverflow));
    EXPECT_EQ(inj.polls(FaultPoint::TcamOverflow), 1u);
    EXPECT_EQ(inj.totalFires(), 0u);
}

TEST(FaultInjector, DeterministicFromSeed)
{
    auto pattern = [](uint64_t seed) {
        FaultInjector inj(seed);
        inj.arm(FaultPoint::BitFlipIndex, 0.3);
        std::vector<bool> fires;
        for (int i = 0; i < 64; ++i)
            fires.push_back(inj.shouldFire(FaultPoint::BitFlipIndex));
        return fires;
    };
    EXPECT_EQ(pattern(42), pattern(42));
    EXPECT_NE(pattern(42), pattern(43));
}

TEST(FaultInjector, MaxFiresBudgetAndDisarm)
{
    FaultInjector inj(1);
    inj.arm(FaultPoint::TcamOverflow, 1.0, 3);
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += inj.shouldFire(FaultPoint::TcamOverflow) ? 1 : 0;
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(inj.fires(FaultPoint::TcamOverflow), 3u);
    EXPECT_EQ(inj.polls(FaultPoint::TcamOverflow), 10u);

    inj.arm(FaultPoint::TcamOverflow, 1.0, 0);   // Re-arm, unlimited.
    EXPECT_TRUE(inj.shouldFire(FaultPoint::TcamOverflow));
    inj.disarm(FaultPoint::TcamOverflow);
    EXPECT_FALSE(inj.shouldFire(FaultPoint::TcamOverflow));
    EXPECT_EQ(inj.fires(FaultPoint::TcamOverflow), 4u);
}

TEST(FaultInjector, PointNames)
{
    for (size_t i = 0; i < fault::kFaultPointCount; ++i)
        EXPECT_STRNE(fault::faultPointName(static_cast<FaultPoint>(i)),
                     "?");
}

// ---- Direct table-level injection ------------------------------------------

TEST(FaultTcam, InjectedOverflowRefusesInsert)
{
    REQUIRE_INJECTION();
    Tcam tcam(8);
    ASSERT_TRUE(tcam.insert(Prefix::fromCidr("10.0.0.0/8"), 1));

    FaultInjector inj(5);
    inj.arm(FaultPoint::TcamOverflow, 1.0, 1);
    ScopedInjector scope(&inj);

    // The injected fault makes one insert report "full" despite room.
    EXPECT_FALSE(tcam.insert(Prefix::fromCidr("11.0.0.0/8"), 2));
    EXPECT_EQ(tcam.size(), 1u);
    // Budget exhausted: the next insert goes through.
    EXPECT_TRUE(tcam.insert(Prefix::fromCidr("11.0.0.0/8"), 2));
    // Overwrites bypass the capacity check and the injection point.
    EXPECT_TRUE(tcam.insert(Prefix::fromCidr("10.0.0.0/8"), 9));
}

TEST(FaultTcam, UnboundedTcamIsExempt)
{
    Tcam tcam(0);   // The LPM-baseline configuration.
    FaultInjector inj(5);
    inj.arm(FaultPoint::TcamOverflow, 1.0);
    ScopedInjector scope(&inj);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(tcam.insert(
            Prefix(Key128::fromIpv4(uint32_t(i) << 24), 8),
            NextHop(i)));
    }
    EXPECT_EQ(inj.fires(FaultPoint::TcamOverflow), 0u);
}

// ---- Engine-level scenarios ------------------------------------------------

/** Compare every lookup against a trie oracle; return mismatches. */
size_t
auditAgainstOracle(const ChiselEngine &engine, const RoutingTable &truth,
                   size_t keys, uint64_t seed)
{
    BinaryTrie oracle(truth);
    auto ks = generateLookupKeys(truth, keys, 32, 0.8, seed);
    size_t wrong = 0;
    for (const auto &k : ks) {
        auto a = oracle.lookup(k, 32);
        auto b = engine.lookup(k);
        if (a.has_value() != b.found || (a && a->nextHop != b.nextHop))
            ++wrong;
    }
    return wrong;
}

/** Every truth route must be findable with the right next hop. */
size_t
lostRoutes(const ChiselEngine &engine, const RoutingTable &truth)
{
    size_t lost = 0;
    for (const auto &r : truth.routes()) {
        auto nh = engine.find(r.prefix);
        if (!nh || *nh != r.nextHop)
            ++lost;
    }
    return lost;
}

TEST(FaultEngine, ForcedNonSingletonBecomesResetup)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(2000, 32, 11);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(12);
    inj.arm(FaultPoint::ForceNonSingleton, 1.0);
    ScopedInjector scope(&inj);

    // New collapsed groups that would normally take the singleton
    // fast path are forced through a partition re-setup instead.
    size_t resetups = 0;
    Rng rng(13);
    for (int i = 0; i < 40; ++i) {
        Prefix p(Key128::fromIpv4(static_cast<uint32_t>(rng.next64())),
                 24);
        UpdateOutcome out = engine.announce(p, NextHop(i + 1));
        ASSERT_TRUE(out.ok());
        truth.add(p, NextHop(i + 1));
        if (out == UpdateClass::Resetup)
            ++resetups;
        EXPECT_NE(UpdateClass(out), UpdateClass::SingletonInsert);
    }
    EXPECT_GT(resetups, 0u);
    EXPECT_GT(inj.fires(FaultPoint::ForceNonSingleton), 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, 14), 0u);
}

TEST(FaultEngine, SetupFailureRetriesWithReseed)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(2000, 32, 21);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(22);
    // One forced rebuild, whose setup fails twice: once inside the
    // insert's own rebuild and once on the recovery setup — the
    // bounded reseed-retry then succeeds.
    inj.arm(FaultPoint::ForceNonSingleton, 1.0, 1);
    inj.arm(FaultPoint::BloomierSetupFail, 1.0, 2);
    ScopedInjector scope(&inj);

    Prefix p = Prefix::fromCidr("203.0.113.0/24");
    UpdateOutcome out = engine.announce(p, 77);
    truth.add(p, 77);
    ASSERT_TRUE(out.ok());
    EXPECT_GT(out.setupRetries, 0u);

    RobustnessCounters rc = engine.robustness();
    EXPECT_GT(rc.setupRetries, 0u);
    EXPECT_EQ(engine.slowPathCount(), 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, 23), 0u);
}

TEST(FaultEngine, ExhaustedRetriesSpillToTcam)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(2000, 32, 31);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(32);
    // Every rebuild sheds a victim, every retry too: the stragglers
    // must leave through the spillover TCAM, and the routes survive.
    inj.arm(FaultPoint::ForceNonSingleton, 1.0);
    inj.arm(FaultPoint::BloomierSetupFail, 1.0);
    ScopedInjector scope(&inj);

    Rng rng(33);
    for (int i = 0; i < 10; ++i) {
        Prefix p(Key128::fromIpv4(static_cast<uint32_t>(rng.next64())),
                 28);
        UpdateOutcome out = engine.announce(p, NextHop(100 + i));
        ASSERT_TRUE(out.ok());
        truth.add(p, NextHop(100 + i));
    }
    EXPECT_GT(engine.spillCount(), 0u);
    RobustnessCounters rc = engine.robustness();
    EXPECT_GT(rc.setupRetries, 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, 34), 0u);
}

TEST(FaultEngine, TcamOverflowDegradesToSlowPath)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(2000, 32, 41);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(42);
    // Displace aggressively AND refuse every TCAM insert: the routes
    // must land in the software slow path, lookups stay correct, and
    // the outcome reports the degradation.
    inj.arm(FaultPoint::ForceNonSingleton, 1.0);
    inj.arm(FaultPoint::BloomierSetupFail, 1.0);
    inj.arm(FaultPoint::TcamOverflow, 1.0);
    ScopedInjector scope(&inj);

    bool degraded = false;
    Rng rng(43);
    for (int i = 0; i < 10; ++i) {
        Prefix p(Key128::fromIpv4(static_cast<uint32_t>(rng.next64())),
                 28);
        UpdateOutcome out = engine.announce(p, NextHop(200 + i));
        ASSERT_TRUE(out.ok());
        truth.add(p, NextHop(200 + i));
        degraded = degraded || out.degraded();
    }
    EXPECT_TRUE(degraded);
    EXPECT_GT(engine.slowPathCount(), 0u);
    EXPECT_TRUE(engine.spillOverCapacity());
    RobustnessCounters rc = engine.robustness();
    EXPECT_GT(rc.tcamOverflows, 0u);
    EXPECT_GT(rc.slowPathInserts, 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, 44), 0u);

    // A slow-path prefix is updatable and withdrawable in place.
    const Route parked = *truth.routes().rbegin();
    EXPECT_EQ(engine.announce(parked.prefix, 999),
              UpdateClass::NextHopChange);
    EXPECT_EQ(*engine.find(parked.prefix), 999u);
}

TEST(FaultEngine, SlowPathDrainsBackAfterWithdrawals)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(2000, 32, 51);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    std::vector<Prefix> parked;
    {
        FaultInjector inj(52);
        inj.arm(FaultPoint::ForceNonSingleton, 1.0);
        inj.arm(FaultPoint::BloomierSetupFail, 1.0);
        inj.arm(FaultPoint::TcamOverflow, 1.0);
        ScopedInjector scope(&inj);
        Rng rng(53);
        for (int i = 0; i < 12; ++i) {
            Prefix p(Key128::fromIpv4(
                         static_cast<uint32_t>(rng.next64())),
                     28);
            engine.announce(p, NextHop(300 + i));
            truth.add(p, NextHop(300 + i));
            parked.push_back(p);
        }
    }
    ASSERT_GT(engine.slowPathCount(), 0u);

    // Faults gone: withdrawing entries frees TCAM space, and the
    // resident slow-path routes migrate back on subsequent updates.
    size_t before = engine.slowPathCount();
    for (size_t i = 0; i + 1 < parked.size(); ++i) {
        engine.withdraw(parked[i]);
        truth.remove(parked[i]);
    }
    EXPECT_LT(engine.slowPathCount(), before);
    EXPECT_GT(engine.robustness().slowPathDrains, 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, 54), 0u);
}

// ---- Soft errors: detection and recovery -----------------------------------

/**
 * Inject @p point repeatedly (one flip per update) until a lookup
 * sweep detects a parity error, then verify that every lookup stayed
 * correct throughout and that the next update repairs the tables.
 */
void
softErrorScenario(FaultPoint point, uint64_t seed)
{
    RoutingTable table = generateScaledTable(1500, 32, seed);
    ChiselEngine engine(table);
    RoutingTable truth = table;
    BinaryTrie oracle(truth);
    auto keys = generateLookupKeys(truth, 300, 32, 0.9, seed + 1);

    FaultInjector inj(seed + 2);
    inj.arm(point, 1.0);   // One flip per update poll.
    ScopedInjector scope(&inj);

    // Alternate a benign update (carrying one flip) with a lookup
    // sweep, until some lookup trips over the corrupted word.  Flips
    // accumulate, so detection is certain long before the cap.
    Prefix knob = Prefix::fromCidr("198.51.100.0/24");
    bool detected = false;
    for (int round = 0; round < 400 && !detected; ++round) {
        engine.announce(knob, NextHop(round + 1));
        truth.add(knob, NextHop(round + 1));
        oracle.insert(knob, NextHop(round + 1));
        for (const auto &k : keys) {
            auto a = oracle.lookup(k, 32);
            auto b = engine.lookup(k);
            ASSERT_EQ(a.has_value(), b.found)
                << faultPointName(point) << " round " << round;
            if (a)
                ASSERT_EQ(a->nextHop, b.nextHop)
                    << faultPointName(point) << " round " << round;
        }
        detected = engine.robustness().parityDetected > 0;
    }
    ASSERT_TRUE(detected)
        << "no parity error detected for " << faultPointName(point);
    EXPECT_GT(inj.fires(point), 0u);

    // The next update triggers recover-by-resetup; stop injecting and
    // verify the hardware image is fully repaired.
    inj.disarm(point);
    engine.announce(knob, 12345);
    truth.add(knob, 12345);
    EXPECT_GT(engine.robustness().parityRecoveries, 0u);
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    EXPECT_EQ(auditAgainstOracle(engine, truth, 4000, seed + 3), 0u);
    EXPECT_TRUE(engine.selfCheck());
}

TEST(FaultSoftError, IndexBitFlipDetectedAndRecovered)
{
    REQUIRE_INJECTION();
    softErrorScenario(FaultPoint::BitFlipIndex, 61);
}

TEST(FaultSoftError, FilterBitFlipDetectedAndRecovered)
{
    REQUIRE_INJECTION();
    softErrorScenario(FaultPoint::BitFlipFilter, 71);
}

TEST(FaultSoftError, BitVectorBitFlipDetectedAndRecovered)
{
    REQUIRE_INJECTION();
    softErrorScenario(FaultPoint::BitFlipBitVector, 81);
}

TEST(FaultSoftError, ResultBitFlipDetectedAndRecovered)
{
    REQUIRE_INJECTION();
    softErrorScenario(FaultPoint::BitFlipResult, 91);
}

// ---- Targeted flips: every stored bit of a word is guarded ------------------

/**
 * A small sub-cell over 12-bit keys (base 8, stride 4), its own
 * Result Table, the routes it holds, and the probe keys: every key
 * that hits (one per live Result word, since base + stride = 12)
 * plus a sample of misses.
 */
struct SmallCell
{
    ResultTable results;
    std::unique_ptr<SubCell> cell;
    RoutingTable truth;
    std::vector<Key128> hits;
    std::vector<Key128> misses;

    explicit SmallCell(uint64_t seed)
    {
        SubCell::Config cfg;
        cfg.range = CellRange{8, 12, false};
        cfg.stride = 4;
        cfg.capacity = 32;
        cfg.keyWidth = 32;
        cfg.seed = seed;
        cell = std::make_unique<SubCell>(cfg, &results);
        Rng rng(seed);
        std::vector<Route> routes;
        for (int i = 0; i < 16; ++i) {
            unsigned len = static_cast<unsigned>(rng.nextRange(8, 12));
            Prefix p(Key128(rng.next64() & 0xFFF0000000000000ull, 0),
                     len);
            NextHop nh = static_cast<NextHop>(rng.nextBelow(3));
            if (!truth.find(p)) {
                truth.add(p, nh);
                routes.push_back(Route{p, nh});
            }
        }
        std::vector<Route> displaced;
        cell->buildFrom(routes, displaced);
        EXPECT_TRUE(displaced.empty());
        for (uint64_t i = 0; i < 4096; ++i) {
            Key128 key(i << 52, 0);
            if (cell->lookup(key).hit)
                hits.push_back(key);
            else if (i % 32 == 0)
                misses.push_back(key);
        }
    }

    /** Every probe answers like the oracle, matched length included. */
    ::testing::AssertionResult
    answersCorrectly() const
    {
        BinaryTrie oracle(truth);
        for (const auto *keys : {&hits, &misses}) {
            for (const Key128 &key : *keys) {
                auto want = oracle.lookup(key, 12);
                SubCell::Hit got = cell->lookup(key);
                if (want.has_value() != got.hit ||
                    (got.hit && (want->nextHop != got.nextHop ||
                                 want->prefix.length() !=
                                     got.matchedLength)))
                    return ::testing::AssertionFailure()
                           << "wrong answer for key " << (key.hi() >> 52);
            }
        }
        return ::testing::AssertionSuccess();
    }
};

TEST(FaultSoftError, EveryResultWordBitIsDetectedServedAndScrubbed)
{
    // Bits 0-31 are the next hop, 32 the parity bit, 33-37 the
    // matched length: a flip of any of them must be caught by the
    // lookup that reads the word, answered from the shadow copy, and
    // repaired by recover-by-resetup.
    SmallCell sc(0x5C1);
    ASSERT_FALSE(sc.hits.empty());
    for (unsigned bit = 0; bit < ResultTable::kWordBits; ++bit) {
        size_t detected_words = 0;
        for (uint32_t addr = 0; addr < sc.results.highWater(); ++addr) {
            uint64_t before = sc.cell->faultCounters().parityDetected;
            sc.results.flipBit(addr, bit);
            ASSERT_FALSE(sc.results.parityOk(addr));
            ASSERT_TRUE(sc.answersCorrectly())
                << "addr " << addr << " bit " << bit;
            if (sc.cell->faultCounters().parityDetected == before) {
                // No lookup reads this word (block over-provisioning).
                sc.results.flipBit(addr, bit);
                continue;
            }
            ++detected_words;
            ASSERT_TRUE(sc.cell->parityPending());
            std::vector<Route> displaced;
            sc.cell->recoverParity(displaced);
            ASSERT_TRUE(displaced.empty());
            EXPECT_TRUE(sc.results.parityOk(addr))
                << "addr " << addr << " bit " << bit;
            EXPECT_FALSE(sc.cell->parityPending());
        }
        // One live word per hitting key: each was caught.
        EXPECT_EQ(detected_words, sc.hits.size()) << "bit " << bit;
    }
    EXPECT_TRUE(sc.answersCorrectly());
}

TEST(FaultSoftError, EveryIndexWordBitIsDetectedServedAndScrubbed)
{
    // Bits 0-30 hold the code (only the low slot-width bits are
    // used) and bit 31 the parity: every one of them is covered.
    SmallCell sc(0x5C2);
    for (unsigned bit = 0; bit < 32; ++bit) {
        for (size_t slot = 0; slot < sc.cell->indexSlots(); ++slot) {
            sc.cell->flipIndexBit(slot, bit);
            ASSERT_EQ(sc.cell->verifyParity(), 1u)
                << "slot " << slot << " bit " << bit;
            ASSERT_TRUE(sc.answersCorrectly())
                << "slot " << slot << " bit " << bit;
            std::vector<Route> displaced;
            sc.cell->recoverParity(displaced);
            ASSERT_TRUE(displaced.empty());
            ASSERT_EQ(sc.cell->verifyParity(), 0u)
                << "slot " << slot << " bit " << bit;
        }
    }
    EXPECT_TRUE(sc.answersCorrectly());
}

TEST(FaultSoftError, AccessCountersExactUnderConcurrentUpdates)
{
    // N readers each make M lookups while a writer applies updates;
    // the striped counters must add up exactly (run under TSan in CI,
    // with CHISEL_THREADS readers).
    const char *env = std::getenv("CHISEL_THREADS");
    const unsigned readers =
        env != nullptr && std::atoi(env) > 0
            ? static_cast<unsigned>(std::atoi(env)) : 4;
    const uint64_t per_reader = 20000;
    RoutingTable table = generateScaledTable(2000, 32, 0xACC);
    concurrent::ConcurrentChisel plane(table);
    auto keys = generateLookupKeys(table, 1000, 32, 0.8, 0xACD);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0xACE);
    auto updates = gen.generate(300);

    std::atomic<uint64_t> result_reads{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < readers; ++r) {
        threads.emplace_back([&, r] {
            while (!go.load())
                std::this_thread::yield();
            uint64_t hits = 0;
            for (uint64_t i = 0; i < per_reader; ++i) {
                LookupResult res =
                    plane.lookup(keys[(i * readers + r) % keys.size()]);
                hits += res.found && !res.fromDefault;
            }
            result_reads += hits;
        });
    }
    threads.emplace_back([&] {
        while (!go.load())
            std::this_thread::yield();
        for (const Update &u : updates)
            plane.apply(u);
    });
    go = true;
    for (auto &t : threads)
        t.join();

    AccessCounters acc = plane.accessTotals();
    EXPECT_EQ(acc.lookups, readers * per_reader);
    EXPECT_EQ(acc.resultReads, result_reads.load());
}

// ---- Transactional updates: no half-applied state --------------------------

TEST(FaultEngine, UpdatesAreAtomicUnderForcedFailures)
{
    REQUIRE_INJECTION();
    // Property test: with the harshest failure schedule armed, after
    // EVERY update the engine agrees exactly with a reference
    // RoutingTable — no update is ever half-applied or lost.
    RoutingTable table = generateScaledTable(500, 32, 101);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(102);
    inj.arm(FaultPoint::ForceNonSingleton, 0.5);
    inj.arm(FaultPoint::BloomierSetupFail, 0.5);
    inj.arm(FaultPoint::TcamOverflow, 0.5);
    ScopedInjector scope(&inj);

    // A pool of prefixes that updates announce/withdraw repeatedly.
    Rng rng(103);
    std::vector<Prefix> pool;
    for (int i = 0; i < 60; ++i) {
        unsigned len = static_cast<unsigned>(rng.nextRange(8, 28));
        pool.emplace_back(
            Key128::fromIpv4(static_cast<uint32_t>(rng.next64()))
                .masked(len),
            len);
    }

    for (int step = 0; step < 500; ++step) {
        const Prefix &p = pool[rng.nextBelow(pool.size())];
        if (rng.nextBool(0.6)) {
            NextHop nh = NextHop(rng.nextRange(1, 1000));
            UpdateOutcome out = engine.announce(p, nh);
            ASSERT_TRUE(out.ok()) << "step " << step;
            truth.add(p, nh);
        } else {
            engine.withdraw(p);
            truth.remove(p);
        }
        // Exact agreement after every single update.
        ASSERT_EQ(engine.routeCount(), truth.size())
            << "step " << step;
        for (const auto &q : pool) {
            auto want = truth.find(q);
            auto got = engine.find(q);
            ASSERT_EQ(want.has_value(), got.has_value())
                << "step " << step;
            if (want)
                ASSERT_EQ(*want, *got) << "step " << step;
        }
    }
    EXPECT_GT(inj.totalFires(), 0u);
}

// ---- The soak: everything at once ------------------------------------------

TEST(FaultSoak, TenThousandUpdatesUnderMixedFaults)
{
    REQUIRE_INJECTION();
    RoutingTable table = generateScaledTable(4000, 32, 201);
    ChiselEngine engine(table);
    RoutingTable truth = table;

    FaultInjector inj(202);
    // BloomierSetupFail must be high enough that some setups fail
    // through all Config::setupRetries reseeds (p^4 per resetup) and
    // actually reach the spillover TCAM.
    inj.arm(FaultPoint::ForceNonSingleton, 0.10);
    inj.arm(FaultPoint::BloomierSetupFail, 0.50);
    inj.arm(FaultPoint::TcamOverflow, 0.50);
    inj.arm(FaultPoint::BitFlipIndex, 0.02, 25);
    inj.arm(FaultPoint::BitFlipFilter, 0.02, 25);
    inj.arm(FaultPoint::BitFlipBitVector, 0.02, 25);
    inj.arm(FaultPoint::BitFlipResult, 0.02, 25);
    ScopedInjector scope(&inj);

    Rng rng(203);
    std::vector<Route> pool;
    for (const auto &r : truth.routes())
        pool.push_back(r);

    const int kUpdates = 10000;
    for (int step = 0; step < kUpdates; ++step) {
        double dice = rng.nextDouble();
        if (dice < 0.45 || pool.empty()) {
            // Fresh announce.
            unsigned len = static_cast<unsigned>(rng.nextRange(8, 28));
            Prefix p(Key128::fromIpv4(
                         static_cast<uint32_t>(rng.next64()))
                         .masked(len),
                     len);
            NextHop nh = NextHop(rng.nextRange(1, 4096));
            ASSERT_TRUE(engine.announce(p, nh).ok());
            truth.add(p, nh);
            pool.push_back(Route{p, nh});
        } else if (dice < 0.75) {
            // Withdraw (and route-flap half the time later).
            size_t i = rng.nextBelow(pool.size());
            engine.withdraw(pool[i].prefix);
            truth.remove(pool[i].prefix);
            pool[i] = pool.back();
            pool.pop_back();
        } else {
            // Next-hop change of an existing route.
            size_t i = rng.nextBelow(pool.size());
            NextHop nh = NextHop(rng.nextRange(1, 4096));
            ASSERT_TRUE(engine.announce(pool[i].prefix, nh).ok());
            truth.add(pool[i].prefix, nh);
            pool[i].nextHop = nh;
        }

        // Periodic correctness probes (lookups double as the parity
        // detectors that schedule recoveries).
        if (step % 250 == 0) {
            ASSERT_EQ(auditAgainstOracle(engine, truth, 500,
                                         uint64_t(step) + 205),
                      0u)
                << "step " << step;
        }
    }

    // Zero lost routes, zero false positives: the exported state is
    // exactly the reference table.
    EXPECT_EQ(lostRoutes(engine, truth), 0u);
    RoutingTable exported = engine.exportTable();
    EXPECT_EQ(exported.size(), truth.size());
    for (const auto &r : exported.routes()) {
        auto nh = truth.find(r.prefix);
        ASSERT_TRUE(nh.has_value()) << r.prefix.str();
        EXPECT_EQ(*nh, r.nextHop);
    }
    EXPECT_EQ(auditAgainstOracle(engine, truth, 20000, 206), 0u);

    // The schedule actually exercised the ladder.
    RobustnessCounters rc = engine.robustness();
    EXPECT_GT(inj.totalFires(), 0u);
    EXPECT_GT(rc.setupRetries, 0u);
    EXPECT_GT(rc.tcamOverflows, 0u);
    SUCCEED() << "fires=" << inj.totalFires()
              << " retries=" << rc.setupRetries
              << " overflows=" << rc.tcamOverflows
              << " parity=" << rc.parityDetected << "/"
              << rc.parityRecoveries;
}

// ---- Reader recovery -------------------------------------------------------

TEST(FaultReader, LenientTableParseSkipsAndReports)
{
    std::istringstream in(
        "10.0.0.0/8 7\n"
        "999.0.0.0/8 1\n"        // Bad octet.
        "10.1.0.0/16\n"          // Missing next hop.
        "not_a_prefix 5\n"       // Unparsable token.
        "192.168.0.0/16 9\n");
    ReadReport report;
    RoutingTable t = readTable(in, &report);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(report.lines, 5u);
    EXPECT_EQ(report.parsed, 2u);
    EXPECT_EQ(report.skipped, 3u);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.errors.size(), 3u);
    EXPECT_EQ(report.errors[0].first, 2u);
    EXPECT_EQ(report.errors[1].first, 3u);
    EXPECT_EQ(report.errors[2].first, 4u);
}

TEST(FaultReader, LenientTraceParseSkipsAndReports)
{
    std::istringstream in(
        "A 10.0.0.0/8 4\n"
        "X 10.0.0.0/8\n"         // Unknown op.
        "A 10.1.0.0/16\n"        // Announce without next hop.
        "W\n"                    // Missing prefix.
        "W 10.0.0.0/8\n");
    ReadReport report;
    auto trace = readTrace(in, &report);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(report.skipped, 3u);
    EXPECT_EQ(report.parsed, 2u);
    EXPECT_EQ(trace[0].kind, UpdateKind::Announce);
    EXPECT_EQ(trace[1].kind, UpdateKind::Withdraw);
}

TEST(FaultReader, StrictModeStillThrows)
{
    std::istringstream in("10.0.0.0/8\n");
    EXPECT_THROW(readTable(in), ChiselError);
}

} // anonymous namespace
} // namespace chisel
