/**
 * @file
 * Unit tests for one Chisel sub-cell: build, the four-access lookup
 * path, announces, withdraws, dirty retention and purging.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitops.hh"
#include "common/random.hh"
#include "core/result_table.hh"
#include "core/subcell.hh"
#include "persist/codec.hh"
#include "route/synth.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

SubCell::Config
smallConfig()
{
    SubCell::Config cfg;
    cfg.range = CellRange{8, 12, false};
    cfg.stride = 4;
    cfg.capacity = 512;
    cfg.keyWidth = 32;
    cfg.seed = 0xABCD;
    return cfg;
}

TEST(SubCell, BuildAndLookupPaperStyle)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    std::vector<Route> routes = {
        {Prefix::fromCidr("10.0.0.0/8"), 1},
        {Prefix::fromCidr("10.128.0.0/10"), 2},
        {Prefix::fromCidr("10.160.0.0/12"), 3},
        {Prefix::fromCidr("11.0.0.0/8"), 4},
    };
    cell.buildFrom(routes, displaced);
    EXPECT_TRUE(displaced.empty());
    EXPECT_EQ(cell.routeCount(), 4u);
    EXPECT_EQ(cell.groupCount(), 2u);   // Groups 10/8 and 11/8.
    EXPECT_TRUE(cell.selfCheck());

    auto h = cell.lookup(Key128::fromIpv4(0x0A000001));
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 1u);
    EXPECT_EQ(h.matchedLength, 8u);

    h = cell.lookup(Key128::fromIpv4(0x0A800001));   // 10.128...
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 2u);
    EXPECT_EQ(h.matchedLength, 10u);

    h = cell.lookup(Key128::fromIpv4(0x0AA00001));   // 10.160...
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 3u);
    EXPECT_EQ(h.matchedLength, 12u);

    h = cell.lookup(Key128::fromIpv4(0x0B123456));
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 4u);

    EXPECT_FALSE(cell.lookup(Key128::fromIpv4(0x0C000000)).hit);
}

TEST(SubCell, NoFalsePositivesOnRandomProbes)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    std::vector<Route> routes;
    Rng rng(21);
    RoutingTable truth;
    for (int i = 0; i < 200; ++i) {
        unsigned len = static_cast<unsigned>(rng.nextRange(8, 12));
        Prefix p(Key128(rng.next64(), 0), len);
        if (truth.contains(p))
            continue;   // Keep truth and routes in lockstep.
        truth.add(p, static_cast<NextHop>(i));
        routes.push_back(Route{p, static_cast<NextHop>(i)});
    }
    cell.buildFrom(routes, displaced);
    ASSERT_TRUE(displaced.empty());

    BinaryTrie oracle(truth);
    for (int i = 0; i < 5000; ++i) {
        Key128 key(rng.next64(), 0);
        key = key.masked(32);
        auto h = cell.lookup(key);
        auto o = oracle.lookup(key, 12);   // Cell serves /8../12.
        ASSERT_EQ(h.hit, o.has_value());
        if (h.hit) {
            EXPECT_EQ(h.nextHop, o->nextHop);
            EXPECT_EQ(h.matchedLength, o->prefix.length());
        }
    }
}

TEST(SubCell, AnnounceClassification)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    cell.buildFrom({{Prefix::fromCidr("10.0.0.0/8"), 1}}, displaced);

    // Same prefix again: next-hop change.
    EXPECT_EQ(cell.announce(Prefix::fromCidr("10.0.0.0/8"), 2,
                            displaced),
              UpdateClass::NextHopChange);

    // New prefix collapsing onto the existing group: Add PC.
    EXPECT_EQ(cell.announce(Prefix::fromCidr("10.128.0.0/9"), 3,
                            displaced),
              UpdateClass::AddCollapsed);

    // New group: singleton insert (table is nearly empty).
    EXPECT_EQ(cell.announce(Prefix::fromCidr("12.0.0.0/8"), 4,
                            displaced),
              UpdateClass::SingletonInsert);
    EXPECT_TRUE(displaced.empty());
    EXPECT_TRUE(cell.selfCheck());
}

TEST(SubCell, WithdrawThenFlapUsesDirtyBit)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    cell.buildFrom({{Prefix::fromCidr("10.0.0.0/8"), 1}}, displaced);

    EXPECT_EQ(cell.withdraw(Prefix::fromCidr("10.0.0.0/8")),
              UpdateClass::Withdraw);
    EXPECT_EQ(cell.dirtyCount(), 1u);
    EXPECT_FALSE(cell.lookup(Key128::fromIpv4(0x0A000001)).hit);

    // Flap: the announce must restore the group without touching the
    // Index Table (classified RouteFlap, not Singleton/Resetup).
    auto before = cell.indexStats();
    EXPECT_EQ(cell.announce(Prefix::fromCidr("10.0.0.0/8"), 5,
                            displaced),
              UpdateClass::RouteFlap);
    auto after = cell.indexStats();
    EXPECT_EQ(after.singletonInserts, before.singletonInserts);
    EXPECT_EQ(after.rebuilds, before.rebuilds);
    EXPECT_EQ(cell.dirtyCount(), 0u);

    auto h = cell.lookup(Key128::fromIpv4(0x0A000001));
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 5u);
}

TEST(SubCell, PartialWithdrawKeepsGroupLive)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    cell.buildFrom({{Prefix::fromCidr("10.0.0.0/8"), 1},
                    {Prefix::fromCidr("10.192.0.0/10"), 2}},
                   displaced);

    EXPECT_EQ(cell.withdraw(Prefix::fromCidr("10.192.0.0/10")),
              UpdateClass::Withdraw);
    EXPECT_EQ(cell.dirtyCount(), 0u);
    auto h = cell.lookup(Key128::fromIpv4(0x0AC00001));
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.nextHop, 1u);   // /8 re-exposed under 10.192.
}

TEST(SubCell, WithdrawAbsentIsNoOp)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    EXPECT_EQ(cell.withdraw(Prefix::fromCidr("10.0.0.0/8")),
              UpdateClass::NoOp);
}

TEST(SubCell, FlapViaRecentlyRemovedMember)
{
    // Withdraw one member of a multi-member group (group never goes
    // dirty), then re-announce it: still a flap.
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    std::vector<Route> displaced;
    cell.buildFrom({{Prefix::fromCidr("10.0.0.0/8"), 1},
                    {Prefix::fromCidr("10.64.0.0/10"), 2}},
                   displaced);
    cell.withdraw(Prefix::fromCidr("10.64.0.0/10"));
    EXPECT_EQ(cell.announce(Prefix::fromCidr("10.64.0.0/10"), 3,
                            displaced),
              UpdateClass::RouteFlap);
}

TEST(SubCell, PurgeDirtyFreesSlots)
{
    ResultTable results;
    auto cfg = smallConfig();
    cfg.capacity = 64;
    SubCell cell(cfg, &results);
    std::vector<Route> displaced;
    for (uint32_t i = 0; i < 32; ++i) {
        cell.announce(Prefix::ipv4(i << 24, 8), i, displaced);
    }
    for (uint32_t i = 0; i < 32; ++i)
        cell.withdraw(Prefix::ipv4(i << 24, 8));
    EXPECT_EQ(cell.dirtyCount(), 32u);
    EXPECT_EQ(cell.purgeDirty(), 32u);
    EXPECT_EQ(cell.dirtyCount(), 0u);
    EXPECT_EQ(cell.groupCount(), 0u);
    EXPECT_TRUE(cell.selfCheck());
}

TEST(SubCell, CapacityExhaustionSpills)
{
    ResultTable results;
    auto cfg = smallConfig();
    cfg.capacity = 8;
    SubCell cell(cfg, &results);
    std::vector<Route> displaced;
    // 20 distinct groups into capacity 8: the excess must spill, and
    // every surviving group must still answer lookups.
    for (uint32_t i = 0; i < 20; ++i)
        cell.announce(Prefix::ipv4(i << 24, 8), i, displaced);
    EXPECT_FALSE(displaced.empty());
    EXPECT_LE(cell.groupCount(), 8u);
    EXPECT_TRUE(cell.selfCheck());
}

TEST(SubCell, RandomChurnAgainstOracle)
{
    ResultTable results;
    auto cfg = smallConfig();
    cfg.capacity = 1024;
    SubCell cell(cfg, &results);
    RoutingTable truth;
    Rng rng(33);
    std::vector<Route> displaced;

    for (int step = 0; step < 3000; ++step) {
        unsigned len = static_cast<unsigned>(rng.nextRange(8, 12));
        Prefix p(Key128(rng.next64() & 0xFF00000000000000ull, 0), len);
        if (rng.nextBool(0.6)) {
            NextHop nh = static_cast<NextHop>(rng.nextBelow(100));
            cell.announce(p, nh, displaced);
            truth.add(p, nh);
        } else {
            cell.withdraw(p);
            truth.remove(p);
        }
    }
    ASSERT_TRUE(displaced.empty());
    EXPECT_EQ(cell.routeCount(), truth.size());
    EXPECT_TRUE(cell.selfCheck());

    BinaryTrie oracle(truth);
    for (int i = 0; i < 3000; ++i) {
        Key128 key(rng.next64() & 0xFFF0000000000000ull, 0);
        auto h = cell.lookup(key);
        auto o = oracle.lookup(key, 12);
        ASSERT_EQ(h.hit, o.has_value());
        if (h.hit)
            EXPECT_EQ(h.nextHop, o->nextHop);
    }
}

/** Property sweep: stride x capacity x seed, churn vs oracle. */
struct SubCellParam
{
    unsigned stride;
    size_t capacity;
    uint64_t seed;
};

class SubCellProperty
    : public ::testing::TestWithParam<SubCellParam>
{};

TEST_P(SubCellProperty, ChurnStaysOracleEquivalent)
{
    const auto &prm = GetParam();
    ResultTable results;
    SubCell::Config cfg;
    cfg.range = CellRange{8, std::min(8 + prm.stride, 12u), false};
    cfg.stride = prm.stride;
    cfg.capacity = prm.capacity;
    cfg.keyWidth = 32;
    cfg.seed = prm.seed;
    SubCell cell(cfg, &results);

    RoutingTable truth;
    Rng rng(prm.seed * 3 + 1);
    std::vector<Route> displaced;
    for (int step = 0; step < 1500; ++step) {
        unsigned len = static_cast<unsigned>(
            rng.nextRange(cfg.range.base, cfg.range.top));
        Prefix p(Key128(rng.next64() & 0xFFC0000000000000ull, 0),
                 len);
        if (rng.nextBool(0.6)) {
            NextHop nh = static_cast<NextHop>(rng.nextBelow(64));
            cell.announce(p, nh, displaced);
            truth.add(p, nh);
        } else {
            cell.withdraw(p);
            truth.remove(p);
        }
    }
    // Remove whatever the cell displaced from the truth set; with
    // these capacities nothing should spill, but stay robust.
    for (const auto &r : displaced)
        truth.remove(r.prefix);

    ASSERT_TRUE(cell.selfCheck());
    BinaryTrie oracle(truth);
    for (int i = 0; i < 1500; ++i) {
        Key128 key(rng.next64() & 0xFFF0000000000000ull, 0);
        auto h = cell.lookup(key);
        auto o = oracle.lookup(key, cfg.range.top);
        ASSERT_EQ(h.hit, o.has_value());
        if (h.hit)
            ASSERT_EQ(h.nextHop, o->nextHop);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubCellProperty,
    ::testing::Values(SubCellParam{1, 512, 1},
                      SubCellParam{2, 512, 2},
                      SubCellParam{3, 1024, 3},
                      SubCellParam{4, 1024, 4},
                      SubCellParam{4, 2048, 5},
                      SubCellParam{6, 1024, 6},
                      SubCellParam{8, 2048, 7}));

/**
 * Probe every 12-bit key of smallConfig()'s universe and require the
 * cell's (hit, nextHop, matchedLength) to equal the trie oracle's.
 */
::testing::AssertionResult
answersLikeOracle(const SubCell &cell, const RoutingTable &truth)
{
    BinaryTrie oracle(truth);
    for (uint64_t i = 0; i < 4096; ++i) {
        Key128 key(i << 52, 0);
        auto h = cell.lookup(key);
        auto o = oracle.lookup(key, 12);
        if (h.hit != o.has_value() ||
            (h.hit && (h.nextHop != o->nextHop ||
                       h.matchedLength != o->prefix.length())))
            return ::testing::AssertionFailure()
                   << "key " << i << ": cell hit=" << h.hit
                   << " hop=" << h.nextHop << " len=" << h.matchedLength
                   << ", oracle " << (o ? o->prefix.str() : "miss");
    }
    return ::testing::AssertionSuccess();
}

/** Snapshot @p results + @p cell and restore into fresh objects. */
std::vector<uint8_t>
cellImage(const ResultTable &results, const SubCell &cell)
{
    persist::Encoder enc;
    results.saveState(enc);
    cell.saveState(enc);
    return enc.buffer();
}

TEST(SubCell, MatchedLengthTracksOracleThroughChurnRecoveryAndRestore)
{
    // Few next hops, so one hop often spans members of different
    // lengths: a withdraw can then change a slot's length while its
    // next hop stays the same.
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    RoutingTable truth;
    std::vector<Prefix> withdrawn;
    std::vector<Route> displaced;
    Rng rng(0x1E9);

    auto churn = [&](SubCell &c, RoutingTable &t, Rng &r, int steps) {
        for (int step = 0; step < steps; ++step) {
            double op = r.nextDouble();
            auto routes = t.routes();
            std::sort(routes.begin(), routes.end(),
                      [](const Route &x, const Route &y) {
                          return x.prefix < y.prefix;
                      });
            if (op < 0.45 || routes.empty()) {
                unsigned len = static_cast<unsigned>(r.nextRange(8, 12));
                Prefix p(Key128(r.next64() & 0xFFF0000000000000ull, 0),
                         len);
                NextHop nh = static_cast<NextHop>(r.nextBelow(3));
                c.announce(p, nh, displaced);
                t.add(p, nh);
            } else if (op < 0.8) {
                const Route &victim = routes[r.nextBelow(routes.size())];
                c.withdraw(victim.prefix);
                t.remove(victim.prefix);
                withdrawn.push_back(victim.prefix);
            } else if (!withdrawn.empty()) {
                // Route flap: a recently withdrawn prefix returns.
                Prefix p = withdrawn[r.nextBelow(withdrawn.size())];
                NextHop nh = static_cast<NextHop>(r.nextBelow(3));
                c.announce(p, nh, displaced);
                t.add(p, nh);
            }
        }
    };

    for (int round = 0; round < 6; ++round) {
        churn(cell, truth, rng, 150);
        ASSERT_TRUE(displaced.empty());
        ASSERT_TRUE(answersLikeOracle(cell, truth)) << "round " << round;
    }

    // Recover-by-resetup rewrites every Result word with its length.
    cell.recoverParity(displaced);
    ASSERT_TRUE(displaced.empty());
    ASSERT_TRUE(answersLikeOracle(cell, truth));

    // Restore: lengths are re-derived, the image stays byte-exact.
    std::vector<uint8_t> image = cellImage(results, cell);
    ResultTable restored_results;
    SubCell restored(smallConfig(), &restored_results);
    persist::Decoder dec(image);
    restored_results.loadState(dec);
    restored.loadState(dec);
    EXPECT_EQ(cellImage(restored_results, restored), image);
    ASSERT_TRUE(answersLikeOracle(restored, truth));

    // Both copies keep answering alike under further churn — lengths
    // left in retained blocks are not part of the image, and must not
    // leak into answers or write counts.
    Rng rng_a(0x2E9), rng_b(0x2E9);
    RoutingTable truth_b = truth;
    std::vector<Prefix> withdrawn_b = withdrawn;
    churn(cell, truth, rng_a, 400);
    std::swap(withdrawn, withdrawn_b);
    churn(restored, truth_b, rng_b, 400);
    ASSERT_TRUE(displaced.empty());
    EXPECT_TRUE(answersLikeOracle(cell, truth));
    EXPECT_TRUE(answersLikeOracle(restored, truth_b));
    EXPECT_EQ(cellImage(restored_results, restored),
              cellImage(results, cell));
}

TEST(SubCell, StorageAccountingNonZero)
{
    ResultTable results;
    SubCell cell(smallConfig(), &results);
    EXPECT_EQ(cell.indexBits(),
              cell.capacity() * 3 * addressBits(cell.capacity()));
    EXPECT_EQ(cell.filterBits(), cell.capacity() * (8 + 2));
    EXPECT_EQ(cell.bitvectorBits(), cell.capacity() * (16 + 22));
}

} // anonymous namespace
} // namespace chisel
