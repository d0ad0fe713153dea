/**
 * @file
 * Unit and property tests for the Bloomier filter — collision-free
 * setup, incremental singleton insertion, erasure, partitioning and
 * spill behaviour.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "bloom/bloomier.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace chisel {
namespace {

std::vector<std::pair<Key128, uint32_t>>
randomEntries(size_t n, unsigned key_len, uint64_t seed)
{
    Rng rng(seed);
    std::unordered_map<Key128, uint32_t, Key128Hasher> uniq;
    while (uniq.size() < n) {
        Key128 k(rng.next64(), rng.next64());
        k = k.masked(key_len);
        uniq.emplace(k, static_cast<uint32_t>(uniq.size()));
    }
    return {uniq.begin(), uniq.end()};
}

TEST(Bloomier, SetupAndLookupSmall)
{
    BloomierConfig cfg;
    cfg.keyLen = 32;
    BloomierFilter f(64, cfg);
    auto entries = randomEntries(50, 32, 1);
    auto spilled = f.setup(entries);
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(f.size(), 50u);
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, SetupFullCapacity)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(4096, cfg);
    auto entries = randomEntries(4096, 64, 2);
    auto spilled = f.setup(entries);
    // At m/n = 3, k = 3 the failure probability is astronomically
    // small; a spill here means the peeling is broken.
    EXPECT_TRUE(spilled.empty());
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
}

TEST(Bloomier, EmptySetup)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    auto spilled = f.setup({});
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(f.size(), 0u);
}

TEST(Bloomier, IncrementalInsertMostlySingleton)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(2048, cfg);
    auto entries = randomEntries(1500, 64, 3);

    size_t singletons = 0;
    for (const auto &[k, code] : entries) {
        auto r = f.insert(k, code);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Duplicate);
        if (r.method == BloomierFilter::InsertMethod::Singleton)
            ++singletons;
    }
    // The paper observes singleton insertion is "extremely common";
    // at 73% load nearly every insert should find a singleton.
    EXPECT_GT(singletons, entries.size() * 9 / 10);
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, DuplicateInsertDetected)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    Key128 k = Key128::fromIpv4(0x0A000000);
    EXPECT_NE(f.insert(k, 1).method,
              BloomierFilter::InsertMethod::Duplicate);
    EXPECT_EQ(f.insert(k, 2).method,
              BloomierFilter::InsertMethod::Duplicate);
    EXPECT_EQ(f.lookupCode(k), 1u);
}

TEST(Bloomier, EraseThenReinsert)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(512, cfg);
    auto entries = randomEntries(400, 64, 4);
    EXPECT_TRUE(f.setup(entries).empty());

    // Remove half, verify the rest still decode correctly.
    for (size_t i = 0; i < entries.size(); i += 2)
        EXPECT_TRUE(f.erase(entries[i].first));
    EXPECT_EQ(f.size(), entries.size() / 2);
    for (size_t i = 1; i < entries.size(); i += 2)
        EXPECT_EQ(f.lookupCode(entries[i].first), entries[i].second);

    // Re-insert the removed half with new codes.
    for (size_t i = 0; i < entries.size(); i += 2) {
        auto r = f.insert(entries[i].first, entries[i].second + 1000);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
    }
    for (size_t i = 0; i < entries.size(); ++i) {
        uint32_t want = entries[i].second + (i % 2 == 0 ? 1000 : 0);
        EXPECT_EQ(f.lookupCode(entries[i].first), want);
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, EraseMissingReturnsFalse)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    EXPECT_FALSE(f.erase(Key128::fromIpv4(1)));
}

TEST(Bloomier, PartitionedSetupAndInsert)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.partitions = 8;
    BloomierFilter f(4096, cfg);
    EXPECT_EQ(f.partitions(), 8u);
    auto entries = randomEntries(3000, 64, 5);
    EXPECT_TRUE(f.setup(entries).empty());
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);

    auto extra = randomEntries(500, 64, 6);
    for (const auto &[k, code] : extra) {
        if (f.contains(k))
            continue;
        auto r = f.insert(k, code + 50000);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, OverloadSpills)
{
    // Grossly exceed m/k capacity: the filter must spill rather than
    // loop or crash, and survivors must still decode.
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.ratio = 3.0;
    BloomierFilter f(32, cfg);   // m = 96 slots, 32 per segment.
    auto entries = randomEntries(80, 64, 7);
    auto spilled = f.setup(entries);
    EXPECT_FALSE(spilled.empty());
    EXPECT_EQ(f.size() + spilled.size(), entries.size());
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, HasSingletonSlotConsistent)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(256, cfg);
    auto entries = randomEntries(128, 64, 8);
    for (const auto &[k, code] : entries) {
        bool predicted = f.hasSingletonSlot(k);
        auto r = f.insert(k, code);
        if (predicted) {
            EXPECT_EQ(r.method,
                      BloomierFilter::InsertMethod::Singleton);
        } else {
            EXPECT_NE(r.method,
                      BloomierFilter::InsertMethod::Singleton);
        }
    }
}

TEST(Bloomier, FindCodeTracksRegistry)
{
    BloomierConfig cfg;
    BloomierFilter f(64, cfg);
    Key128 k = Key128::fromIpv4(0x01020304);
    EXPECT_FALSE(f.findCode(k).has_value());
    f.insert(k, 9);
    ASSERT_TRUE(f.findCode(k).has_value());
    EXPECT_EQ(*f.findCode(k), 9u);
    f.erase(k);
    EXPECT_FALSE(f.findCode(k).has_value());
}

TEST(Bloomier, StorageBitsMatchGeometry)
{
    BloomierConfig cfg;
    cfg.ratio = 3.0;
    cfg.k = 3;
    BloomierFilter f(1024, cfg);
    EXPECT_GE(f.slots(), 3 * 1024u);
    EXPECT_EQ(f.slotWidthBits(), 10u);   // addressBits(1024).
    EXPECT_EQ(f.storageBits(), f.slots() * 10u);
}

TEST(Bloomier, RejectsBadConfig)
{
    BloomierConfig cfg;
    cfg.k = 1;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
    cfg.k = 3;
    cfg.ratio = 0.5;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
}

TEST(FastMod, MatchesRemainderOnEdgeDivisors)
{
    std::vector<uint64_t> divisors = {1, 2, 3, 5, 7, 250, 1000, 5000,
                                      65521, 65536, 4294967291ull,
                                      4294967296ull, 1099511627776ull,
                                      1099511627689ull};
    for (unsigned b = 1; b <= 40; ++b)
        divisors.push_back(uint64_t(1) << b);
    std::vector<uint64_t> numerators = {0, 1, 2, 3, 255, 4294967295ull,
                                        4294967296ull};
    for (uint64_t back = 0; back < 64; ++back)
        numerators.push_back(~uint64_t(0) - back);   // Near 2^64.
    Rng rng(0xFA57);
    for (int i = 0; i < 256; ++i)
        numerators.push_back(rng.next64());

    for (uint64_t d : divisors) {
        FastMod mod(d);
        for (uint64_t x : numerators)
            ASSERT_EQ(mod(x), x % d) << x << " % " << d;
        // Around multiples of d, where an inexact reduction would
        // first show.
        for (uint64_t q : {uint64_t(1), uint64_t(2), ~uint64_t(0) / d}) {
            uint64_t m = q * d;
            for (uint64_t x : {m - 1, m, m + 1})
                ASSERT_EQ(mod(x), x % d) << x << " % " << d;
        }
    }
}

TEST(Bloomier, KeySlotsMatchGoldenMapping)
{
    // Slot lists recorded from the division-based, bit-at-a-time H3
    // implementation: the table-driven hash and the multiplicative
    // reduction must map every key to exactly the same slots, or
    // every stored Index image would decode differently.
    struct Golden
    {
        size_t capacity;
        BloomierConfig config;
        std::vector<std::pair<Key128, std::vector<size_t>>> keys;
    };
    const std::vector<Golden> golden = {
        {1000, BloomierConfig{3, 3.0, 24, 4, 0xC0FFEE},
         {{{0x8f989e0000000000ULL, 0}, {879, 1223, 1367}},
          {{0x50c29b0000000000ULL, 0}, {2372, 2712, 2783}},
          {{0x4eca860000000000ULL, 0}, {1567, 1882, 2180}},
          {{0xfbcc180000000000ULL, 0}, {116, 480, 672}},
          {{0x4f1e8a0000000000ULL, 0}, {46, 300, 672}},
          {{0xcda3b70000000000ULL, 0}, {869, 1246, 1474}}}},
        {5000, BloomierConfig{3, 3.0, 32, 1, 0x5EED},
         {{{0xe1f5911100000000ULL, 0}, {1911, 5272, 12809}},
          {{0xf985e1f200000000ULL, 0}, {3473, 7579, 14374}},
          {{0x86f28e3a00000000ULL, 0}, {4828, 7885, 14043}},
          {{0x6c13fd2500000000ULL, 0}, {2339, 7564, 14739}},
          {{0xbbc9adb100000000ULL, 0}, {3730, 7615, 11084}},
          {{0xacaedbe900000000ULL, 0}, {4550, 8368, 13179}}}},
        {777, BloomierConfig{4, 2.5, 48, 7, 99},
         {{{0x90624e3d31d80000ULL, 0}, {8, 72, 178, 260}},
          {{0xdb0a702577610000ULL, 0}, {859, 944, 1038, 1114}},
          {{0x34af27f3d7a80000ULL, 0}, {47, 73, 190, 268}},
          {{0x0f03e58533930000ULL, 0}, {299, 392, 439, 553}},
          {{0x958a9dd8bf870000ULL, 0}, {1731, 1817, 1872, 1942}},
          {{0x2c370ed77d9e0000ULL, 0}, {59, 137, 151, 215}}}},
        {900, BloomierConfig{3, 3.0, 100, 2, 0xABC},
         {{{0x8d4f2944450aa125ULL, 0x1a1c5eabb0000000ULL},
           {195, 726, 1348}},
          {{0xeddea9f06d2076e7ULL, 0x3b7c98ef60000000ULL},
           {370, 597, 1095}},
          {{0x6ecf9e92fc84a7f9ULL, 0xa60ee3c5d0000000ULL},
           {1621, 2062, 2491}},
          {{0x077147b4deabd472ULL, 0xc295234f30000000ULL},
           {1527, 1846, 2394}},
          {{0xd2edab42840eaac2ULL, 0x7425f7dd80000000ULL},
           {126, 589, 974}},
          {{0xf8da439a6703a195ULL, 0xcfcc354fa0000000ULL},
           {118, 680, 1335}}}},
    };
    for (const Golden &g : golden) {
        BloomierFilter f(g.capacity, g.config);
        for (const auto &[key, slots] : g.keys)
            EXPECT_EQ(f.keySlots(key), slots) << "capacity " << g.capacity;
    }
}

TEST(Bloomier, ParityBitCoversEveryStoredBit)
{
    BloomierConfig cfg;
    cfg.keyLen = 32;
    BloomierFilter f(256, cfg);
    auto entries = randomEntries(200, 32, 17);
    ASSERT_TRUE(f.setup(entries).empty());
    const auto &[key, code] = entries.front();
    size_t slot = f.keySlots(key).front();
    for (unsigned bit = 0; bit < 32; ++bit) {
        f.flipSlotBit(slot, bit);
        EXPECT_FALSE(f.parityOk(slot)) << "bit " << bit;
        bool parity = true;
        f.lookupCode(key, &parity);
        EXPECT_FALSE(parity) << "bit " << bit;
        f.flipSlotBit(slot, bit);
        EXPECT_TRUE(f.parityOk(slot));
    }
    // The parity bit never leaks into a decoded code.
    bool parity = true;
    EXPECT_EQ(f.lookupCode(key, &parity), code);
    EXPECT_TRUE(parity);
    EXPECT_TRUE(f.selfCheck());
}

/** Property sweep: every (k, ratio, partitions, size) combination
 * must produce a collision-free decode of every inserted key. */
struct BloomierParam
{
    unsigned k;
    double ratio;
    unsigned partitions;
    size_t n;
};

class BloomierProperty
    : public ::testing::TestWithParam<BloomierParam>
{};

TEST_P(BloomierProperty, AllKeysDecode)
{
    const auto &p = GetParam();
    BloomierConfig cfg;
    cfg.k = p.k;
    cfg.ratio = p.ratio;
    cfg.partitions = p.partitions;
    cfg.keyLen = 64;
    cfg.seed = 0xFEED + p.k;
    BloomierFilter f(p.n, cfg);
    auto entries = randomEntries(p.n, 64, p.n + p.k);
    auto spilled = f.setup(entries);
    EXPECT_TRUE(spilled.empty())
        << "unexpected spill at k=" << p.k << " ratio=" << p.ratio;
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomierProperty,
    ::testing::Values(
        BloomierParam{2, 4.0, 1, 512},
        BloomierParam{3, 3.0, 1, 512},
        BloomierParam{3, 3.0, 4, 2048},
        BloomierParam{3, 2.5, 1, 1024},
        BloomierParam{4, 3.0, 1, 1024},
        BloomierParam{4, 2.0, 2, 2048},
        BloomierParam{5, 2.0, 1, 512},
        BloomierParam{3, 3.0, 16, 8192}));

} // anonymous namespace
} // namespace chisel
