/**
 * @file
 * Background (Section 2): why multiple-choice hashing helps but does
 * not suffice.
 *
 * Loads the same key set into a chained table, d-random, d-left and
 * the EBF, and reports the worst-case bucket load — the quantity
 * that makes naive hash LPM lookup rates unpredictable.  Chisel's
 * Bloomier Index Table decodes every key from exactly one slot, the
 * row all of these are compared against.  The EBF and Bloomier rows
 * also give the software ns per lookup of this implementation on
 * the build host.
 */

#include <cstdio>

#include "bloom/bloomier.hh"
#include "common/random.hh"
#include "hashtable/chained.hh"
#include "hashtable/dleft.hh"
#include "hashtable/ebf.hh"
#include "sim/report.hh"
#include "sim/stats.hh"

int
main()
{
    using namespace chisel;
    const size_t n = 65536;

    Rng rng(0x10AD);
    std::vector<std::pair<Key128, uint32_t>> keys;
    for (uint32_t i = 0; i < n; ++i)
        keys.emplace_back(Key128(rng.next64(), rng.next64()), i);

    // Software ns/lookup: one warm-up pass over the keys, then a
    // fixed loop of lookups cycling through them.
    const size_t timed_lookups = size_t{1} << 20;
    uint64_t checksum = 0;
    auto ns_per_lookup = [&](auto &&lookup) {
        return Report::num(
            nsPerOp(n, timed_lookups, checksum,
                    [&](size_t i) {
                        return uint64_t{lookup(keys[i % n].first)};
                    }),
            0);
    };

    Report report(
        "Hash-table load balance, 64K keys at load factor 1",
        {"scheme", "buckets", "max load", "collided buckets",
         "worst-case probes", "ns/lookup"});

    {
        ChainedHashTable t(n, 64, 1);
        for (const auto &[k, v] : keys)
            t.insert(k, v);
        size_t collided = 0;
        (void)collided;
        report.addRow({"chained (1 hash)", Report::count(n),
                       Report::count(t.maxChainLength()), "-",
                       Report::count(t.maxChainLength()), "-"});
    }
    for (unsigned d : {2u, 3u}) {
        MultiChoiceHashTable t(n, d, 64,
                               MultiChoiceHashTable::Mode::DRandom,
                               64, 2);
        for (const auto &[k, v] : keys)
            t.insert(k, v);
        report.addRow({"d-random d=" + std::to_string(d),
                       Report::count(n), Report::count(t.maxLoad()),
                       Report::count(t.collidedBuckets()),
                       Report::count(t.maxLoad() * d), "-"});
    }
    {
        MultiChoiceHashTable t(n, 3, 64,
                               MultiChoiceHashTable::Mode::DLeft, 64,
                               3);
        for (const auto &[k, v] : keys)
            t.insert(k, v);
        report.addRow({"d-left d=3", Report::count(n),
                       Report::count(t.maxLoad()),
                       Report::count(t.collidedBuckets()),
                       Report::count(t.maxLoad()), "-"});
    }
    {
        ExtendedBloomFilter t(n, ebfPaperConfig(64));
        t.bulkBuild(keys);
        size_t max_load = 0;
        for (const auto &[k, v] : keys) {
            (void)v;
            size_t probes = 0;
            t.find(k, &probes);
            max_load = std::max(max_load, probes);
        }
        report.addRow({"EBF (12.8n)",
                       Report::count(static_cast<uint64_t>(12.8 * n)),
                       Report::count(max_load),
                       Report::count(t.collidedBuckets()),
                       Report::count(max_load),
                       ns_per_lookup([&](const Key128 &k) {
                           return t.find(k).value_or(0);
                       })});
    }
    {
        BloomierConfig cfg;
        cfg.keyLen = 128;
        BloomierFilter index(n, cfg);
        index.setup(keys);
        report.addRow({"Chisel Index (Bloomier)", Report::count(3 * n),
                       "1", "0", "1 (guaranteed)",
                       ns_per_lookup([&](const Key128 &k) {
                           return index.lookupCode(k);
                       })});
    }
    report.print();

    std::printf("More choices flatten the load but never reach the "
                "deterministic single-probe guarantee the Bloomier "
                "encoding provides.\n");
    std::printf("ns/lookup: software time on this host, %zu-key "
                "warm-up then %zu timed lookups (checksum %016llx).\n",
                n, timed_lookups,
                static_cast<unsigned long long>(checksum));
    return 0;
}
