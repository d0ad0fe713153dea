/**
 * @file
 * Cross-family LPM comparison — the paper's overall positioning
 * (Sections 1, 2, 6.7) in one table.
 *
 * Every engine in the library answers the same 100K-prefix workload;
 * for each we report the tables implemented, the lookup cost
 * (memory accesses / probes: deterministic or measured mean/max),
 * on-chip and off-chip storage, whether the worst case is
 * deterministic — the property that motivates Chisel — and the
 * software ns per lookup of this implementation on the build host.
 * The "Chisel 128-bit key" row holds the same prefix count and
 * length mix at IPv6 key width: the access count does not change.
 */

#include <cstdio>

#include "core/collapse.hh"
#include "core/engine.hh"
#include "core/storage_model.hh"
#include "lpm/bloom_lpm.hh"
#include "lpm/ebf_cpe_lpm.hh"
#include "lpm/waldvogel.hh"
#include "route/synth.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "tcam/tcam_model.hh"
#include "trie/binary_trie.hh"
#include "trie/tree_bitmap.hh"

int
main()
{
    using namespace chisel;
    RoutingTable table = generateScaledTable(100000, 32, 0xC4B);

    auto keys = generateLookupKeys(table, 30000, 32, 0.8, 0xCF);

    // Software ns/lookup: one warm-up pass over the keys, then a
    // fixed loop of lookups cycling through them.
    const size_t timed_lookups = size_t{1} << 18;
    uint64_t checksum = 0;
    auto ns_per_lookup = [&](const std::vector<Key128> &ks,
                             auto &&lookup) {
        return Report::num(
            nsPerOp(ks.size(), timed_lookups, checksum,
                    [&](size_t i) {
                        return uint64_t{lookup(ks[i % ks.size()])};
                    }),
            0);
    };

    Report report(
        "LPM family comparison (100K IPv4 prefixes)",
        {"scheme", "tables", "accesses mean", "accesses max",
         "on-chip Mb", "off-chip Mb", "deterministic?", "ns/lookup"});

    // Chisel.
    {
        ChiselEngine engine(table);
        auto s = engine.storage();
        report.addRow({"Chisel", std::to_string(engine.cellCount()),
                       "4.0", "4", Report::mbits(s.totalBits()),
                       "0 (next hops only)", "yes",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           return engine.lookup(k).nextHop;
                       })});
    }

    // Chisel at IPv6 key width: same prefix count and length mix.
    {
        SynthProfile prof;
        prof.prefixes = table.size();
        prof.keyWidth = 128;
        prof.lengthWeights = defaultIpv4LengthWeights();
        prof.seed = 0xC0;
        RoutingTable table6 = generateTable(prof);
        auto keys6 = generateLookupKeys(table6, keys.size(), 128, 0.8,
                                        0xC1);
        ChiselConfig cfg;
        cfg.keyWidth = 128;
        ChiselEngine engine(table6, cfg);
        auto s = engine.storage();
        report.addRow({"Chisel 128-bit key",
                       std::to_string(engine.cellCount()), "4.0", "4",
                       Report::mbits(s.totalBits()),
                       "0 (next hops only)", "yes",
                       ns_per_lookup(keys6, [&](const Key128 &k) {
                           return engine.lookup(k).nextHop;
                       })});
    }

    // Binary trie: the unibit reference every test checks against.
    {
        BinaryTrie trie(table);
        report.addRow({"Binary trie", "1 (trie)", "-", "33", "-", "-",
                       "latency grows with key",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           auto r = trie.lookup(k, 32);
                           return r ? r->nextHop : kNoRoute;
                       })});
    }

    // Tree Bitmap.
    {
        TreeBitmap tb(table, treeBitmapIpv4Config());
        ScalarStat acc("tb");
        for (const auto &k : keys)
            acc.sample(tb.lookup(k).memoryAccesses);
        report.addRow({"Tree Bitmap", "1 (trie)",
                       Report::num(acc.mean(), 1),
                       Report::num(acc.max(), 0),
                       "0", Report::mbits(tb.storageBits()),
                       "latency grows with key",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           return tb.lookup(k).nextHop;
                       })});
    }

    // Per-length Bloom LPM.
    {
        BloomLpm lpm(table);
        ScalarStat acc("bl");
        ScalarStat chain("chain");
        for (const auto &k : keys) {
            auto r = lpm.lookup(k);
            acc.sample(r.tableProbes);
            chain.sample(r.chainSteps);
        }
        report.addRow({"Bloom/length [8]",
                       std::to_string(lpm.tableCount()),
                       Report::num(acc.mean(), 2),
                       Report::num(acc.max(), 0),
                       Report::mbits(lpm.onChipBits()),
                       Report::mbits(lpm.offChipBits()),
                       "no (FP + chains)",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           return lpm.lookup(k).nextHop;
                       })});
    }

    // Binary search on lengths.
    {
        BinarySearchLengths bsl(table);
        ScalarStat acc("bsl");
        for (const auto &k : keys)
            acc.sample(bsl.lookup(k).tableProbes);
        double entry_mb = static_cast<double>(bsl.entryCount()) *
                          (32 + 2 + 32 + 6) / (1024.0 * 1024.0);
        report.addRow({"BinSearch/len [25]",
                       std::to_string(bsl.tableCount()),
                       Report::num(acc.mean(), 2),
                       Report::num(acc.max(), 0), "0",
                       Report::num(entry_mb, 2),
                       "no (chains)",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           return bsl.lookup(k).nextHop;
                       })});
    }

    // EBF + CPE.
    {
        EbfCpeLpm lpm(table);
        ScalarStat acc("ec");
        for (const auto &k : keys)
            acc.sample(lpm.lookup(k).offChipProbes);
        report.addRow({"EBF+CPE [21]+[19]",
                       std::to_string(lpm.targetLengths().size()),
                       Report::num(acc.mean(), 2),
                       Report::num(acc.max(), 0),
                       Report::mbits(lpm.onChipBits()),
                       Report::mbits(lpm.offChipBits()),
                       "no (collision prob.)",
                       ns_per_lookup(keys, [&](const Key128 &k) {
                           return lpm.lookup(k).nextHop;
                       })});
    }

    // TCAM (model only: the functional scan is not the hardware;
    // fig16_tcam_power times the scan simulator).
    {
        TcamPowerModel model;
        report.addRow({"TCAM", "1", "1.0", "1",
                       Report::mbits(model.storageBits(table.size(),
                                                       32)),
                       "0",
                       "yes, but 5x Chisel power", "-"});
    }

    report.print();
    std::printf("Chisel is the only hash-based scheme with a "
                "deterministic worst case AND per-length-free "
                "wildcard support (the paper's thesis).\n");
    std::printf("ns/lookup: software time on this host, %zu-key "
                "warm-up then %zu timed lookups (checksum %016llx).\n",
                keys.size(), timed_lookups,
                static_cast<unsigned long long>(checksum));
    return 0;
}
