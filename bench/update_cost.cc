/**
 * @file
 * Update cost in hardware words written (Section 4.4).
 *
 * The shadow copy applies an update in software, then transfers only
 * the modified words to the hardware tables: typically one
 * bit-vector entry plus a few Result Table slots.  Index Table
 * writes happen only for singleton inserts (one slot) and partition
 * rebuilds (one partition's slots).  This bench replays a standard
 * trace and reports words written per update and per category — the
 * quantitative content of the paper's "fast incremental updates" —
 * and the software ns per update of Chisel and Tree Bitmap on that
 * trace on the build host.
 */

#include <cstdio>

#include "core/engine.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "telemetry/cli.hh"
#include "trie/tree_bitmap.hh"

int
main(int argc, char **argv)
{
    using namespace chisel;
    telemetry::TelemetryOptions opts =
        telemetry::TelemetryOptions::parse(argc, argv);

    RoutingTable table = generateScaledTable(80000, 32, 0x0C7);
    ChiselEngine engine(table);
    telemetry::TelemetrySession session(opts);
    session.attach(engine);
    // Discard build-time writes; measure updates only.
    uint64_t base_singletons = 0, base_rebuilds = 0;
    for (size_t i = 0; i < engine.cellCount(); ++i) {
        base_singletons += engine.cell(i).indexStats().singletonInserts;
        base_rebuilds += engine.cell(i).indexStats().rebuilds;
    }
    std::vector<SubCell::WriteCounters> before(engine.cellCount());
    for (size_t i = 0; i < engine.cellCount(); ++i)
        before[i] = engine.cell(i).writeCounters();

    // The timed loop is the counted trace itself, from its first
    // update: any warm-up update would change the words written.
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0x0C8);
    const size_t updates = 200000;
    uint64_t checksum = 0;
    double chisel_ns = nsPerOp(0, updates, checksum, [&](size_t) {
        return static_cast<uint64_t>(engine.apply(gen.next()).cls);
    });

    uint64_t bv = 0, res = 0, filt = 0;
    uint64_t singletons = 0, rebuilds = 0, rebuild_slots = 0;
    for (size_t i = 0; i < engine.cellCount(); ++i) {
        const auto &w = engine.cell(i).writeCounters();
        bv += w.bitvectorWrites - before[i].bitvectorWrites;
        res += w.resultWrites - before[i].resultWrites;
        filt += w.filterWrites - before[i].filterWrites;
        const auto &s = engine.cell(i).indexStats();
        singletons += s.singletonInserts;
        rebuilds += s.rebuilds;
        rebuild_slots += s.rebuilds *
                         engine.cell(i).indexPartitionSlots();
    }
    singletons -= base_singletons;
    rebuilds -= base_rebuilds;
    uint64_t index_writes = singletons + rebuild_slots;

    Report report("Hardware words written per 200K-update trace",
                  {"table", "words", "words/update"});
    auto row = [&](const char *name, uint64_t words) {
        report.addRow({name, Report::count(words),
                       Report::num(static_cast<double>(words) /
                                       updates, 3)});
    };
    row("Bit-vector", bv);
    row("Result (off-chip)", res);
    row("Filter", filt);
    row("Index (singleton writes)", singletons);
    row("Index (rebuild slot writes)", rebuild_slots);
    report.print();

    std::printf("Total on-chip words per update: %.2f "
                "(bit-vector + filter + index)\n",
                static_cast<double>(bv + filt + index_writes) /
                    updates);
    std::printf("Index rebuilds: %llu across %zu updates — the rare "
                "case partitioning bounds (Section 4.4.2).\n",
                static_cast<unsigned long long>(rebuilds), updates);

    // The trie comparison the paper draws (Section 4.4.2, [9][18]):
    // Tree Bitmap reallocates variable-sized node blocks on updates.
    TreeBitmap tb(table, treeBitmapIpv4Config());
    tb.resetUpdateStats();
    UpdateTraceGenerator gen2(table, TraceProfile{}, 32, 0x0C8);
    double tb_ns = nsPerOp(0, updates, checksum, [&](size_t) {
        Update u = gen2.next();
        if (u.kind == UpdateKind::Announce) {
            tb.insert(u.prefix, u.nextHop);
            return uint64_t{1};
        }
        return uint64_t{tb.erase(u.prefix)};
    });
    const auto &ts = tb.updateStats();
    std::printf("Tree Bitmap on the same trace: %.2f nodes touched "
                "and %.2f block reallocations per update "
                "(Chisel: 1 bit-vector write + diffing result "
                "writes).\n",
                static_cast<double>(ts.nodesTouched) / updates,
                static_cast<double>(ts.blockReallocs) / updates);
    std::printf("Software ns/update on this host, same trace: Chisel "
                "%.0f, Tree Bitmap %.0f (checksum %016llx).\n",
                chisel_ns, tb_ns,
                static_cast<unsigned long long>(checksum));

    if (session.enabled()) {
        session.engineTelemetry()->snapshot(engine);
        metricsReport(session.registry()).print();
        session.finish();
    }
    return 0;
}
