/**
 * @file
 * Figure 16: Chisel versus TCAM power dissipation at 200 Msps for
 * 128K to 512K IPv4 prefixes.
 *
 * Paper shape: TCAM power grows steeply (linear in bits); Chisel
 * stays comparatively flat — ~43% less at 128K and almost 5x less
 * at 512K.
 *
 * The last line times the functional TCAM simulator (a linear scan
 * of a 2K-entry table; the hardware searches every entry in
 * parallel), in software ns per lookup on the build host.
 */

#include <cstdio>

#include "core/power_model.hh"
#include "route/synth.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "tcam/tcam.hh"
#include "tcam/tcam_model.hh"

int
main()
{
    using namespace chisel;
    ChiselPowerModel chisel_model;
    TcamPowerModel tcam_model;
    StorageParams params;

    Report report("Figure 16: power at 200 Msps (W)",
                  {"prefixes", "TCAM", "Chisel", "TCAM/Chisel"});

    const size_t sizes[] = {128 * 1024, 256 * 1024, 384 * 1024,
                            512 * 1024};
    double first_saving = 0, last_ratio = 0;
    for (size_t n : sizes) {
        double tw = tcam_model.watts(n, 32, 200.0);
        double cw = chisel_model.worstCase(n, params, 200.0)
                        .totalWatts();
        report.addRow({Report::count(n), Report::num(tw, 2),
                       Report::num(cw, 2),
                       Report::num(tw / cw, 2) + "x"});
        if (n == 128 * 1024)
            first_saving = 1.0 - cw / tw;
        if (n == 512 * 1024)
            last_ratio = tw / cw;
    }
    report.print();

    std::printf("At 128K: Chisel %.0f%% below TCAM (paper: ~43%%)\n",
                100.0 * first_saving);
    std::printf("At 512K: TCAM/Chisel = %.1fx (paper: ~5x)\n",
                last_ratio);

    RoutingTable small = generateScaledTable(2000, 32, 0xC5);
    Tcam tcam;
    for (const auto &r : small.routes())
        tcam.insert(r.prefix, r.nextHop);
    auto keys = generateLookupKeys(small, 4096, 32, 0.85, 0xC6);
    uint64_t checksum = 0;
    double ns = nsPerOp(keys.size(), 1 << 16, checksum, [&](size_t i) {
        auto r = tcam.lookup(keys[i % keys.size()]);
        return uint64_t{r ? r->nextHop : kNoRoute};
    });
    std::printf("TCAM simulator, %zu entries: %.0f ns/lookup "
                "(software scan on this host, checksum %016llx)\n",
                small.size(), ns,
                static_cast<unsigned long long>(checksum));
    return 0;
}
