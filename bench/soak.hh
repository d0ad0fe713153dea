/**
 * @file
 * Shared plumbing for the soak harnesses (chaos_soak, churn_soak,
 * failover_soak, shard_soak): the verdict checklist, self re-exec for
 * the multi-process drills, condition polling, and the JSON report
 * file.  The plane audit itself is persist::auditEngine
 * (persist/recovery.hh).  Header-only: bench/ builds one binary per
 * top-level .cc.
 */

#ifndef CHISEL_BENCH_SOAK_HH
#define CHISEL_BENCH_SOAK_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <unistd.h>

#include "common/clock.hh"
#include "telemetry/json.hh"

namespace chisel::soak {

/** Failed verdict checks so far. */
inline size_t g_failures = 0;

/** One verdict line: @p what, then "ok" or "FAIL" (counted). */
inline void
check(bool ok, const char *what)
{
    std::printf("  %-56s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok)
        ++g_failures;
}

/** Print "<name>: PASS|FAIL (n failures)"; @return the exit status. */
inline int
verdict(const char *name)
{
    std::printf("%s: %s (%zu failure%s)\n", name,
                g_failures == 0 ? "PASS" : "FAIL", g_failures,
                g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}

/**
 * Fork and re-exec this binary with @p args (argv[1..]).  @return the
 * child's pid, or -1 when the executable cannot be resolved.
 */
inline pid_t
spawnSelf(const std::vector<std::string> &args)
{
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        return -1;
    exe[n] = '\0';

    std::vector<std::string> all = {exe};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : all)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(exe, argv.data());
        _exit(127);
    }
    return pid;
}

/** Poll @p cond up to @p limit_ms; @return ms waited, or -1. */
template <class Cond>
int64_t
waitFor(Cond &&cond, int64_t limit_ms)
{
    uint64_t t0 = monotonicNowNs();
    while (!cond()) {
        if (int64_t((monotonicNowNs() - t0) / 1000000) > limit_ms)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return int64_t((monotonicNowNs() - t0) / 1000000);
}

/**
 * Write a pretty-printed JSON report to @p path: @p body fills the
 * document through the JsonWriter.  @p what names it in the
 * confirmation line.
 */
template <class Body>
void
writeReport(const std::string &path, const char *what, Body &&body)
{
    std::ostringstream os;
    {
        telemetry::JsonWriter w(os, true);
        body(w);
    }
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fputs(os.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("%s report written to %s\n", what, path.c_str());
    }
}

} // namespace chisel::soak

#endif // CHISEL_BENCH_SOAK_HH
