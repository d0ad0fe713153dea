/**
 * @file
 * chisel_perfbench --workload <lookup-dfz|churn|service-mixed>
 *                  --seed <n> --seconds <s> --trace <0|1> --out <dir>
 *
 * Prints the host/build line, per-metric lines and, last, one JSON
 * result line.  Exits 1 when any answer disagrees with the trie
 * oracle, 2 on a usage error.
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "plane.hh"
#include "common/logging.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: chisel_perfbench --workload "
                 "<lookup-dfz|churn|service-mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value != "0";
        else if (flag == "--out")
            args.outDir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || args.outDir.empty() || args.seconds <= 0)
        return usage();

    perfbench::Result (*run)(const perfbench::Args &) = nullptr;
    if (args.workload == "lookup-dfz")
        run = perfbench::runLookupDfz;
    else if (args.workload == "churn")
        run = perfbench::runChurn;
    else if (args.workload == "service-mixed")
        run = perfbench::runServiceMixed;
    else
        return usage();

    chisel::setLogLevel(chisel::LogLevel::Warn);
    perfbench::pinLoadThread(0);
    std::filesystem::create_directories(args.outDir);
    std::printf("host %s\n", perfbench::hostJson().c_str());
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    perfbench::Result result;
    try {
        result = run(args);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "chisel_perfbench: %s\n", ex.what());
        return 3;
    }
    perfbench::printResult(result);
    return result.correct ? 0 : 1;
}
