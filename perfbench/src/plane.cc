#include "plane.hh"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <filesystem>
#include <thread>

namespace perfbench {

namespace {

/** Keeps lookup results observable so no call is optimized away. */
std::atomic<uint64_t> g_sink{0};

void
readerLoop(const ShardedChisel &plane, const std::vector<Key128> &keys,
           size_t start, const std::atomic<bool> &stop, ReaderRun &out,
           SpanRing *ring, size_t slot)
{
    pinLoadThread(slot);
    out.latency.reserve(1 << 20);
    size_t i = start % keys.size();
    uint64_t n = 0;
    uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        for (size_t b = 0; b < ReaderRun::kSampleEvery; ++b) {
            const Key128 &k = keys[i];
            if (++i == keys.size())
                i = 0;
            if (b == 0 || ring != nullptr) {
                uint64_t t0 = nowNs();
                sink += plane.lookup(k).nextHop;
                uint64_t t1 = nowNs();
                if (b == 0)
                    out.latency.add(t1, t1 - t0);
                if (ring != nullptr)
                    ring->record("shard.lookup", t0, t1,
                                 uint64_t{ring->tid()} << 40 | (n + b), 1);
            } else {
                sink += plane.lookup(k).nextHop;
            }
        }
        n += ReaderRun::kSampleEvery;
    }
    out.lookups = n;
    g_sink.fetch_add(sink, std::memory_order_relaxed);
}

std::vector<int>
cpusOf(const cpu_set_t &set)
{
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            out.push_back(c);
    return out;
}

/** The CPUs the process may use, read once before any pinning. */
const std::vector<int> &
usableCpus()
{
    static const std::vector<int> cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        ::sched_getaffinity(0, sizeof(set), &set);
        return cpusOf(set);
    }();
    return cpus;
}

std::vector<int>
currentCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    ::pthread_getaffinity_np(::pthread_self(), sizeof(set), &set);
    return cpusOf(set);
}

void
setCpus(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

} // anonymous namespace

void
pinLoadThread(size_t slot)
{
    const std::vector<int> &cpus = usableCpus();
    if (cpus.size() > 1)
        setCpus({cpus[slot % (cpus.size() - 1)]});
}

CpuScope::CpuScope(bool any) : saved_(currentCpus())
{
    const std::vector<int> &cpus = usableCpus();
    if (any)
        setCpus(cpus);
    else if (cpus.size() > 1)
        setCpus({cpus.back()});
}

CpuScope::~CpuScope()
{
    setCpus(saved_);
}

ReaderRun
runReaders(const ShardedChisel &plane, const std::vector<Key128> &keys,
           size_t threads, SpanLog *spans,
           const std::function<void()> &body)
{
    std::atomic<bool> stop{false};
    std::vector<ReaderRun> runs(threads);
    std::vector<std::thread> pool;
    uint64_t t0 = nowNs();
    for (size_t t = 0; t < threads; ++t) {
        SpanRing *ring = spans ? spans->ring() : nullptr;
        pool.emplace_back(readerLoop, std::cref(plane), std::cref(keys),
                          t * keys.size() / threads, std::cref(stop),
                          std::ref(runs[t]), ring, t + 1);
    }
    body();
    uint64_t t1 = nowNs();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &th : pool)
        th.join();
    ReaderRun total;
    total.startNs = t0;
    total.endNs = t1;
    if (spans != nullptr)
        spans->ring(1)->record("load", t0, total.endNs, 1, 0);
    for (const ReaderRun &r : runs) {
        total.lookups += r.lookups;
        total.latency.append(r.latency);
    }
    return total;
}

void
warmPass(const ShardedChisel &plane, const std::vector<Key128> &keys,
         size_t threads)
{
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            pinLoadThread(t + 1);
            uint64_t sink = 0;
            size_t end = (t + 1) * keys.size() / threads;
            for (size_t i = t * keys.size() / threads; i < end; ++i)
                sink += plane.lookup(keys[i]).nextHop;
            g_sink.fetch_add(sink, std::memory_order_relaxed);
        });
    }
    for (std::thread &th : pool)
        th.join();
}

ReplayRun
replay(ShardedChisel &plane, const std::vector<Update> &updates,
       SpanRing *spans, double limit_s)
{
    ReplayRun run;
    run.latency.reserve(updates.size());
    run.startNs = nowNs();
    auto limit_ns = static_cast<uint64_t>(limit_s * 1e9);
    for (size_t i = 0; i < updates.size(); ++i) {
        uint64_t t0 = nowNs();
        auto r = plane.apply(updates[i]);
        uint64_t t1 = nowNs();
        run.latency.add(t1, t1 - t0);
        if (spans != nullptr)
            spans->record("shard.apply", t0, t1, i + 1, 1);
        if (r.outcome.status == chisel::UpdateStatus::Rejected)
            ++run.rejected;
        else
            ++run.applied;
        if (limit_ns != 0 && t1 - run.startNs >= limit_ns)
            break;
    }
    run.endNs = nowNs();
    return run;
}

ServingNode::ServingNode(const chisel::RoutingTable &table,
                         const std::string &dir_, bool serve)
    : dir(dir_)
{
    chisel::shard::ShardedOptions opts;
    if (!dir.empty()) {
        std::filesystem::remove_all(dir);
        opts.persistDir = dir;
    }
    {
        CpuScope housekeeping(false);
        plane = std::make_unique<ShardedChisel>(table, opts);
    }
    if (serve) {
        CpuScope any(true);
        service = std::make_unique<chisel::net::ChiselService>(*plane);
        if (!service->start())
            throw std::runtime_error("ChiselService failed to start");
    }
}

ServingNode::~ServingNode()
{
    if (service)
        service->stop();
    service.reset();
    plane.reset();
    if (!dir.empty())
        std::filesystem::remove_all(dir);
}

void
timedSetup(std::unique_ptr<ServingNode> &node,
           const chisel::RoutingTable &table, const std::string &dir,
           bool serve, std::vector<double> &seconds,
           std::vector<double> &mib)
{
    node.reset();
    // Hand freed heap back first, so the resident-memory delta counts
    // what the new node holds, not allocator leftovers.
    ::malloc_trim(0);
    double rss0 = residentMiB();
    uint64_t t0 = nowNs();
    node = std::make_unique<ServingNode>(table, dir, serve);
    seconds.push_back(secondsSince(t0));
    ::malloc_trim(0);
    mib.push_back(residentMiB() - rss0);
}

size_t
checkPlane(const ShardedChisel &plane, const chisel::BinaryTrie &trie,
           const std::vector<Key128> &keys)
{
    return oracleMismatches(
        trie, keys,
        [&](const Key128 &k, bool &found, uint32_t &nh, unsigned &len) {
            chisel::LookupResult r = plane.lookup(k);
            found = r.found;
            nh = r.nextHop;
            len = r.matchedLength;
        });
}

} // namespace perfbench
