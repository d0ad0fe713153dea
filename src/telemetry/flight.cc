#include "telemetry/flight.hh"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/clock.hh"
#include "common/logging.hh"
#include "telemetry/json.hh"

namespace chisel::telemetry {

const char *
flightKindName(FlightKind k)
{
    switch (k) {
      case FlightKind::UpdateApply: return "update_apply";
      case FlightKind::HealthTransition: return "health_transition";
      case FlightKind::RecoveryAction: return "recovery_action";
      case FlightKind::FaultFired: return "fault_fired";
      case FlightKind::PublishFlip: return "publish_flip";
      case FlightKind::JournalAppend: return "journal_append";
      case FlightKind::JournalSync: return "journal_sync";
      case FlightKind::SnapshotSave: return "snapshot_save";
      case FlightKind::SnapshotLoad: return "snapshot_load";
      case FlightKind::ParityRecovery: return "parity_recovery";
      case FlightKind::JournalIoError: return "journal_io_error";
      case FlightKind::ReplicaShip: return "replica_ship";
      case FlightKind::ReplicaApply: return "replica_apply";
      case FlightKind::ReplicaPromote: return "replica_promote";
      case FlightKind::ReplicaFence: return "replica_fence";
      case FlightKind::SlowPathDrain: return "slowpath_drain";
      case FlightKind::TtlExpire: return "ttl_expire";
      case FlightKind::ResizePublish: return "resize_publish";
      case FlightKind::NetConnection: return "net_connection";
      case FlightKind::NetRequest: return "net_request";
      case FlightKind::NetShed: return "net_shed";
      case FlightKind::NetDrain: return "net_drain";
      case FlightKind::Custom: return "custom";
      case FlightKind::kCount: break;
    }
    return "unknown";
}

namespace {

/** The process-wide installed recorder (constant-initialized). */
std::atomic<FlightRecorder *> g_activeRecorder{nullptr};

/** Crash-dump path prefix; fixed storage so the handler never
 *  allocates.  Empty first byte = dumping disarmed. */
char g_dumpPrefix[192] = {0};

std::atomic<bool> g_handlersInstalled{false};

uint64_t
nextRecorderId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

size_t
roundUpPow2(size_t v)
{
    size_t p = 16;
    while (p < v && p < (size_t(1) << 30))
        p <<= 1;
    return p;
}

// ---- Async-signal-safe output helpers ------------------------------

void
fdWrite(int fd, const char *s, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, s, n);
        if (w <= 0)
            return;
        s += w;
        n -= static_cast<size_t>(w);
    }
}

void
fdStr(int fd, const char *s)
{
    fdWrite(fd, s, std::strlen(s));
}

void
fdU64(int fd, uint64_t v)
{
    char buf[24];
    size_t i = sizeof(buf);
    do {
        buf[--i] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    fdWrite(fd, buf + i, sizeof(buf) - i);
}

/** Bounded strcat into @p dst; async-signal-safe. */
void
catPath(char *dst, size_t cap, const char *a, const char *b)
{
    size_t i = 0;
    for (; *a != '\0' && i + 1 < cap; ++a)
        dst[i++] = *a;
    for (; *b != '\0' && i + 1 < cap; ++b)
        dst[i++] = *b;
    dst[i] = '\0';
}

void
crashHandler(int signo)
{
    // Default disposition first: a second fault while dumping (or the
    // re-raise below) must terminate, not recurse.
    std::signal(signo, SIG_DFL);
    FlightRecorder *rec = FlightRecorder::active();
    if (rec != nullptr && g_dumpPrefix[0] != '\0') {
        char path[256];
        catPath(path, sizeof(path), g_dumpPrefix, ".crash.json");
        int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            rec->dumpRaw(fd, signo);
            ::close(fd);
        }
        catPath(path, sizeof(path), g_dumpPrefix, ".crash.trace.json");
        fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            rec->dumpRawChromeTrace(fd);
            ::close(fd);
        }
    }
    ::raise(signo);
}

/**
 * Exit-path safety net: if the process ends without the owner calling
 * TelemetrySession::finish() (which uninstalls the recorder), the
 * retained history is still flushed to disk.
 */
void
exitDump()
{
    FlightRecorder *rec = FlightRecorder::active();
    if (rec == nullptr || g_dumpPrefix[0] == '\0')
        return;
    std::string prefix(g_dumpPrefix);
    rec->writeJsonFile(prefix + ".flight.json");
    rec->writeChromeTraceFile(prefix + ".flight.trace.json");
}

/**
 * Per-thread ring cache: (recorder id -> ring).  Ids are process-
 * unique and never reused, so a stale entry for a destroyed recorder
 * can never be matched again.
 */
thread_local std::vector<std::pair<uint64_t, void *>> t_ringCache;

} // anonymous namespace

FlightRecorder *
FlightRecorder::active()
{
    return g_activeRecorder.load(std::memory_order_acquire);
}

void
FlightRecorder::install(FlightRecorder *recorder)
{
    g_activeRecorder.store(recorder, std::memory_order_release);
}

void
FlightRecorder::installCrashHandler(const std::string &path_prefix)
{
    std::strncpy(g_dumpPrefix, path_prefix.c_str(),
                 sizeof(g_dumpPrefix) - 1);
    g_dumpPrefix[sizeof(g_dumpPrefix) - 1] = '\0';
    if (g_handlersInstalled.exchange(true))
        return;   // Signals and atexit are armed once; prefix updates.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sigemptyset(&sa.sa_mask);
    for (int signo : {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL})
        ::sigaction(signo, &sa, nullptr);
    std::atexit(exitDump);
}

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : cap_(roundUpPow2(events_per_thread)), id_(nextRecorderId())
{
}

FlightRecorder::~FlightRecorder()
{
    if (active() == this)
        install(nullptr);
}

FlightRecorder::Ring *
FlightRecorder::threadRing()
{
    for (const auto &[id, ring] : t_ringCache)
        if (id == id_)
            return static_cast<Ring *>(ring);

    std::lock_guard<std::mutex> lock(registerMutex_);
    uint32_t idx = ringCount_.load(std::memory_order_relaxed);
    Ring *ring = nullptr;
    if (idx < kMaxThreads) {
        owned_.push_back(std::make_unique<Ring>(cap_));
        ring = owned_.back().get();
        ring->ordinal = idx;
        rings_[idx].store(ring, std::memory_order_release);
        ringCount_.store(idx + 1, std::memory_order_release);
    }
    // A null ring (table full) is cached too, so the overflow thread
    // pays one vector scan per event, not one mutex per event.
    t_ringCache.emplace_back(id_, ring);
    return ring;
}

void
FlightRecorder::record(FlightKind kind, uint8_t code, uint64_t a,
                       uint64_t b)
{
    Ring *ring = threadRing();
    if (ring == nullptr) {
        overflowDrops_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    uint64_t seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    uint64_t head = ring->head.load(std::memory_order_relaxed);
    Slot &s = ring->slots[head & (cap_ - 1)];

    // Seqlock write: odd vseq marks the slot torn; the release fence
    // orders the odd mark before any payload store.
    uint64_t v = s.vseq.load(std::memory_order_relaxed);
    s.vseq.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.ns.store(monotonicNowNs(), std::memory_order_relaxed);
    s.a.store(a, std::memory_order_relaxed);
    s.b.store(b, std::memory_order_relaxed);
    s.meta.store(uint64_t(ring->ordinal) << 16 |
                     uint64_t(static_cast<uint8_t>(kind)) << 8 | code,
                 std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_relaxed);
    s.vseq.store(v + 2, std::memory_order_release);
    ring->head.store(head + 1, std::memory_order_release);
}

uint64_t
FlightRecorder::recorded() const
{
    return nextSeq_.load(std::memory_order_acquire) - 1;
}

uint64_t
FlightRecorder::dropped() const
{
    uint64_t dropped = overflowDrops_.load(std::memory_order_acquire);
    uint32_t n = ringCount_.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
        const Ring *ring = rings_[i].load(std::memory_order_acquire);
        if (ring == nullptr)
            continue;
        uint64_t head = ring->head.load(std::memory_order_acquire);
        if (head > cap_)
            dropped += head - cap_;
    }
    return dropped;
}

size_t
FlightRecorder::threadsSeen() const
{
    return ringCount_.load(std::memory_order_acquire);
}

bool
FlightRecorder::readSlot(const Slot &s, FlightEvent &e)
{
    uint64_t v1 = s.vseq.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0)
        return false;
    e.seq = s.seq.load(std::memory_order_relaxed);
    e.ns = s.ns.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    uint64_t meta = s.meta.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.vseq.load(std::memory_order_relaxed) != v1)
        return false;
    e.thread = static_cast<uint32_t>(meta >> 16);
    e.kind = static_cast<FlightKind>((meta >> 8) & 0xff);
    e.code = static_cast<uint8_t>(meta & 0xff);
    return true;
}

template <class Fn>
void
FlightRecorder::forEachEvent(Fn &&fn) const
{
    uint32_t n = ringCount_.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
        const Ring *ring = rings_[i].load(std::memory_order_acquire);
        if (ring == nullptr)
            continue;
        for (const Slot &s : ring->slots) {
            FlightEvent e;
            if (readSlot(s, e))
                fn(e);
        }
    }
}

std::vector<FlightEvent>
FlightRecorder::snapshot(size_t max_events) const
{
    std::vector<FlightEvent> events;
    forEachEvent([&events](const FlightEvent &e) { events.push_back(e); });
    std::sort(events.begin(), events.end(),
              [](const FlightEvent &x, const FlightEvent &y) {
                  return x.seq < y.seq;
              });
    if (events.size() > max_events)
        events.erase(events.begin(),
                     events.end() - static_cast<ptrdiff_t>(max_events));
    return events;
}

void
FlightRecorder::writeJson(std::ostream &os, size_t max_events,
                          bool pretty) const
{
    std::vector<FlightEvent> events = snapshot(max_events);
    JsonWriter w(os, pretty);
    w.beginObject();
    w.member("schema", "chisel.flight.v1");
    w.member("recorded", recorded());
    w.member("dropped", dropped());
    w.member("threads", uint64_t(threadsSeen()));
    w.member("capacity_per_thread", uint64_t(capacityPerThread()));
    w.key("events");
    w.beginArray();
    for (const FlightEvent &e : events) {
        w.beginObject();
        w.member("seq", e.seq);
        w.member("ns", e.ns);
        w.member("thread", uint64_t(e.thread));
        w.member("kind", flightKindName(e.kind));
        w.member("code", uint64_t(e.code));
        w.member("a", e.a);
        w.member("b", e.b);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

bool
FlightRecorder::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open " + path + " for the flight dump");
        return false;
    }
    writeJson(out);
    return static_cast<bool>(out);
}

void
FlightRecorder::writeChromeTrace(std::ostream &os) const
{
    std::vector<FlightEvent> events = snapshot();
    uint64_t first = events.empty() ? 0 : events.front().ns;
    ChromeTraceWriter trace(os, "ms");
    for (const FlightEvent &e : events)
        trace.instant(flightKindName(e.kind), nullptr, "g",
                      double(e.ns - first) / 1000.0, 1, e.thread,
                      {{"seq", e.seq},
                       {"code", uint64_t(e.code)},
                       {"a", e.a},
                       {"b", e.b}});
    trace.finish();
}

bool
FlightRecorder::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open " + path + " for the flight trace");
        return false;
    }
    writeChromeTrace(out);
    return static_cast<bool>(out);
}

void
FlightRecorder::dumpRaw(int fd, int signo) const
{
    fdStr(fd, "{\"schema\":\"chisel.flight.v1\",\"crash_signal\":");
    fdU64(fd, static_cast<uint64_t>(signo));
    fdStr(fd, ",\"recorded\":");
    fdU64(fd, recorded());
    fdStr(fd, ",\"events\":[");
    bool firstOut = true;
    forEachEvent([fd, &firstOut](const FlightEvent &e) {
        if (!firstOut)
            fdStr(fd, ",");
        firstOut = false;
        fdStr(fd, "{\"seq\":");
        fdU64(fd, e.seq);
        fdStr(fd, ",\"ns\":");
        fdU64(fd, e.ns);
        fdStr(fd, ",\"thread\":");
        fdU64(fd, e.thread);
        fdStr(fd, ",\"kind\":\"");
        fdStr(fd, flightKindName(e.kind));
        fdStr(fd, "\",\"code\":");
        fdU64(fd, e.code);
        fdStr(fd, ",\"a\":");
        fdU64(fd, e.a);
        fdStr(fd, ",\"b\":");
        fdU64(fd, e.b);
        fdStr(fd, "}");
    });
    fdStr(fd, "]}\n");
}

void
FlightRecorder::dumpRawChromeTrace(int fd) const
{
    fdStr(fd, "{\"traceEvents\":[");
    bool firstOut = true;
    forEachEvent([fd, &firstOut](const FlightEvent &e) {
        if (!firstOut)
            fdStr(fd, ",");
        firstOut = false;
        fdStr(fd, "{\"name\":\"");
        fdStr(fd, flightKindName(e.kind));
        // Integer microseconds: no float formatting in a handler.
        fdStr(fd, "\",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
        fdU64(fd, e.ns / 1000);
        fdStr(fd, ",\"pid\":1,\"tid\":");
        fdU64(fd, e.thread);
        fdStr(fd, ",\"args\":{\"seq\":");
        fdU64(fd, e.seq);
        fdStr(fd, ",\"code\":");
        fdU64(fd, e.code);
        fdStr(fd, "}}");
    });
    fdStr(fd, "]}\n");
}

void
FlightRecorder::clear()
{
    uint32_t n = ringCount_.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
        Ring *ring = rings_[i].load(std::memory_order_acquire);
        if (ring == nullptr)
            continue;
        for (Slot &s : ring->slots) {
            s.seq.store(0, std::memory_order_relaxed);
            s.vseq.store(0, std::memory_order_relaxed);
        }
        ring->head.store(0, std::memory_order_relaxed);
    }
}

} // namespace chisel::telemetry
