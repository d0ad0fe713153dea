/**
 * @file
 * Flight recorder: always-on, bounded-memory capture of the engine's
 * structural events (docs/observability.md).
 *
 * The metrics layer answers "how much"; the flight recorder answers
 * "what happened, in what order, right before things went wrong".  It
 * keeps the last N structured events per thread — update outcomes,
 * health-state transitions, fault-point firings, pointer-flip
 * publications, journal/snapshot operations, parity recoveries — in
 * lock-free per-thread ring buffers, and can dump them:
 *
 *  - on demand, as JSON or a Chrome trace_event file (the /flight
 *    introspection endpoint and --flight-dump= use this path);
 *  - at crash time, from a SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL
 *    handler that formats the rings with async-signal-safe write(2)
 *    calls only — no allocation, no stdio — so the last seconds of
 *    history survive the very failures they explain;
 *  - at process exit, via an atexit hook, when a dump prefix was
 *    configured.
 *
 * The recording hook follows the CHISEL_TRACE_* design: compiled out
 * entirely when CHISEL_FLIGHT_ENABLED is 0 (CMake option
 * CHISEL_ENABLE_FLIGHT=OFF); when compiled in, each CHISEL_FLIGHT_EVENT
 * site is a single atomic pointer load and predictable branch while no
 * recorder is installed — the default state.
 *
 * Concurrency: record() is wait-free (the calling thread owns its
 * ring; the only shared write is one relaxed fetch_add for the global
 * sequence).  Readers (snapshot(), the introspection endpoint, the
 * crash handler) run concurrently with writers: every slot is a tiny
 * seqlock, so a torn read is detected and skipped, never surfaced.
 */

#ifndef CHISEL_TELEMETRY_FLIGHT_HH
#define CHISEL_TELEMETRY_FLIGHT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef CHISEL_FLIGHT_ENABLED
#define CHISEL_FLIGHT_ENABLED 1
#endif

namespace chisel::telemetry {

/** What kind of event a flight record describes. */
enum class FlightKind : uint8_t
{
    UpdateApply,      ///< One announce/withdraw concluded (code = UpdateStatus, a = UpdateClass, b = prefix length).
    HealthTransition, ///< Health state changed (code = new state, a = old state, b = transition count).
    RecoveryAction,   ///< A recovery action completed (code = action, a = success flag).
    FaultFired,       ///< A fault point fired (code = FaultPoint, a = firings so far).
    PublishFlip,      ///< A new engine image went live (a = generation).
    JournalAppend,    ///< A journal record was appended (code = record type, a = seq).
    JournalSync,      ///< The journal fsync'd (a = records written).
    SnapshotSave,     ///< A snapshot was written (a = covered seq, b = bytes).
    SnapshotLoad,     ///< A snapshot load concluded (code = load status, a = covered seq).
    ParityRecovery,   ///< A sub-cell ran recover-by-resetup (a = recoveries so far).
    JournalIoError,   ///< A journal write/fsync failed (a = last seq, b = errors so far).
    ReplicaShip,      ///< A record/snapshot left the leader (code = frame type, a = seq, b = bytes).
    ReplicaApply,     ///< The follower applied a shipped record (code = record type, a = seq).
    ReplicaPromote,   ///< A follower promoted to leader (a = new epoch, b = records replayed).
    ReplicaFence,     ///< A stale-epoch shipment was rejected (a = stale epoch, b = current epoch).
    SlowPathDrain,    ///< Slow-path routes drained back to the TCAM (a = drained, b = remaining).
    TtlExpire,        ///< A TTL deadline retired route(s) (code = status, a = class/batch, b = length).
    ResizePublish,    ///< A grown engine pair was published (a = resizes so far, b = slow path drained).
    NetConnection,    ///< RPC connection opened/closed (code = DisconnectReason, 0 = accept; a = conn id, b = active conns).
    NetRequest,       ///< One RPC served (code = message type, a = conn id, b = batch size).
    NetShed,          ///< A request was answered Overloaded (code = health state, a = conn id, b = message type).
    NetDrain,         ///< Graceful drain progressed (code = phase: 0 begin, 1 flushed, 2 done; a = conns, b = queued bytes).
    Custom,           ///< Free-form (tests, embedders).
    kCount,
};

constexpr size_t kFlightKindCount = static_cast<size_t>(FlightKind::kCount);

/** Lower-case kind name used in dumps ("update_apply", ...). */
const char *flightKindName(FlightKind k);

/** One recorded event, as returned by snapshot(). */
struct FlightEvent
{
    uint64_t seq;     ///< Global record order (1-based, dense).
    uint64_t ns;      ///< monotonicNowNs() at record time.
    uint64_t a;       ///< Kind-specific payload.
    uint64_t b;       ///< Kind-specific payload.
    uint32_t thread;  ///< Recording thread's ordinal (0 = first seen).
    FlightKind kind;
    uint8_t code;     ///< Kind-specific subcode.
};

/**
 * The recorder.  One instance is typically installed process-wide
 * (install()); the CHISEL_FLIGHT_EVENT sites feed whichever instance
 * is installed, from any thread.
 */
class FlightRecorder
{
  public:
    /**
     * @param events_per_thread Ring capacity per recording thread,
     *        rounded up to a power of two (minimum 16).  Memory is
     *        bounded: threads * capacity * 48 bytes.
     */
    explicit FlightRecorder(size_t events_per_thread = 4096);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Record one event from the calling thread (wait-free). */
    void record(FlightKind kind, uint8_t code, uint64_t a, uint64_t b);

    /** Events recorded (including any since overwritten). */
    uint64_t recorded() const;

    /**
     * Events no longer retrievable: overwritten by ring wrap, plus
     * events from threads beyond the ring table's capacity.
     */
    uint64_t dropped() const;

    /** Ring capacity per thread (post-rounding). */
    size_t capacityPerThread() const { return cap_; }

    /** Threads that have recorded at least one event. */
    size_t threadsSeen() const;

    /**
     * Copy out the most recent events, globally ordered by seq
     * (ascending).  Safe against concurrent writers: events being
     * overwritten mid-copy are skipped.  @p max_events keeps only the
     * newest that many.
     */
    std::vector<FlightEvent> snapshot(size_t max_events = SIZE_MAX) const;

    /**
     * Write {"schema": "chisel.flight.v1", ..., "events": [...]} —
     * the /flight endpoint and --flight-dump= format.
     */
    void writeJson(std::ostream &os, size_t max_events = SIZE_MAX,
                   bool pretty = true) const;

    /** writeJson to @p path; warns and returns false on I/O error. */
    bool writeJsonFile(const std::string &path) const;

    /** Chrome trace_event form (chrome://tracing, Perfetto). */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace to @p path; warns/false on I/O error. */
    bool writeChromeTraceFile(const std::string &path) const;

    /**
     * Async-signal-safe dump to an already-open descriptor: the JSON
     * events may appear out of seq order (no sorting without malloc);
     * consumers order by the "seq" field.  Also the crash-handler
     * path.  @p signo is stamped into the document (0 = not a crash).
     */
    void dumpRaw(int fd, int signo = 0) const;

    /** dumpRaw's Chrome trace_event sibling (same safety rules). */
    void dumpRawChromeTrace(int fd) const;

    /** Drop every retained event (quiesced callers only — tests). */
    void clear();

    // ---- Process-wide installation ---------------------------------

    /** The installed recorder, or nullptr (the hook's fast path). */
    static FlightRecorder *active();

    /** Install @p recorder process-wide (nullptr uninstalls). */
    static void install(FlightRecorder *recorder);

    /**
     * Arm the crash/exit dump machinery: SIGABRT/SIGSEGV/SIGBUS/
     * SIGFPE/SIGILL handlers that dump the *installed* recorder to
     * "<prefix>.crash.json" and "<prefix>.crash.trace.json" before
     * re-raising, plus an atexit hook that writes
     * "<prefix>.flight.json" / "<prefix>.flight.trace.json" if a
     * recorder is still installed at normal exit.  Idempotent; the
     * latest prefix wins.
     */
    static void installCrashHandler(const std::string &path_prefix);

  private:
    /** One ring slot: a seqlock'd event (vseq odd = write in flight). */
    struct Slot
    {
        std::atomic<uint64_t> vseq{0};
        std::atomic<uint64_t> seq{0};
        std::atomic<uint64_t> ns{0};
        std::atomic<uint64_t> a{0};
        std::atomic<uint64_t> b{0};
        /** thread ordinal << 16 | kind << 8 | code. */
        std::atomic<uint64_t> meta{0};
    };

    struct Ring
    {
        explicit Ring(size_t cap) : slots(cap) {}

        /** Events written by the owning thread. */
        std::atomic<uint64_t> head{0};
        uint32_t ordinal = 0;
        std::vector<Slot> slots;
    };

    /**
     * Fixed-capacity ring table: the crash handler iterates it with
     * no locks, so entries are atomics published once and never moved.
     */
    static constexpr size_t kMaxThreads = 256;

    /** The calling thread's ring (registered on first use). */
    Ring *threadRing();

    /**
     * The one seqlock slot read: copy @p s into @p e when its version
     * was nonzero, even and unchanged across the payload copy.  No
     * allocation and no locks — the crash dumps run it in a signal
     * handler.  @return false for an empty or torn slot.
     */
    static bool readSlot(const Slot &s, FlightEvent &e);

    /** Call @p fn(const FlightEvent &) for every consistent slot of
     *  every ring, unsorted.  Shared by all readers. */
    template <class Fn>
    void forEachEvent(Fn &&fn) const;

    size_t cap_;
    uint64_t id_;   ///< Process-unique; keys the per-thread ring cache.
    std::atomic<uint64_t> nextSeq_{1};
    std::atomic<uint32_t> ringCount_{0};
    std::array<std::atomic<Ring *>, kMaxThreads> rings_{};
    std::vector<std::unique_ptr<Ring>> owned_;
    std::mutex registerMutex_;
    std::atomic<uint64_t> overflowDrops_{0};
};

} // namespace chisel::telemetry

#if CHISEL_FLIGHT_ENABLED

/**
 * Record one flight event of @p kind with subcode @p code and payload
 * words @p a / @p b into the installed recorder, if any.
 */
#define CHISEL_FLIGHT_EVENT(kind, code, a, b)                             \
    do {                                                                  \
        if (::chisel::telemetry::FlightRecorder *chisel_fr_ =             \
                ::chisel::telemetry::FlightRecorder::active()) {          \
            chisel_fr_->record(::chisel::telemetry::FlightKind::kind,     \
                               static_cast<uint8_t>(code),                \
                               static_cast<uint64_t>(a),                  \
                               static_cast<uint64_t>(b));                 \
        }                                                                 \
    } while (0)

#else

/* Arguments still count as used, so values computed only for the
 * recorder don't warn when it is compiled out. */
#define CHISEL_FLIGHT_EVENT(kind, code, a, b)                             \
    do {                                                                  \
        (void)sizeof(code);                                               \
        (void)sizeof(a);                                                  \
        (void)sizeof(b);                                                  \
    } while (0)

#endif // CHISEL_FLIGHT_ENABLED

#endif // CHISEL_TELEMETRY_FLIGHT_HH
