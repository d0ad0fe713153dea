/**
 * @file
 * Self-healing health-state machine for the Chisel control plane.
 *
 * PRs 2–4 gave the engine the *mechanisms* of survival — degradation
 * ladder, parity scrub, resetup, snapshot recovery — but left the
 * decision of when to use them to the operator.  HealthMonitor closes
 * the loop: it folds the existing telemetry signals (slow-path and
 * spill occupancy, dirty-budget pressure, TCAM overflows, setup
 * retries, parity recoveries, a watchdog on update application) into
 * a five-state machine
 *
 *     Healthy -> Stressed -> Degraded -> Quarantined -> Recovering
 *
 * with hysteresis on every transition, and recommends recovery
 * actions that escalate through the existing ladder:
 *
 *     state entered   action
 *     Stressed        purge dirty groups (reclaim Filter slots)
 *     Degraded        full parity scrub
 *     Quarantined     resetup; re-armed while still critical
 *
 * The monitor only *recommends*; the owner (ConcurrentChisel, or the
 * chaos harness directly) executes actions under its own write
 * exclusion and reports completion.  Sampling is explicit — callers
 * feed a HealthSignals every tick — so tests drive the machine
 * deterministically with synthetic signals.  Thresholds and
 * hysteresis depths are constants (monitor.cc).
 *
 * See docs/robustness.md for the state diagram and the full
 * signal -> state -> action degradation matrix.
 */

#ifndef CHISEL_HEALTH_MONITOR_HH
#define CHISEL_HEALTH_MONITOR_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::health {

/** The five health states (order = severity; kCount is a sentinel). */
enum class HealthState : uint8_t
{
    Healthy,      ///< All signals nominal.
    Stressed,     ///< Sustained warnings: pressure, no degradation.
    Degraded,     ///< Critical signals: fallback tiers in active use.
    Quarantined,  ///< Recovery actions in progress; feed suspect.
    Recovering,   ///< Signals clean again; probation before Healthy.
    kCount,
};

constexpr size_t kHealthStateCount =
    static_cast<size_t>(HealthState::kCount);

const char *healthStateName(HealthState s);

/** Recovery actions, in escalation order (docs/robustness.md). */
enum class RecoveryAction : uint8_t
{
    None,
    PurgeDirty,       ///< ChiselEngine::purgeDirty on both images.
    Scrub,            ///< Full parity scrub (ConcurrentChisel::scrubNow).
    Resetup,          ///< Rebuild both images from the live route set.
    Resize,           ///< Capacity pressure: re-plan a grown engine
                      ///< off the serving path and pointer-flip it in
                      ///< (ConcurrentChisel::resizeNow).  Armed by the
                      ///< capacity streak, orthogonally to the state
                      ///< ladder — pressure is growth, not corruption,
                      ///< so no amount of scrubbing relieves it.
    FailedOver,       ///< The node itself was replaced: a warm standby
                      ///< promoted to leader (src/replica/).  Recorded
                      ///< by recordFailover(), never recommended by
                      ///< the sampler — losing the node is not a
                      ///< condition the local ladder can repair.
    kCount,
};

constexpr size_t kRecoveryActionCount =
    static_cast<size_t>(RecoveryAction::kCount);

const char *recoveryActionName(RecoveryAction a);

/**
 * One sampling period's worth of signals.  Occupancies are fractions
 * in [0, 1]; event counts are DELTAS since the previous sample, so
 * the monitor never has to remember absolute counter values.
 */
struct HealthSignals
{
    double slowPathOccupancy = 0.0;  ///< resident / slow-path capacity.
    double spillOccupancy = 0.0;     ///< spill TCAM used / capacity.
    double dirtyOccupancy = 0.0;     ///< dirty groups / dirty budget.
    uint64_t tcamOverflows = 0;      ///< Spill-TCAM refusals.
    uint64_t setupRetries = 0;       ///< Index reseed retries.
    uint64_t parityRecoveries = 0;   ///< Cells recovered from soft errors.
    uint64_t slowPathRejected = 0;   ///< Hard route drops (always critical).
    bool watchdogExpired = false;    ///< An update overran its deadline.
};

/**
 * The state machine.  sample()/recommendedAction()/actionCompleted()
 * must be externally serialized (ConcurrentChisel uses a dedicated
 * mutex); beginUpdate()/endUpdate()/watchdogExpired() and all const
 * accessors are lock-free and safe from any thread.
 */
class HealthMonitor
{
  public:
    using Clock = std::chrono::steady_clock;

    // ---- Watchdog (stamped around every update application) --------

    void beginUpdate(Clock::time_point now = Clock::now());
    void endUpdate();

    /** True if an update has been in flight past the deadline. */
    bool watchdogExpired(Clock::time_point now = Clock::now()) const;

    // ---- Sampling --------------------------------------------------

    /** Fold one signal sample in; @return the (possibly new) state. */
    HealthState sample(const HealthSignals &signals);

    HealthState
    state() const
    {
        return static_cast<HealthState>(
            state_.load(std::memory_order_acquire));
    }

    const char *stateName() const { return healthStateName(state()); }

    // ---- Recovery actions ------------------------------------------

    /**
     * The pending recovery action, consumed: a second call returns
     * None until the next transition (or escalation) arms another.
     */
    RecoveryAction takeAction();

    /** Report an executed action (a flight record). */
    void actionCompleted(RecoveryAction action, bool success);

    /**
     * Record a warm-standby promotion (docs/replication.md): counts a
     * FailedOver action, leaves a flight record, and moves the
     * machine to Recovering — a freshly promoted leader serves, but
     * on probation until three clean samples pass.
     */
    void recordFailover();

    // ---- Introspection ---------------------------------------------

    uint64_t transitions() const { return transitions_; }
    uint64_t entered(HealthState s) const;
    uint64_t actionsTaken(RecoveryAction a) const;
    uint64_t watchdogExpirations() const { return watchdogTrips_; }
    uint64_t samples() const { return samples_; }

    /**
     * Publish state + transition counters as gauges/counters under
     * @p prefix (default "health") — the --metrics-json surface.
     */
    void publish(telemetry::MetricRegistry &registry,
                 const std::string &prefix = "health") const;

  private:
    enum class Severity { Ok, Warn, Critical };

    Severity classify(const HealthSignals &signals) const;
    void transition(HealthState to);

    std::atomic<uint8_t> state_{
        static_cast<uint8_t>(HealthState::Healthy)};

    unsigned warnStreak_ = 0;   ///< Consecutive warn-or-worse samples.
    unsigned critStreak_ = 0;   ///< Consecutive critical samples.
    unsigned okStreak_ = 0;     ///< Consecutive clean samples.
    unsigned stateCrit_ = 0;    ///< Critical samples in current state.
    /** Consecutive capacity-pressure samples (survives transitions:
     * growth pressure does not reset because the ladder moved). */
    unsigned capacityStreak_ = 0;
    /** Samples left before capacity pressure may arm again. */
    unsigned capacityCooldown_ = 0;

    RecoveryAction pending_ = RecoveryAction::None;

    uint64_t samples_ = 0;
    uint64_t transitions_ = 0;
    std::array<uint64_t, kHealthStateCount> entered_{};
    std::array<uint64_t, kRecoveryActionCount> actions_{};
    uint64_t watchdogTrips_ = 0;

    /** ns-since-epoch the in-flight update started; 0 = idle. */
    std::atomic<int64_t> updateStartNs_{0};
};

} // namespace chisel::health

#endif // CHISEL_HEALTH_MONITOR_HH
