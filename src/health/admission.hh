/**
 * @file
 * Update admission for the RPC front end: fail-fast token buckets.
 *
 * ChiselService (src/net/server.hh) answers every update request
 * synchronously, so it cannot park an update it has already promised
 * a reply for.  AdmissionController meters updates through one token
 * bucket per class (announces and withdraws refill independently);
 * an update whose class is out of tokens is refused on the spot and
 * the client receives Overloaded with a retry-after hint.  Health-
 * state shedding is the service's other overload policy; the buckets
 * additionally meter updates while the plane is Healthy
 * (docs/robustness.md).
 *
 * Single-threaded by contract: tryAdmit() is called by the one
 * serving thread.
 */

#ifndef CHISEL_HEALTH_ADMISSION_HH
#define CHISEL_HEALTH_ADMISSION_HH

#include <chrono>

#include "route/updates.hh"

namespace chisel::health {

/** Admission-control knobs (all deterministic except token refill). */
struct AdmissionOptions
{
    /** Master switch; disabled, tryAdmit() admits everything. */
    bool enabled = false;

    /**
     * Token-bucket rates per update class, in updates/second; 0
     * disables metering for that class.  Bursts up to tokenBurst are
     * admitted at line rate.
     */
    double announceTokensPerSec = 0.0;
    double withdrawTokensPerSec = 0.0;

    /** Bucket depth (maximum burst admitted without shedding). */
    double tokenBurst = 256.0;
};

/** Per-class token buckets.  See file comment for policy. */
class AdmissionController
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit AdmissionController(const AdmissionOptions &options);

    /**
     * Refill the buckets and take one token for @p kind; @return
     * false when the class is out of tokens.
     */
    bool tryAdmit(UpdateKind kind, Clock::time_point now = Clock::now());

  private:
    /** Refill both buckets from elapsed wall time. */
    void refill(Clock::time_point now);

    /** Take one token for @p kind; true if the class is unmetered. */
    bool takeToken(UpdateKind kind);

    AdmissionOptions options_;

    double tokens_[2] = {0.0, 0.0};     ///< [Announce, Withdraw].
    Clock::time_point lastRefill_{};
    bool refilled_ = false;
};

} // namespace chisel::health

#endif // CHISEL_HEALTH_ADMISSION_HH
