/**
 * @file
 * Crash recovery: snapshot + journal-tail replay with an adversarial
 * fallback ladder (docs/persistence.md).
 *
 * The ladder, top rung first:
 *
 *   1. primary snapshot  + replay journal records with seq > covered
 *   2. previous snapshot + replay the (longer) journal tail
 *   3. cold setup from the initial table + replay the whole journal
 *
 * Each rung is taken only when every rung above it failed (missing
 * file, CRC mismatch, version/config mismatch, malformed payload —
 * all reported, none fatal).  The journal itself is scanned with the
 * torn-tail rule: the valid record prefix is trusted, everything
 * after the first length/CRC violation is discarded.
 *
 * After the engine is rebuilt, an optional route-by-route audit
 * compares it against a reference table derived independently from
 * the initial table plus the journal (journalTruth) — the recovered
 * engine must contain exactly the routes the durable history says it
 * should.  The recovery audit sends no oracle keys: lookups advance
 * the engine's persisted access counters, and a warm restart must
 * stay bit-identical to the pre-crash engine.
 *
 * auditEngine() is the one plane audit: recovery, the soak harnesses
 * and the replay example all check their planes through it, and its
 * oracle sample compares found, nextHop and matchedLength.
 */

#ifndef CHISEL_PERSIST_RECOVERY_HH
#define CHISEL_PERSIST_RECOVERY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "persist/journal.hh"
#include "persist/snapshot.hh"
#include "trie/binary_trie.hh"

namespace chisel::persist {

/** Inputs to recoverEngine(). */
struct RecoveryOptions
{
    /** Journal path; empty disables replay (snapshot-only restart). */
    std::string journalPath;

    /** Snapshot path; empty disables rungs 1 and 2. */
    std::string snapshotPath;

    /** Config the recovered engine must run under. */
    ChiselConfig config;

    /**
     * Routes the engine was originally built from, for the cold rung
     * and the audit reference (the journal records only post-boot
     * updates).  May be empty if the journal's first snapshot mark
     * covers boot — i.e. a snapshot was taken right after setup.
     */
    RoutingTable initialTable;

    /** Audit the rebuilt engine's routes against journalTruth(). */
    bool audit = true;

    /**
     * Exact journal fingerprint to accept; 0 keeps the default rule
     * (the config's strict or elastic fingerprint).  The sharded
     * persistence layout stamps each shard's journal with a
     * fingerprint that also binds the shard identity
     * (shard::shardJournalFingerprint), so a journal can never be
     * replayed into the wrong keyspace slice.
     */
    uint64_t expectFingerprint = 0;
};

/** Which rung of the ladder produced the engine. */
enum class RecoverySource
{
    Snapshot,          ///< Rung 1: the primary snapshot.
    PreviousSnapshot,  ///< Rung 2: the rotated .prev image.
    ColdSetup,         ///< Rung 3: full rebuild (Bloomier setups paid).
};

const char *recoverySourceName(RecoverySource s);

/** Everything a recovery did and found. */
struct RecoveryReport
{
    /** The rebuilt engine; never null on return (cold rung always
     *  succeeds).  recoverEngine throws only on I/O-level surprises
     *  outside the modelled failure set. */
    std::unique_ptr<ChiselEngine> engine;

    RecoverySource source = RecoverySource::ColdSetup;

    /** Rungs that failed before one worked (0 = snapshot was good). */
    uint64_t fallbacks = 0;

    /** Snapshot images successfully restored (0 or 1). */
    uint64_t snapshotLoads = 0;

    /** Why rung 1 / rung 2 failed; empty when not attempted or ok. */
    std::string snapshotError;
    std::string previousSnapshotError;

    /** Journal scan summary. */
    bool journalHeaderOk = false;
    std::string journalError;
    uint64_t journalRecords = 0;
    bool journalTornTail = false;

    /** Update records re-applied to the engine. */
    uint64_t recordsReplayed = 0;

    /** Sequence number the engine is current through. */
    uint64_t lastSeq = 0;

    /** Audit outcome (meaningful when options.audit). */
    bool auditRan = false;
    bool auditPassed = false;
    uint64_t auditMissing = 0;     ///< Reference routes absent.
    uint64_t auditMismatched = 0;  ///< Present with the wrong next hop.
    uint64_t auditPhantom = 0;     ///< Engine routes not in reference.
};

/**
 * Run the recovery ladder.  See RecoveryOptions/RecoveryReport.
 * Throws ChiselError only for unmodelled I/O failures (e.g. the
 * journal exists but cannot be truncated).
 */
RecoveryReport recoverEngine(const RecoveryOptions &options);

/**
 * The durable history as a route table: @p initial advanced through
 * the Update records of @p scan in stream order (Announce adds;
 * Withdraw and Expire remove).  Built without touching any Chisel
 * data structure, so it cannot share a bug with what it checks.
 */
RoutingTable journalTruth(const RoutingTable &initial,
                          const JournalScan &scan);

/** What one auditEngine()/auditSample() run found. */
struct PlaneAudit
{
    uint64_t missing = 0;     ///< Truth routes the plane lacks.
    uint64_t mismatched = 0;  ///< Present with the wrong next hop.
    uint64_t phantom = 0;     ///< Plane routes not in the truth.
    /** Sampled keys whose found, nextHop or matchedLength differ
     *  from the trie oracle's longest match. */
    uint64_t oracleMismatches = 0;

    /** Truth routes not served exactly (missing or wrong hop). */
    uint64_t lost() const { return missing + mismatched; }

    bool passed() const
    {
        return lost() == 0 && phantom == 0 && oracleMismatches == 0;
    }

    PlaneAudit &operator+=(const PlaneAudit &o)
    {
        missing += o.missing;
        mismatched += o.mismatched;
        phantom += o.phantom;
        oracleMismatches += o.oracleMismatches;
        return *this;
    }
};

/**
 * The oracle half of the audit, for any plane with
 * `LookupResult lookup(const Key128 &)` (ShardedChisel included):
 * every key of @p keys must get exactly the longest match of @p truth —
 * the same found flag, next hop and matched length.  Adds to
 * @p audit.oracleMismatches.
 */
template <class Plane>
void
auditSample(const Plane &plane, const RoutingTable &truth,
            const std::vector<Key128> &keys, PlaneAudit &audit)
{
    if (keys.empty())
        return;   // Don't build a trie of the whole table for nothing.
    BinaryTrie oracle(truth);
    for (const Key128 &key : keys) {
        std::optional<Route> want = oracle.lookup(key);
        LookupResult got = plane.lookup(key);
        bool same = want ? got.found && got.nextHop == want->nextHop &&
                               got.matchedLength ==
                                   want->prefix.length()
                         : !got.found;
        if (!same)
            ++audit.oracleMismatches;
    }
}

/**
 * The one plane audit: compare @p plane against @p truth.  Works on
 * anything with exact-prefix `find`, `lookup` and `routeCount` —
 * ChiselEngine, ConcurrentChisel, one ShardedChisel shard.
 *
 *  - every truth route must be present (else missing) with its next
 *    hop (else mismatched);
 *  - phantom = routeCount() minus the truth routes present, so an
 *    extra route is counted even when another one is missing;
 *  - @p sample goes through auditSample() against a trie of @p truth.
 */
template <class Plane>
PlaneAudit
auditEngine(const Plane &plane, const RoutingTable &truth,
            const std::vector<Key128> &sample = {})
{
    PlaneAudit audit;
    uint64_t present = 0;
    for (const Route &r : truth.routes()) {
        std::optional<NextHop> got = plane.find(r.prefix);
        if (!got) {
            ++audit.missing;
            continue;
        }
        ++present;
        if (*got != r.nextHop)
            ++audit.mismatched;
    }
    uint64_t served = plane.routeCount();
    audit.phantom = served > present ? served - present : 0;
    auditSample(plane, truth, sample, audit);
    return audit;
}

} // namespace chisel::persist

#endif // CHISEL_PERSIST_RECOVERY_HH
