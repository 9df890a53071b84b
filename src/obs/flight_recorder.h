// FlightRecorder — the crash black box of the observatory.
//
// The recorder keeps no event ring: the environment's always-on EventTracer
// is the one history. At a simulated crash (Msp::Crash records a Crash
// trace event first) or an audit invariant violation (recorded as an
// Invariant trace event) it *freezes* a generation-stamped bundle: the
// tracer's newest kFrozenEvents events plus, per registered server, a
// statusz dump, the in-flight session set and the log extents, plus the
// locks held by the freezing thread. Bundles are bounded (oldest evicted),
// immutable, and owned by SimEnvironment so they survive Msp crash/recovery.
// Recovery joins the latest crash bundle with the replay into the outage
// report (obs/outage_report.h); `tools/msplog --bundle` re-derives it
// offline from a dumped bundle plus the raw log image.
//
// Layering: depends only on audit/, obs/ and injected callbacks (the
// environment passes its tracer, model clock and held-lock summary;
// servers register opaque snapshot providers). scripts/lint_msplog.py
// enforces the boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "audit/mutex.h"
#include "obs/trace.h"

namespace msplog {
namespace obs {

/// Per-server context captured at freeze time by a registered provider.
struct FlightSnapshot {
  std::string statusz_json;  ///< the server's DumpStatusz() at the freeze
  /// Ids of sessions that were started but not ended when the snapshot was
  /// taken — the set the outage report must account for.
  std::vector<std::string> inflight_sessions;
  uint64_t log_end_lsn = 0;        ///< log tail extent (bytes appended)
  uint64_t log_durable_lsn = 0;    ///< durable prefix at the freeze
  uint64_t log_reclaimed_lsn = 0;  ///< reclaimed (punched) prefix
  uint64_t log_archived_lsn = 0;   ///< prefix preserved in archive segments
};

/// One frozen black-box bundle. Immutable once created.
struct FlightBundle {
  bool frozen = false;      ///< false = "no such bundle" sentinel
  uint64_t generation = 0;  ///< crash generation (0 for invariant freezes)
  std::string actor;        ///< crashed server id ("" = invariant trigger)
  std::string trigger;      ///< "crash" or "invariant:<name>"
  std::string detail;
  std::string held_locks;   ///< locks held by the freezing thread
  double frozen_at_ms = 0;
  std::vector<TraceEvent> events;  ///< newest tracer events, oldest first
  uint64_t events_dropped = 0;     ///< tracer overwrites before the freeze
  /// (server id, snapshot) — the crashed server only on a crash freeze,
  /// every registered server on an invariant freeze.
  std::vector<std::pair<std::string, FlightSnapshot>> snapshots;

  std::string ToJson() const;
};

class FlightRecorder {
 public:
  /// Tracer events copied into each bundle.
  static constexpr size_t kFrozenEvents = 512;
  /// Frozen bundles retained (oldest evicted).
  static constexpr size_t kMaxBundles = 4;

  /// `tracer` is the event history bundles freeze a slice of; `now_ms`
  /// supplies freeze timestamps (the environment passes NowModelMs). Both
  /// must outlive the recorder.
  FlightRecorder(EventTracer* tracer, std::function<double()> now_ms);

  /// Callback describing the locks held by the calling thread (the
  /// environment passes the lock-order registry's held summary). Set once
  /// at construction time.
  void set_held_locks_dump(std::function<std::string()> dump);

  // --- server snapshot providers ------------------------------------------

  using SnapshotProvider = std::function<FlightSnapshot()>;
  /// Register / replace the snapshot provider for `actor`. The provider is
  /// invoked outside the recorder lock at freeze time; it must not call back
  /// into Freeze*.
  void SetSnapshotProvider(const std::string& actor, SnapshotProvider p);
  void ClearSnapshotProvider(const std::string& actor);

  // --- freezing -------------------------------------------------------------

  /// Freeze a bundle for a crashing server: tracer slice + that server's
  /// snapshot, stamped with its crash generation. Returns the bundle.
  FlightBundle FreezeOnCrash(const std::string& actor, uint64_t generation,
                             const std::string& detail = "");
  /// Record an Invariant trace event, then freeze a bundle: tracer slice +
  /// a snapshot of every registered server. Reentrancy-guarded per thread
  /// (a provider that itself trips an invariant cannot recurse).
  void FreezeOnViolation(const std::string& invariant,
                         const std::string& detail);

  // --- inspection -----------------------------------------------------------

  /// Retained bundles, oldest first.
  std::vector<FlightBundle> Bundles() const;
  /// Most recent crash bundle whose actor is `actor`; frozen=false if none.
  FlightBundle LatestBundleFor(const std::string& actor) const;
  uint64_t frozen_count() const;
  /// {"bundles":[...]} — every retained bundle.
  std::string DumpJson() const;

 private:
  /// Fill the tracer slice, timestamp and held locks, run `providers`, and
  /// retain the bundle. Called without mu_ held.
  FlightBundle Freeze(
      FlightBundle b,
      const std::vector<std::pair<std::string, SnapshotProvider>>& providers)
      EXCLUDES(mu_);

  EventTracer* tracer_;
  std::function<double()> now_ms_;

  mutable audit::Mutex mu_{"obs.flight_recorder"};
  std::deque<FlightBundle> bundles_ GUARDED_BY(mu_);
  uint64_t frozen_total_ GUARDED_BY(mu_) = 0;
  std::map<std::string, SnapshotProvider> providers_ GUARDED_BY(mu_);
  std::function<std::string()> held_locks_dump_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace msplog
