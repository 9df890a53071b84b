// Msp — a recoverable Middleware Server Process, the system of the paper.
//
// An Msp serves client-initiated requests with a thread pool, maintains
// private per-session state and shared in-memory state, and makes all of it
// recoverable through its log:
//
//   * locally optimistic logging (§3.1): DV-tagged optimistic messages
//     inside the service domain, pessimistic distributed log flushes across
//     domain boundaries and toward end clients;
//   * per-session DVs and state numbers (§3.2), so sessions are independent
//     recovery units inside the crash unit that is the MSP;
//   * value logging with backward write chains for shared variables (§3.3);
//   * independent session / shared-variable checkpoints plus fuzzy MSP
//     checkpoints anchored ARIES-style (§3.4);
//   * crash recovery with a single analysis scan followed by parallel
//     session replay, and lazy orphan recovery driven by recovery
//     broadcasts (§4).
//
// Crash semantics: Crash() discards everything volatile — the log buffer,
// position buffers, sessions, shared-variable values, pending calls — and
// unregisters the network endpoint. Start() afterwards re-runs crash
// recovery from the durable log, exactly as a restarted OS process would.
//
// The §5 baselines (MspConfig::mode NoLog, Psession, StateServer) run the
// same runtime without a log: Start(), the one place that reads the mode,
// builds either the log side (LogFile, recovery coordinator, checkpoint
// daemon) or a SessionStore (baseline/session_store.h). Everywhere else
// "does this MSP log?" is `log_ != nullptr`.
//
// Source files: msp.cc (lifecycle, request path, shared variables,
// outgoing calls), msp_rpc.cc (call round trips, distributed flush),
// msp_checkpoint.cc (§3.2–§3.4), msp_recovery.cc (§4 replay and undo),
// msp_status.cc (statusz, telemetry, flight snapshot).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/mutex.h"
#include "baseline/session_store.h"
#include "common/bytes.h"
#include "common/status.h"
#include "log/log_anchor.h"
#include "log/log_file.h"
#include "msp/flush_aggregator.h"
#include "msp/msp_config.h"
#include "msp/service_context.h"
#include "msp/service_domain.h"
#include "msp/session.h"
#include "msp/shared_variable.h"
#include "msp/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/outage_report.h"
#include "obs/recovery_timeline.h"
#include "recovery/recovered_state_table.h"
#include "rpc/message.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {

class ExecContext;
class ReplayCursor;
class RecoveryCoordinator;

/// Typed designator for Msp::ForceCheckpoint — the one entry point behind
/// which the three checkpoint kinds of §3.4 (whole-MSP fuzzy checkpoint,
/// per-session checkpoint, shared-variable checkpoint) now live.
struct CheckpointTarget {
  enum class Kind { kMsp, kSession, kSharedVar };
  Kind kind = Kind::kMsp;
  /// Session id (kSession) or shared-variable name (kSharedVar).
  std::string name;

  static CheckpointTarget Msp() { return {Kind::kMsp, ""}; }
  static CheckpointTarget Session(std::string id) {
    return {Kind::kSession, std::move(id)};
  }
  static CheckpointTarget SharedVar(std::string var) {
    return {Kind::kSharedVar, std::move(var)};
  }
};

class Msp {
 public:
  Msp(SimEnvironment* env, SimNetwork* network, SimDisk* disk,
      DomainDirectory* directory, MspConfig config);
  ~Msp();

  Msp(const Msp&) = delete;
  Msp& operator=(const Msp&) = delete;

  // ---- setup (before Start) ----
  void RegisterMethod(const std::string& name, ServiceMethod fn);
  void RegisterSharedVariable(const std::string& name, Bytes initial);

  // ---- lifecycle ----
  /// Boot the server. A log-based MSP runs crash recovery (§4.3) before
  /// accepting traffic; sessions then recover in parallel while new sessions
  /// are served.
  Status Start();

  /// Graceful stop: flushes the log, joins all threads, unregisters.
  void Shutdown();

  /// Abrupt failure: volatile state is lost; the durable log survives.
  void Crash();

  bool running() const { return state_.load() == State::kRunning; }
  uint32_t epoch() const { return epoch_.load(); }
  const MspConfig& config() const { return config_; }
  SimEnvironment* env() const { return env_; }
  /// The log while running; null for a baseline MSP or before Start.
  LogFile* log() const { return log_.get(); }

  // ---- explicit checkpoint triggers (also driven by the daemon) ----
  /// Force a checkpoint of `target` now: the whole MSP (fuzzy, §3.4), one
  /// session, or one shared variable. Unsupported without a log.
  Status ForceCheckpoint(const CheckpointTarget& target);

  // ---- introspection ----
  StatusOr<Bytes> PeekSharedValue(const std::string& name) const;
  RecoveredStateTable SnapshotRecoveredTable() const;

  /// Structured timeline of the most recent crash recovery: analysis-scan
  /// duration and volume, per-session replay phases, parallelism achieved,
  /// orphan-recovery events observed since that recovery started, and the
  /// per-session `provenance` (which checkpoints and (epoch, seqno, LSN)
  /// records rebuilt each session; lazy orphan recoveries update theirs).
  obs::RecoveryTimeline LastRecoveryTimeline() const;

  /// Bounded history of recovery timelines, oldest first, ending with the
  /// in-progress/most-recent one. At most kRecoveryHistoryLimit entries are
  /// retained; `max_n` (0 = all retained) trims to the most recent n.
  std::vector<obs::RecoveryTimeline> RecentRecoveryTimelines(
      size_t max_n = 0) const;

  /// Outage report of the most recent crash recovery: the recovery-side
  /// join of the flight recorder's frozen pre-crash bundle with the replay
  /// — per-session fate (replayed / orphaned / never-logged), per-session
  /// time-to-servable, and MTTR percentiles. `valid` is false until a crash
  /// bundle has been joined; `complete` once every fate is resolved.
  obs::OutageReport LastOutageReport() const;

  /// Crashes this Msp has suffered (Crash() calls; graceful Shutdown does
  /// not count). Monotonic across restarts — generation stamps the flight
  /// recorder bundles.
  uint64_t crash_generation() const { return crash_generation_.load(); }

  /// Per-session telemetry snapshots (obs/session_stats.h), id-sorted.
  /// Relaxed-atomic reads; safe from any thread while workers run.
  std::vector<obs::SessionStatsSnapshot> SessionTelemetry() const;

  /// Register this server's per-session aggregate probes with a scraper
  /// ("<id>.sessions", "<id>.queued_requests", "<id>.telemetry.requests",
  /// "<id>.telemetry.flush_stalls"). The probes capture `this`: the Msp
  /// must outlive the scraper's sampling (stop the scraper first).
  void RegisterTelemetryProbes(obs::MetricsScraper* scraper) const;

  /// One-call structured snapshot of the server ("/statusz"): identity,
  /// lifecycle state, epoch, session/queue occupancy, log extents,
  /// per-session telemetry, and latency-histogram quantiles. JSON; safe to
  /// call from any thread.
  std::string DumpStatusz() const;

 private:
  friend class ExecContext;
  friend class RecoveryCoordinator;
  friend class MspTestPeer;  // tests/msp_test_peer.h

  enum class State { kStopped, kRecovering, kRunning, kCrashed };

  /// Sends of one outgoing call (and rounds of one distributed-flush leg)
  /// before it gives up.
  static constexpr uint32_t kMaxCallSends = 200;

  /// Crash/stop body; caller holds lifecycle_mu_. `is_crash` distinguishes
  /// a simulated fault (bumps the crash generation and freezes a flight
  /// recorder bundle) from a graceful Shutdown teardown.
  void CrashLocked(bool is_crash) REQUIRES(lifecycle_mu_);

  /// Snapshot provider registered with the environment's flight recorder:
  /// statusz + in-flight session set + log tail extent, captured at freeze
  /// time (i.e. from inside CrashLocked or an invariant violation hook).
  obs::FlightSnapshot BuildFlightSnapshot() const;
  /// "Uptime since last recovery": model ms since the last Start()
  /// finished; 0 while down or before the first start.
  double UptimeMs() const;

  // ---- threads ----
  void DispatchLoop();
  void CheckpointDaemonLoop();
  void SessionWorker(std::shared_ptr<Session> s);

  // ---- message handling ----
  void HandleRequestMsg(Message m);
  void HandleReplyMsg(Message m);
  void HandleFlushRequest(Message m);
  void HandleFlushReply(Message m);
  void HandleRecoveryAnnounce(Message m);
  void SendFlushReply(const std::string& to, uint64_t flush_id, bool ok,
                      uint32_t rec_epoch, uint64_t rec_sn);

  // ---- request processing ----
  Status ProcessRequestLogBased(Session* s, const Message& m,
                                const obs::SpanContext& span);
  /// The §5 baselines: load the session from store_ (if any), execute,
  /// save, reply. No log, no DVs.
  Status ProcessRequestBaseline(Session* s, const Message& m,
                                const obs::SpanContext& span);
  /// Run request `m`'s service method in normal mode.
  Status ExecuteRequest(Session* s, const Message& m,
                        const obs::SpanContext& span, Bytes* result);
  Status InvokeMethod(const std::string& method, ExecContext* ctx,
                      const Bytes& arg, Bytes* result);
  Status SendReply(Session* s, ReplyCode code, const Bytes& payload,
                   uint64_t seqno, const obs::SpanContext& span = {});
  /// Before `msg` leaves for `dest` (Fig. 7): inside the service domain,
  /// piggyback the session's DV (`*dv_wire` is set to its cached encoding
  /// in per-session mode); across a domain boundary, run the pessimistic
  /// distributed flush and check WAL-before-send. `what` names the message
  /// for the auditor. No-op without a log.
  Status GuardSend(Session* s, const std::string& dest, const char* what,
                   Message* msg, const Bytes** dv_wire,
                   const obs::SpanContext& span);

  /// Mark `s` as owned by a worker unless one (or a replay) already owns
  /// it; true when the caller must SubmitWorker(s).
  bool ArmWorkerLocked(Session* s) REQUIRES(sessions_mu_);
  void SubmitWorker(std::shared_ptr<Session> s);

  // ---- normal-execution primitives (called via ExecContext) ----
  uint64_t AppendSessionRecord(Session* s, LogRecord rec);
  /// Replay twin of AppendSessionRecord: consume the logged `rec` — the
  /// session's state number and DV advance exactly as they did when it was
  /// appended.
  void ReplaySessionRecord(Session* s, const LogRecord& rec);
  /// Value-log a read of `var` (§3.3) and return its value in `out` (when
  /// set); the reader's DV absorbs the variable's. Caller holds the
  /// variable's lock.
  void LogSharedRead(Session* s, const SharedVariable& var, Bytes* out);
  /// Value-log a write of `value` to `var` on the variable's backward chain,
  /// apply it, and checkpoint the variable when its write threshold is
  /// reached. Caller holds the variable's unique lock.
  Status LogSharedWrite(Session* s, SharedVariable* var, Bytes value);
  Status SharedReadImpl(Session* s, const std::string& name, Bytes* out);
  Status SharedWriteImpl(Session* s, const std::string& name, ByteView value);
  Status SharedUpdateImpl(Session* s, const std::string& name,
                          const std::function<Bytes(const Bytes&)>& fn,
                          Bytes* out);
  Status OutgoingCallImpl(Session* s, const std::string& target,
                          const std::string& method, ByteView arg,
                          Bytes* reply, const obs::SpanContext& parent_span = {});
  std::shared_ptr<SharedVariable> GetOrCreateSharedVar(const std::string& name);
  /// The registered variable `name`, or null.
  std::shared_ptr<SharedVariable> FindSharedVar(const std::string& name) const;

  /// Send `req` to `dest` and await the matching reply, resending on loss
  /// and backing off on Busy. If `check_orphan_reply` is set, replies whose
  /// attached DV is an orphan are discarded (Fig. 7) and the wait continues.
  /// `max_sends` of 0 uses the configured retry budget. `dv_wire`, when
  /// set, is the pre-encoded DV spliced into the wire image in place of
  /// `req.dv` (zero-copy piggybacking; `req.has_dv` must be true).
  Status CallRoundTrip(const std::string& dest, const Message& req,
                       bool check_orphan_reply, Message* out,
                       uint32_t max_sends = 0, const Bytes* dv_wire = nullptr);

  // ---- distributed log flush (§3.1) ----
  /// Timing/tracing wrapper around DistributedFlushImpl. `span` is the
  /// request span stalled on this flush; the flush records a child span.
  /// When `stats_session` is set, the stall is attributed to that session's
  /// telemetry (forced flush + stall time).
  Status DistributedFlush(const DependencyVector& dv,
                          const obs::SpanContext& span = {},
                          Session* stats_session = nullptr);
  /// Submits the peer legs to the flush aggregator (skip/join/queue/launch
  /// decided per leg), flushes the local leg, then awaits every leg with a
  /// single deadline-driven wait on one condition variable.
  Status DistributedFlushImpl(const DependencyVector& dv,
                              const obs::SpanContext& span);

  // ---- orphan machinery ----
  bool SessionIsOrphan(const Session* s) const;
  /// Ablation (per_session_dv = false): the union of every live session's
  /// published DV — the single process-wide vector of the §3.2 strawman.
  /// `self` (owned by the caller) publishes its current DV first. Other
  /// sessions' `dv` fields are owner-thread only and are never read here.
  DependencyVector MspWideDv(const Session* self) const;
  /// Strawman only: copy `s->dv` (caller owns `s`) to `s->published_dv`.
  void PublishDv(const Session* s) const;
  /// Merge a dependency into `s->dv` (caller owns `s`) and publish it.
  void MergeDv(Session* s, const DependencyVector& dv) {
    s->dv.Merge(dv);
    PublishDv(s);
  }
  bool DvIsOrphan(const DependencyVector& dv) const;
  /// Roll the orphan `var` back along its backward write chain to the most
  /// recent non-orphan value (§4.2), counting the orphan. Caller holds the
  /// variable's unique lock.
  Status UndoSharedVariable(SharedVariable* var);
  /// Write the EOS record and truncate the position stream (§4.1).
  void OrphanCut(Session* s, uint64_t orphan_lsn);

  // ---- checkpoints (§3.2–§3.4) ----
  Status TakeSessionCheckpoint(Session* s, const obs::SpanContext& span = {});
  Status TakeSharedVarCheckpoint(SharedVariable* var);
  /// TakeSharedVarCheckpoint, rolling the variable back instead when its
  /// value turns out to be an orphan during the flush (§4.2).
  Status CheckpointOrUndo(SharedVariable* var);
  /// `force_units` also force-checkpoints stale/uncheckpointed sessions and
  /// shared variables (§3.4); recovery passes false because peer flushes are
  /// not yet serviceable at that point.
  Status TakeMspCheckpoint(bool force_units);
  /// ForceCheckpoint body for one session, claimed like a worker would.
  Status ForceSessionCheckpointImpl(const std::string& session_id);

  // ---- recovery (§4) ----
  /// Replay loop handling repeated orphan-ness under multiple crashes.
  /// `from_crash` marks replays launched by crash recovery (vs lazy orphan
  /// recovery) in the recovery timeline.
  Status RecoverSessionReplay(Session* s, bool from_crash = false);
  /// One replay pass from the latest checkpoint along the position stream.
  /// `replayed_out`, when set, accumulates the number of requests replayed.
  /// `prov`, when set, is overwritten with this pass's provenance (the
  /// checkpoint initialized from and every request record consumed).
  Status ReplayOnce(Session* s, uint64_t* replayed_out = nullptr,
                    obs::RecoveryTimeline::SessionProvenance* prov = nullptr);
  /// ReplayOnce's pass over one cursor, which reads the session checkpoint
  /// and every logged record (from the recovery's log image while it lives).
  Status ReplayAlong(Session* s, ReplayCursor* cursor, uint64_t* replayed_out,
                     obs::RecoveryTimeline::SessionProvenance* prov);
  /// Claim-and-replay one session (no-op if it already replayed or another
  /// replay owns it). `on_demand` marks admissions triggered by a live
  /// request (vs the background drain) in the recovery timeline.
  void SessionRecoveryTask(std::shared_ptr<Session> s, bool on_demand = false);

  // ---- helpers ----
  /// Charge model CPU time; serialized on the MSP's core when
  /// config.single_core_cpu is set.
  void ChargeCpu(double model_ms);
  bool IntraDomain(const std::string& other) const;
  int64_t RealWaitMs(double model_ms) const;
  std::shared_ptr<Session> GetSession(const std::string& id) const;
  /// A fresh session with its position-stream file "pos/<msp>/<id>".
  std::shared_ptr<Session> NewSession(const std::string& id,
                                      const std::string& client) const;

  SimEnvironment* env_;
  SimNetwork* network_;
  SimDisk* disk_;
  DomainDirectory* directory_;
  MspConfig config_;

  /// Serializes Start / Crash / Shutdown against each other (crash
  /// injection may fire while a previous restart is still in progress).
  audit::Mutex lifecycle_mu_{"msp.lifecycle"};
  std::atomic<State> state_{State::kStopped};
  std::atomic<uint32_t> epoch_{0};

  // Lifecycle substrate: (re)built in Start() before any worker thread
  // exists and torn down in Crash()/Shutdown() after quiesce, with the
  // cycles serialized by lifecycle_mu_ — so these handles are stable
  // whenever another thread can observe them.
  std::unique_ptr<LogFile> log_;             // audit:allow(guarded-by)
  LogAnchor anchor_;                         // audit:allow(guarded-by)
  std::unique_ptr<ThreadPool> pool_;         // audit:allow(guarded-by)
  std::unique_ptr<ThreadPool> control_pool_; // audit:allow(guarded-by)
  std::shared_ptr<Mailbox> mailbox_;         // audit:allow(guarded-by)
  std::thread dispatch_thread_;
  std::thread checkpoint_thread_;
  audit::Mutex cp_mu_{"msp.cp"};
  audit::CondVar cp_cv_;
  bool cp_stop_ GUARDED_BY(cp_mu_) = false;

  /// Guards the session *table* and the per-session scheduling flags
  /// (Session::pending_requests / worker_active / recovering /
  /// needs_orphan_check / needs_checkpoint / ended) — a cross-class guard
  /// the static analysis cannot express; the auditor's lock-order tracking
  /// still covers it at runtime.
  mutable audit::Mutex sessions_mu_{"msp.sessions"};
  std::map<std::string, std::shared_ptr<Session>> sessions_
      GUARDED_BY(sessions_mu_);
  /// Guards Session::published_dv (strawman DV ablation). Taken after
  /// sessions_mu_ when both are held.
  mutable audit::Mutex wide_dv_mu_{"msp.wide_dv"};

  mutable audit::Mutex vars_mu_{"msp.vars"};
  std::map<std::string, std::shared_ptr<SharedVariable>> shared_vars_
      GUARDED_BY(vars_mu_);

  /// Written only before Start() (RegisterMethod), read-only afterwards:
  /// no lock by design.
  std::map<std::string, ServiceMethod> methods_;  // audit:allow(guarded-by)

  mutable audit::Mutex table_mu_{"msp.table"};
  RecoveredStateTable recovered_table_ GUARDED_BY(table_mu_);

  struct PendingCall {
    audit::Mutex mu{"msp.pending"};
    audit::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool failed GUARDED_BY(mu) = false;
    Message reply GUARDED_BY(mu);
  };
  audit::Mutex calls_mu_{"msp.calls"};
  std::map<std::pair<std::string, uint64_t>, std::shared_ptr<PendingCall>>
      pending_calls_ GUARDED_BY(calls_mu_);

  /// Sender-side group commit for distributed-flush legs: per-peer durable
  /// watermark (skip), in-flight flight state (join/queue) and dispatch.
  /// Created once (internally locked); Reset() on Start, FailAll() on
  /// crash.
  std::unique_ptr<FlushAggregator> flush_agg_;  // audit:allow(guarded-by)
  /// Receiver-side group commit: concurrent kFlushRequests ride one
  /// LogFile::FlushUpTo. Rebuilt on every Start (binds the fresh log),
  /// before the dispatch thread that uses it exists.
  std::unique_ptr<InboundFlushCoalescer>
      inbound_flush_;  // audit:allow(guarded-by)

  /// Serializes MSP checkpoints.
  audit::Mutex msp_cp_mu_{"msp.msp_cp"};
  /// The single CPU core (config.single_core_cpu).
  audit::Mutex cpu_mu_{"msp.cpu"};

  /// Log extent as of the last MSP checkpoint. Atomic: written under
  /// msp_cp_mu_ (and in Start before threads exist) but read by the
  /// checkpoint daemon's staleness test without any lock.
  std::atomic<uint64_t> last_msp_cp_log_end_{0};

  /// Timeline of the most recent crash recovery; session-replay entries
  /// (including lazy orphan recoveries) are appended as they finish.
  mutable audit::Mutex timeline_mu_{"msp.timeline"};
  obs::RecoveryTimeline last_recovery_timeline_ GUARDED_BY(timeline_mu_);
  /// Completed predecessors of last_recovery_timeline_, oldest first,
  /// trimmed to kRecoveryHistoryLimit.
  static constexpr size_t kRecoveryHistoryLimit = 8;
  std::deque<obs::RecoveryTimeline> recovery_history_ GUARDED_BY(timeline_mu_);
  /// Concurrent RecoverSessionReplay calls right now / high-water mark.
  std::atomic<uint32_t> active_replays_{0};

  /// The phased driver of the most recent crash recovery; rebuilt by each
  /// log-based Start() under lifecycle_mu_, and quiesced before replacement
  /// (pool tasks referencing it are joined by Crash/Shutdown).
  std::unique_ptr<RecoveryCoordinator>
      recovery_coordinator_;  // audit:allow(guarded-by)

  /// Queue depth across every session's pending_requests, maintained with
  /// relaxed increments/decrements at enqueue/dequeue so the telemetry
  /// scraper's "queued_requests" probe never takes sessions_mu_.
  std::atomic<uint64_t> queued_requests_{0};

  /// Scraper-safe handle to pool_: the probe thread dereferences the pool
  /// while Crash() may be resetting it, so the probe reads this pointer
  /// under its own tiny mutex and Crash nulls it before pool_.reset().
  mutable audit::Mutex probe_mu_{"msp.probe"};
  ThreadPool* probe_pool_ GUARDED_BY(probe_mu_) = nullptr;

  /// Crashes suffered (not graceful shutdowns); stamps flight bundles.
  std::atomic<uint64_t> crash_generation_{0};
  /// Model time the most recent Start() finished (any mode) — the anchor of
  /// "uptime since last recovery" in statusz and the scraper probe.
  std::atomic<double> last_start_end_ms_{0.0};
  /// The outage observatory's join state: the report for the most recent
  /// joined crash bundle, and the generation already joined (so a graceful
  /// restart does not re-join a stale bundle).
  obs::OutageReport last_outage_report_ GUARDED_BY(timeline_mu_);
  uint64_t outage_joined_generation_ GUARDED_BY(timeline_mu_) = 0;

  // Observability handles (owned by the environment's registry).
  obs::Histogram* hist_queue_wait_ms_;  ///< "msp.queue_wait_ms"
  obs::Histogram* hist_execute_ms_;     ///< "msp.execute_ms"
  obs::Histogram* hist_flush_wait_ms_;  ///< "msp.flush_wait_ms" (dist flush)
  obs::Histogram* hist_request_ms_;     ///< "msp.request_ms" (dequeue→done)
  obs::Histogram* hist_replay_ms_;      ///< "msp.replay_ms" per session replay
  obs::Counter* ctr_requests_;          ///< "msp.requests"
  obs::Gauge* gauge_crash_generation_;  ///< "<id>.crash_generation"

  /// A baseline's session store (Psession, StateServer); null for NoLog and
  /// for the log-based MSP. Built in Start() before workers exist.
  std::unique_ptr<SessionStore> store_;  // audit:allow(guarded-by)
};

}  // namespace msplog
