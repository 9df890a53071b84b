// The MSP core: lifecycle, dispatch, the request path (log-based §3 and the
// §5 baselines), value-logged shared variables and outgoing calls. See
// msp.h for the file map.
#include "audit/mutex.h"
#include "msp/msp.h"

#include <algorithm>
#include <thread>

#include "audit/invariants.h"
#include "baseline/state_server.h"
#include "msp/exec_context.h"
#include "msp/recovery_coordinator.h"

namespace msplog {

Msp::Msp(SimEnvironment* env, SimNetwork* network, SimDisk* disk,
         DomainDirectory* directory, MspConfig config)
    : env_(env),
      network_(network),
      disk_(disk),
      directory_(directory),
      config_(std::move(config)),
      anchor_(disk, config_.id + ".anchor") {
  obs::MetricsRegistry& m = env_->metrics();
  hist_queue_wait_ms_ = m.GetHistogram("msp.queue_wait_ms");
  hist_execute_ms_ = m.GetHistogram("msp.execute_ms");
  hist_flush_wait_ms_ = m.GetHistogram("msp.flush_wait_ms");
  hist_request_ms_ = m.GetHistogram("msp.request_ms");
  hist_replay_ms_ = m.GetHistogram("msp.replay_ms");
  ctr_requests_ = m.GetCounter("msp.requests");
  gauge_crash_generation_ = m.GetGauge(config_.id + ".crash_generation");

  // Black-box registration: at any freeze (our crash, or any invariant
  // violation) the environment's flight recorder captures this server's
  // statusz, in-flight session set, and log tail extent.
  env_->flight_recorder().SetSnapshotProvider(
      config_.id, [this] { return BuildFlightSnapshot(); });

  FlushAggregator::Options fopt;
  fopt.self = config_.id;
  fopt.coalesce = config_.coalesce_distributed_flushes;
  fopt.max_rounds = kMaxCallSends;
  flush_agg_ = std::make_unique<FlushAggregator>(
      env_, fopt, [this](const MspId& peer, const Bytes& wire) {
        network_->Send(config_.id, peer, wire);
      });
}

Msp::~Msp() {
  if (state_.load() == State::kRunning) Shutdown();
  env_->flight_recorder().ClearSnapshotProvider(config_.id);
}

void Msp::RegisterMethod(const std::string& name, ServiceMethod fn) {
  methods_[name] = std::move(fn);
}

void Msp::RegisterSharedVariable(const std::string& name, Bytes initial) {
  audit::LockGuard lk(vars_mu_);
  shared_vars_[name] = std::make_shared<SharedVariable>(name, std::move(initial));
}

void Msp::ChargeCpu(double model_ms) {
  if (model_ms <= 0) return;
  if (config_.single_core_cpu) {
    audit::LockGuard lk(cpu_mu_);
    env_->SleepModelMs(model_ms);
  } else {
    env_->SleepModelMs(model_ms);
  }
}

bool Msp::IntraDomain(const std::string& other) const {
  return directory_->SameDomain(config_.id, other);
}

int64_t Msp::RealWaitMs(double model_ms) const {
  if (env_->time_scale() <= 0.0) return SimEnvironment::kFastWaitFloorMs;
  return std::max<int64_t>(
      1, static_cast<int64_t>(model_ms * env_->time_scale()));
}

std::shared_ptr<Session> Msp::NewSession(const std::string& id,
                                         const std::string& client) const {
  return std::make_shared<Session>(id, client, disk_,
                                   "pos/" + config_.id + "/" + id);
}

std::shared_ptr<Session> Msp::GetSession(const std::string& id) const {
  audit::LockGuard lk(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Status Msp::Start() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  State st = state_.load();
  if (st == State::kRunning || st == State::kRecovering) {
    return Status::InvalidArgument("MSP already running");
  }

  pool_ = std::make_unique<ThreadPool>(config_.thread_pool_size);
  control_pool_ = std::make_unique<ThreadPool>(2);
  {
    audit::LockGuard lk(probe_mu_);
    probe_pool_ = pool_.get();
  }
  {
    audit::LockGuard lk(sessions_mu_);
    sessions_.clear();
    queued_requests_.store(0, std::memory_order_relaxed);
  }
  {
    audit::LockGuard lk(table_mu_);
    recovered_table_.Clear();
  }
  flush_agg_->Reset();
  {
    audit::LockGuard lk(cp_mu_);
    cp_stop_ = false;
  }
  last_msp_cp_log_end_.store(0);

  // The one place the recovery mode is read: build the log side of the
  // paper's system, or the session store of a §5 baseline.
  switch (config_.mode) {
    case RecoveryMode::kLogBased: {
      LogFileOptions lopt;
      lopt.batch_flush = config_.batch_flush;
      lopt.batch_timeout_ms = config_.batch_timeout_ms;
      if (config_.cpu_per_flush_ms > 0) {
        lopt.on_physical_write = [this] {
          ChargeCpu(config_.cpu_per_flush_ms);
        };
      }
      log_ = std::make_unique<LogFile>(env_, disk_, config_.id + ".log", lopt);
      inbound_flush_ = std::make_unique<InboundFlushCoalescer>(
          env_,
          // audit:allow(blocking-under-lock): lambda runs on control-pool
          // threads when requests drain, not under the lifecycle lock here.
          [this](uint64_t flush_sn) { return log_->FlushUpTo(flush_sn); },
          [this](const InboundFlushCoalescer::Request& r) {
            SendFlushReply(r.sender, r.flush_id, /*ok=*/true, 0, 0);
          });
      // Crash recovery runs on EVERY start — a restarted process cannot tell
      // whether its previous incarnation crashed before flushing anything,
      // and reusing an epoch after such a crash would let lost state numbers
      // be reissued. A genuinely fresh boot just bumps to epoch 1 with an
      // empty scan, which is harmless. Only the bounded analysis pass and
      // the open preparation run here (recovery_coordinator.h); no session
      // is replayed yet: the drain starts once the mailbox is live, raced by
      // on-demand admissions (HandleRequestMsg).
      state_.store(State::kRecovering);
      recovery_coordinator_ = std::make_unique<RecoveryCoordinator>(this);
      MSPLOG_RETURN_IF_ERROR(recovery_coordinator_->RunAnalysis());
      MSPLOG_RETURN_IF_ERROR(recovery_coordinator_->PrepareOpen());
      break;
    }
    case RecoveryMode::kPsession: {
      auto db = std::make_unique<KvDbSessionStore>(env_, disk_,
                                                   config_.id + ".db");
      MSPLOG_RETURN_IF_ERROR(db->Recover());
      store_ = std::move(db);
      break;
    }
    case RecoveryMode::kStateServer:
      store_ = std::make_unique<StateServerSessionStore>(
          config_.id, config_.state_server,
          [this](const std::string& dest, const Message& req, Message* rep) {
            return CallRoundTrip(dest, req, /*check_orphan_reply=*/false, rep);
          });
      break;
    case RecoveryMode::kNoLog:
      break;
  }

  mailbox_ = network_->Register(config_.id);
  state_.store(State::kRunning);
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  if (log_) {
    if (config_.checkpoint_daemon) {
      checkpoint_thread_ = std::thread([this] { CheckpointDaemonLoop(); });
    }
    // Instant restart (§4.3 + on-demand REDO): the server is open as of the
    // state transition above. Surviving sessions replay in background
    // priority order; a request for a not-yet-replayed session jumps the
    // queue through the HandleRequestMsg admission gate.
    // sequential_recovery (the ablation) drains one session at a time
    // inside the coordinator.
    recovery_coordinator_->BeginBackgroundDrain();
  }

  const double now = env_->NowModelMs();
  last_start_end_ms_.store(now, std::memory_order_relaxed);
  // Mark the restart on the scraper's shared time axis; together with the
  // crash mark this brackets the gap every per-MSP series shows.
  env_->scraper().AnnotateEpoch(
      now, config_.id + " up epoch=" + std::to_string(epoch_.load()) +
               " gen=" + std::to_string(crash_generation_.load()));
  return Status::OK();
}

void Msp::Crash() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  CrashLocked(/*is_crash=*/true);
}

void Msp::CrashLocked(bool is_crash) {
  State prev = state_.exchange(State::kCrashed);
  if (prev == State::kCrashed || prev == State::kStopped) return;

  if (is_crash) {
    // Black box first, while the log extents and session table still
    // describe the moment of death. The bundle is generation-stamped so the
    // recovery-side join can tell this fault from earlier ones.
    const uint64_t gen = crash_generation_.fetch_add(1) + 1;
    gauge_crash_generation_->Set(static_cast<int64_t>(gen));
    env_->tracer().Record(obs::TraceEventType::kCrash, env_->NowModelMs(),
                          config_.id, "", 0,
                          "epoch=" + std::to_string(epoch_.load()) +
                              " gen=" + std::to_string(gen));
    env_->flight_recorder().FreezeOnCrash(config_.id, gen);
    env_->scraper().AnnotateEpoch(
        env_->NowModelMs(),
        config_.id + " crash gen=" + std::to_string(gen));
  }

  network_->Unregister(config_.id);
  if (log_) log_->Crash();
  {
    audit::LockGuard lk(calls_mu_);
    for (auto& [key, pc] : pending_calls_) {
      audit::LockGuard plk(pc->mu);
      pc->failed = true;
      pc->cv.notify_all();
    }
  }
  // Fail every in-flight and queued distributed-flush leg: waiters wake,
  // see crashed, and no aggregator state leaks into the next incarnation.
  flush_agg_->FailAll();
  {
    audit::LockGuard lk(cp_mu_);
    cp_stop_ = true;
  }
  cp_cv_.notify_all();

  if (pool_) pool_->Abort();
  if (control_pool_) control_pool_->Abort();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  // Everything volatile dies with the process. The SimDisk content — the
  // durable log prefix, position-stream files, the anchor, kvdb WAL —
  // survives for the next Start(), which scans it into a fresh log image.
  log_.reset();
  if (recovery_coordinator_) recovery_coordinator_->DropImage();
  {
    audit::LockGuard lk(sessions_mu_);
    sessions_.clear();
    queued_requests_.store(0, std::memory_order_relaxed);
  }
  {
    audit::LockGuard lk(vars_mu_);
    for (auto& [name, v] : shared_vars_) {
      audit::SharedUniqueLock vlk(v->rw);
      v->RestoreLocked(v->initial_value, DependencyVector(), 0);
      v->last_checkpoint_lsn = 0;
      v->writes_since_cp = 0;
      v->msp_cps_since_cp = 0;
    }
  }
  {
    audit::LockGuard lk(calls_mu_);
    pending_calls_.clear();
  }
  inbound_flush_.reset();
  store_.reset();
  {
    // Detach the scraper probe before the pool dies: the probe thread only
    // dereferences probe_pool_ under probe_mu_, so after this block no
    // probe can reach the object pool_.reset() is about to destroy.
    audit::LockGuard lk(probe_mu_);
    probe_pool_ = nullptr;
  }
  pool_.reset();
  control_pool_.reset();
}

void Msp::Shutdown() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  if (state_.load() != State::kRunning) return;
  // Make everything durable, then tear down like a crash: a subsequent
  // Start() recovers the complete state from the log.
  // audit:allow(blocking-under-lock): lifecycle transitions serialize here.
  if (log_) log_->FlushAll();
  CrashLocked(/*is_crash=*/false);
  state_.store(State::kStopped);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Msp::DispatchLoop() {
  Packet p;
  while (mailbox_->Pop(&p)) {
    Message m;
    if (!Message::Decode(p.wire, &m).ok()) continue;  // garbage: drop
    switch (m.type) {
      case MessageType::kRequest:
        HandleRequestMsg(std::move(m));
        break;
      case MessageType::kReply:
        HandleReplyMsg(std::move(m));
        break;
      case MessageType::kFlushRequest:
        // Move-only task type: the message moves into the closure, no copy.
        control_pool_->Submit(
            [this, fm = std::move(m)] { HandleFlushRequest(fm); });
        break;
      case MessageType::kFlushReply:
        HandleFlushReply(std::move(m));
        break;
      case MessageType::kRecoveryAnnounce:
        HandleRecoveryAnnounce(std::move(m));
        break;
      default:
        break;
    }
  }
}

bool Msp::ArmWorkerLocked(Session* s) {
  if (s->worker_active || s->recovering) return false;
  s->worker_active = true;
  return true;
}

void Msp::SubmitWorker(std::shared_ptr<Session> s) {
  pool_->Submit([this, s = std::move(s)] { SessionWorker(s); });
}

void Msp::HandleRequestMsg(Message m) {
  if (state_.load() != State::kRunning) {
    network_->Send(config_.id, m.sender,
                   Message::Reply(config_.id, m.session_id, m.seqno,
                                  ReplyCode::kBusy)
                       .Encode());
    return;
  }
  std::shared_ptr<Session> s;
  bool arm = false;
  bool on_demand = false;
  bool ended = false;
  {
    audit::LockGuard lk(sessions_mu_);
    auto it = sessions_.find(m.session_id);
    if (it == sessions_.end()) {
      s = NewSession(m.session_id, m.sender);
      sessions_[m.session_id] = s;
    } else {
      s = it->second;
    }
    if (s->ended) {
      ended = true;  // reply outside the table lock
    } else {
      double now_ms = env_->NowModelMs();
      // Allocate this request's server-side span, parented on the span the
      // sender stamped on the wire (client root or caller's request span).
      const obs::SpanContext span =
          obs::SpanContext{m.trace_id, m.parent_span_id, 0}.Child();
      env_->tracer().Record(obs::TraceEventType::kEnqueue, now_ms, config_.id,
                            m.session_id, m.seqno, m.method, span);
      s->pending_requests.push_back({std::move(m), now_ms, span});
      queued_requests_.fetch_add(1, std::memory_order_relaxed);
      if (s->recovering) {
        // Admission gate (instant restart): the request is queued and a
        // replay of JUST this session is triggered on demand — it jumps the
        // background drain's priority order. The replay epilogue arms the
        // worker, so the queued request serializes after the session's
        // replayed history. If a replay already owns the session
        // (replay_claimed), queueing behind it is all that is needed.
        on_demand = !s->replay_claimed;
      } else {
        arm = ArmWorkerLocked(s.get());
      }
    }
  }
  if (ended) {
    // A request to an ended session gets a definitive error rather than
    // silence — the client should not retry forever.
    network_->Send(config_.id, m.sender,
                   Message::Reply(config_.id, m.session_id, m.seqno,
                                  ReplyCode::kAppError, "session ended")
                       .Encode());
    return;
  }
  if (on_demand) {
    pool_->Submit([this, s] { SessionRecoveryTask(s, /*on_demand=*/true); });
    return;
  }
  if (arm) SubmitWorker(std::move(s));
}

void Msp::SessionWorker(std::shared_ptr<Session> s) {
  while (true) {
    Message m;
    double enqueue_ms = 0;
    obs::SpanContext span;
    bool have_msg = false;
    bool check_orphan = false;
    bool take_cp = false;
    {
      audit::LockGuard lk(sessions_mu_);
      if (state_.load() != State::kRunning) {
        s->worker_active = false;
        return;
      }
      if (s->needs_orphan_check) {
        s->needs_orphan_check = false;
        check_orphan = true;
      } else if (s->needs_checkpoint) {
        s->needs_checkpoint = false;
        take_cp = true;
      } else if (!s->pending_requests.empty()) {
        m = std::move(s->pending_requests.front().msg);
        enqueue_ms = s->pending_requests.front().enqueue_model_ms;
        span = s->pending_requests.front().span;
        s->pending_requests.pop_front();
        queued_requests_.fetch_sub(1, std::memory_order_relaxed);
        have_msg = true;
      } else {
        s->worker_active = false;
        return;
      }
    }
    if (check_orphan) {
      if (SessionIsOrphan(s.get())) {
        (void)RecoverSessionReplay(s.get());
      }
      continue;
    }
    if (take_cp) {
      // Only the MSP checkpoint sets needs_checkpoint, so a log exists.
      if (!s->ended && s->first_lsn.load() != 0) {
        Status st = TakeSessionCheckpoint(s.get());
        if (st.IsOrphan()) (void)RecoverSessionReplay(s.get());
      }
      continue;
    }
    if (have_msg) {
      double t_start = env_->NowModelMs();
      hist_queue_wait_ms_->Record(t_start - enqueue_ms);
      env_->tracer().Record(obs::TraceEventType::kDequeue, t_start, config_.id,
                            s->id, m.seqno, m.method, span);
      // kCrashed/kTimedOut: the client resends; nothing more to do here.
      (void)(log_ ? ProcessRequestLogBased(s.get(), m, span)
                  : ProcessRequestBaseline(s.get(), m, span));
      hist_request_ms_->Record(env_->NowModelMs() - t_start);
      ctr_requests_->Add(1);
    }
  }
}

// ---------------------------------------------------------------------------
// Request processing — log-based (§3)
// ---------------------------------------------------------------------------

Status Msp::ProcessRequestLogBased(Session* s, const Message& m,
                                   const obs::SpanContext& span) {
  // Interception point (§4.1): lazy orphan check on request receive.
  if (SessionIsOrphan(s)) {
    MSPLOG_RETURN_IF_ERROR(RecoverSessionReplay(s));
  }

  // Auditor: since the last request boundary the session's DV may only have
  // grown (any recovery in between re-synced the shadow).
  audit::CheckDvMonotonic("session " + s->id, s->audit_shadow_dv, s->dv);

  // Duplicate / out-of-order detection (§3.1).
  if (m.seqno < s->next_expected_seqno) {
    if (s->buffered_reply.valid && s->buffered_reply.seqno == m.seqno) {
      Status st = SendReply(s, s->buffered_reply.code,
                            s->buffered_reply.payload, m.seqno, span);
      if (st.IsOrphan()) return RecoverSessionReplay(s);
      return st;
    }
    return Status::OK();  // stale duplicate
  }
  if (m.seqno > s->next_expected_seqno) return Status::OK();  // out of order

  // Fig. 7, receive side: an orphan message is discarded outright; the
  // sender session will be rolled back and will resend. We extend the
  // paper's silent discard with an ORPHAN NOTICE carrying the recovered
  // state number that condemned the message — without it, a sender that
  // missed the recovery broadcast retries forever.
  if (m.has_dv) {
    std::optional<RecoveredStateTable::OrphanWitness> witness;
    {
      audit::LockGuard lk(table_mu_);
      witness = recovered_table_.FindOrphanEntry(m.dv);
    }
    if (witness) {
      env_->stats().orphans_detected.fetch_add(1);
      env_->tracer().Record(obs::TraceEventType::kOrphanDetected,
                            env_->NowModelMs(), config_.id, s->id, m.seqno,
                            "witness=" + witness->msp);
      // The payload names the peer whose recovery condemned the message.
      Message r = Message::Reply(config_.id, s->id, m.seqno,
                                 ReplyCode::kOrphanNotice, witness->msp);
      r.rec_epoch = witness->epoch;
      r.rec_sn = witness->recovered_sn;
      network_->Send(config_.id, m.sender, r.Encode());
      return Status::OK();
    }
  }

  if (m.method == "__end_session") {
    // Cascade: end the outgoing sessions this session started (§2.1 — a
    // session is started AND ended by a client request). Best effort; an
    // unreachable target's session is cleaned up by its own end-of-life
    // handling when requests for it error out.
    for (auto& [target, o] : s->outgoing) {
      Message rep;
      (void)CallRoundTrip(target,
                          Message::Request(config_.id, o.session_id,
                                           o.next_seqno, "__end_session"),
                          /*check_orphan_reply=*/false, &rep,
                          /*max_sends=*/3);
    }
    LogRecord end;
    end.type = LogRecordType::kSessionEnd;
    end.session_id = s->id;
    uint64_t lsn = log_->Append(end);
    // The end record must survive a crash or the session gets resurrected.
    MSPLOG_RETURN_IF_ERROR(log_->FlushUpTo(lsn));
    s->positions.Discard();
    {
      audit::LockGuard lk(sessions_mu_);
      s->ended = true;
    }
    return SendReply(s, ReplyCode::kOk, "", m.seqno, span);
  }

  // First activity of a fresh session: mark its start in the log.
  if (s->first_lsn.load() == 0) {
    LogRecord start;
    start.type = LogRecordType::kSessionStart;
    start.session_id = s->id;
    start.target = s->client;
    s->first_lsn.store(log_->Append(start));
  }

  // Log the nondeterministic event: the request receive.
  {
    LogRecord rec;
    rec.type = LogRecordType::kRequestReceive;
    rec.seqno = m.seqno;
    rec.target = m.method;
    rec.payload = m.payload;
    if (m.has_dv) {
      rec.has_dv = true;
      rec.dv = m.dv;
    }
    AppendSessionRecord(s, std::move(rec));
    if (m.has_dv) MergeDv(s, m.dv);
  }

  Bytes result;
  Status st = ExecuteRequest(s, m, span, &result);
  if (st.IsOrphan()) return RecoverSessionReplay(s);
  if (st.IsCrashed() || st.IsTimedOut()) return st;

  ReplyCode code = st.ok() ? ReplyCode::kOk : ReplyCode::kAppError;
  Bytes payload = st.ok() ? std::move(result) : Bytes(st.ToString());

  Status rst = SendReply(s, code, payload, m.seqno, span);
  if (rst.IsOrphan()) return RecoverSessionReplay(s);
  MSPLOG_RETURN_IF_ERROR(rst);

  s->buffered_reply = {true, m.seqno, code, payload};
  s->next_expected_seqno = m.seqno + 1;
  s->audit_shadow_dv = s->dv;

  // Session checkpoint, only between requests (§3.2).
  if (config_.session_checkpoint_threshold_bytes > 0 &&
      s->bytes_logged_since_cp >= config_.session_checkpoint_threshold_bytes) {
    Status cst = TakeSessionCheckpoint(s, span);
    if (cst.IsOrphan()) return RecoverSessionReplay(s);
  }

  return Status::OK();
}

// ---------------------------------------------------------------------------
// Request processing — the §5 baselines
// ---------------------------------------------------------------------------

Status Msp::ProcessRequestBaseline(Session* s, const Message& m,
                                   const obs::SpanContext& span) {
  if (m.method == "__end_session") {
    {
      audit::LockGuard lk(sessions_mu_);
      s->ended = true;
    }
    return SendReply(s, ReplyCode::kOk, "", m.seqno, span);
  }
  bool state_found = false;
  if (store_) MSPLOG_RETURN_IF_ERROR(store_->Load(s, &state_found));
  if (m.seqno < s->next_expected_seqno) {
    if (s->buffered_reply.valid && s->buffered_reply.seqno == m.seqno) {
      return SendReply(s, s->buffered_reply.code, s->buffered_reply.payload,
                       m.seqno, span);
    }
    return Status::OK();
  }
  if (m.seqno > s->next_expected_seqno) {
    // The duplicate-detection state was lost (NoLog crash, or the state
    // server died): accept the client's sequence as the new truth. This is
    // exactly the exactly-once guarantee these baselines lack.
    if (state_found) return Status::OK();
    s->next_expected_seqno = m.seqno;
  }

  Bytes result;
  Status st = ExecuteRequest(s, m, span, &result);
  if (st.IsCrashed() || st.IsTimedOut()) return st;
  ReplyCode code = st.ok() ? ReplyCode::kOk : ReplyCode::kAppError;
  Bytes payload = st.ok() ? std::move(result) : Bytes(st.ToString());

  s->buffered_reply = {true, m.seqno, code, payload};
  s->next_expected_seqno = m.seqno + 1;
  if (store_) MSPLOG_RETURN_IF_ERROR(store_->Save(s));
  return SendReply(s, code, payload, m.seqno, span);
}

Status Msp::ExecuteRequest(Session* s, const Message& m,
                           const obs::SpanContext& span, Bytes* result) {
  ExecContext ctx(this, s, ExecContext::Mode::kNormal, m.seqno, nullptr, span);
  s->calls_in_request = 0;
  env_->tracer().Record(obs::TraceEventType::kExecStart, env_->NowModelMs(),
                        config_.id, s->id, m.seqno, m.method, span);
  double exec_t0 = env_->NowModelMs();
  Status st = InvokeMethod(m.method, &ctx, m.payload, result);
  double exec_t1 = env_->NowModelMs();
  hist_execute_ms_->Record(exec_t1 - exec_t0);
  env_->tracer().Record(obs::TraceEventType::kExecEnd, exec_t1, config_.id,
                        s->id, m.seqno, st.ok() ? "" : st.ToString(), span);
  s->stats.OnRequest();
  s->stats.OnRequestFanout(s->calls_in_request);
  s->calls_in_request = 0;
  s->stats.SetDvEntries(s->dv.entry_count());
  return st;
}

Status Msp::InvokeMethod(const std::string& method, ExecContext* ctx,
                         const Bytes& arg, Bytes* result) {
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    return Status::InvalidArgument("no such method: " + method);
  }
  return it->second(ctx, arg, result);
}

Status Msp::SendReply(Session* s, ReplyCode code, const Bytes& payload,
                      uint64_t seqno, const obs::SpanContext& span) {
  Message r = Message::Reply(config_.id, s->id, seqno, code, payload);
  // Echo the trace back: the reply's parent is this server's request span.
  r.trace_id = span.trace_id;
  r.parent_span_id = span.span_id;
  const Bytes* dv_wire = nullptr;
  MSPLOG_RETURN_IF_ERROR(
      GuardSend(s, s->client, "reply to ", &r, &dv_wire, span));
  Bytes wire;
  r.AppendTo(&wire, dv_wire);
  network_->Send(config_.id, s->client, std::move(wire));
  env_->tracer().Record(obs::TraceEventType::kReplySent, env_->NowModelMs(),
                        config_.id, s->id, seqno, "", span);
  return Status::OK();
}

Status Msp::GuardSend(Session* s, const std::string& dest, const char* what,
                      Message* msg, const Bytes** dv_wire,
                      const obs::SpanContext& span) {
  if (!log_) return Status::OK();
  if (IntraDomain(dest)) {
    // Optimistic: attach the sender session's DV (Fig. 7) — or the whole
    // process's DV in the §3.2-strawman mode. The per-session path splices
    // the session's cached wire encoding instead of copying the DV map into
    // the message (the cache stays valid until the message is encoded: only
    // this worker thread mutates s->dv).
    msg->has_dv = true;
    if (config_.per_session_dv) {
      *dv_wire = &s->CachedDvWire();
      env_->stats().dv_entries_attached.fetch_add(s->dv.entry_count());
    } else {
      msg->dv = MspWideDv(s);
      env_->stats().dv_entries_attached.fetch_add(msg->dv.entry_count());
    }
    s->stats.OnPiggybackedSend();
    return Status::OK();
  }
  // Pessimistic: a message leaving the service domain must never become an
  // orphan (§2.3), so our dependencies are flushed before it is sent.
  DependencyVector flush_dv = config_.per_session_dv ? s->dv : MspWideDv(s);
  MSPLOG_RETURN_IF_ERROR(DistributedFlush(flush_dv, span, s));
  audit::CheckWalBeforeSend(what + dest, config_.id, epoch_.load(), flush_dv,
                            log_->durable_lsn());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Logging primitives
// ---------------------------------------------------------------------------

uint64_t Msp::AppendSessionRecord(Session* s, LogRecord rec) {
  rec.session_id = s->id;
  // Batch DV piggybacking: consecutive records of this session that carry
  // an identical DV splice one shared encoding into the log arena.
  const Bytes* dv_wire = nullptr;
  if (rec.has_dv) {
    auto& cache = s->logged_dv_cache;
    if (!cache.valid || !(cache.value == rec.dv)) {
      cache.wire.clear();
      BinaryWriter w(&cache.wire);
      rec.dv.EncodeTo(&w);
      cache.value = rec.dv;
      cache.valid = true;
    }
    dv_wire = &cache.wire;
  }
  size_t framed = 0;
  uint64_t lsn = log_->Append(rec, &framed, dv_wire);
  s->positions.Add(lsn);
  s->state_number = lsn;
  audit::CheckDvSelfMonotonic("session " + s->id, config_.id, s->dv,
                              StateId{epoch_.load(), lsn});
  s->dv.Set(config_.id, StateId{epoch_.load(), lsn});
  s->bytes_logged_since_cp += framed;
  s->stats.OnLogAppend(framed);
  return lsn;
}

void Msp::ReplaySessionRecord(Session* s, const LogRecord& rec) {
  s->state_number = rec.lsn;
  s->dv.Set(config_.id, StateId{epoch_.load(), rec.lsn});
  if (rec.has_dv) MergeDv(s, rec.dv);
}

// ---------------------------------------------------------------------------
// Shared variables (§3.3)
// ---------------------------------------------------------------------------

std::shared_ptr<SharedVariable> Msp::FindSharedVar(
    const std::string& name) const {
  audit::LockGuard lk(vars_mu_);
  auto it = shared_vars_.find(name);
  return it == shared_vars_.end() ? nullptr : it->second;
}

std::shared_ptr<SharedVariable> Msp::GetOrCreateSharedVar(
    const std::string& name) {
  audit::LockGuard lk(vars_mu_);
  auto it = shared_vars_.find(name);
  if (it != shared_vars_.end()) return it->second;
  auto v = std::make_shared<SharedVariable>(name, Bytes());
  shared_vars_[name] = v;
  return v;
}

void Msp::LogSharedRead(Session* s, const SharedVariable& var, Bytes* out) {
  LogRecord rec;
  rec.type = LogRecordType::kSharedRead;
  rec.var_id = var.name;
  rec.payload = var.value;
  rec.has_dv = true;
  rec.dv = var.dv;
  AppendSessionRecord(s, rec);
  MergeDv(s, var.dv);
  if (out) *out = var.value;
}

Status Msp::LogSharedWrite(Session* s, SharedVariable* var, Bytes value) {
  // Fig. 8, write: the write record carries the writer session's DV, the
  // new value, and the LSN of the previous write record (backward chain).
  LogRecord rec;
  rec.type = LogRecordType::kSharedWrite;
  rec.session_id = s->id;
  rec.var_id = var->name;
  rec.payload = std::move(value);
  rec.has_dv = true;
  rec.dv = s->dv;
  rec.prev_lsn = var->last_write_lsn;
  size_t framed = 0;
  uint64_t lsn = log_->Append(rec, &framed);
  // The write record belongs to the *variable's* recovery, not the session's
  // replay: it is not added to the position stream and does not change the
  // session's state number (Fig. 8). Telemetry still attributes it to the
  // writing session — the record carries its id, and the offline inspector's
  // per-session reconstruction groups by that id.
  s->bytes_logged_since_cp += framed;
  s->stats.OnLogAppend(framed);

  // Refined dependency tracking (§3.3): a write REPLACES the variable's DV
  // with the writer's; nothing flows back into the writer.
  var->dv.ReplaceWith(s->dv);
  var->state_number = lsn;
  var->last_write_lsn = lsn;
  var->value = std::move(rec.payload);
  var->writes_since_cp++;

  if (config_.shared_var_checkpoint_threshold_writes > 0 &&
      var->writes_since_cp >= config_.shared_var_checkpoint_threshold_writes) {
    Status st = CheckpointOrUndo(var);
    if (!st.ok() && !st.IsCrashed()) return st;
  }
  return Status::OK();
}

Status Msp::SharedReadImpl(Session* s, const std::string& name, Bytes* out) {
  auto var = GetOrCreateSharedVar(name);
  if (!log_) {
    audit::SharedLock lk(var->rw);
    *out = var->value;
    return Status::OK();
  }
  // Interception point: the reader session's own orphan status.
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  // Fig. 8, read: check whether the variable's value is an orphan; if so,
  // the reader itself rolls it back along the backward chain (§4.2), and
  // logs the read under the exclusive lock — correct, just conservative.
  {
    audit::SharedLock rlk(var->rw);
    if (!DvIsOrphan(var->dv)) {
      LogSharedRead(s, *var, out);
      return Status::OK();
    }
  }
  audit::SharedUniqueLock wlk(var->rw);
  if (DvIsOrphan(var->dv)) {
    MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(var.get()));
  }
  LogSharedRead(s, *var, out);
  return Status::OK();
}

Status Msp::SharedWriteImpl(Session* s, const std::string& name,
                            ByteView value) {
  auto var = GetOrCreateSharedVar(name);
  if (!log_) {
    audit::SharedUniqueLock lk(var->rw);
    var->value = Bytes(value);
    return Status::OK();
  }
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  // The writer need not check whether the existing value is an orphan — it
  // is being replaced.
  audit::SharedUniqueLock lk(var->rw);
  return LogSharedWrite(s, var.get(), Bytes(value));
}

Status Msp::SharedUpdateImpl(Session* s, const std::string& name,
                             const std::function<Bytes(const Bytes&)>& fn,
                             Bytes* out) {
  auto var = GetOrCreateSharedVar(name);
  if (!log_) {
    audit::SharedUniqueLock lk(var->rw);
    var->value = fn(var->value);
    if (out) *out = var->value;
    return Status::OK();
  }
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  // Fused read + write under ONE lock hold: atomic read-modify-write. The
  // log sees the same two records a ReadShared/WriteShared pair produces
  // (value-logged read, chained write), so recovery is unchanged; only the
  // lock scope differs.
  audit::SharedUniqueLock lk(var->rw);
  if (DvIsOrphan(var->dv)) {
    MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(var.get()));
  }
  LogSharedRead(s, *var, /*out=*/nullptr);
  Bytes newval = fn(var->value);
  if (out) *out = newval;
  return LogSharedWrite(s, var.get(), std::move(newval));
}

// ---------------------------------------------------------------------------
// Outgoing calls
// ---------------------------------------------------------------------------

Status Msp::OutgoingCallImpl(Session* s, const std::string& target,
                             const std::string& method, ByteView arg,
                             Bytes* reply, const obs::SpanContext& parent_span) {
  const bool logs = log_ != nullptr;
  if (logs && SessionIsOrphan(s)) {
    return Status::Orphan("session " + s->id);
  }

  OutgoingSessionState& o = s->OutgoingTo(config_.id, target);
  uint64_t seqno = o.next_seqno;

  Message req =
      Message::Request(config_.id, o.session_id, seqno, method, Bytes(arg));
  // Propagate the caller's trace: the callee's request span becomes a child
  // of this request's span, linking span trees across MSPs.
  req.trace_id = parent_span.trace_id;
  req.parent_span_id = parent_span.span_id;

  s->stats.OnNestedCall(target, /*cross_domain=*/!IntraDomain(target));
  ++s->calls_in_request;
  const Bytes* dv_wire = nullptr;
  MSPLOG_RETURN_IF_ERROR(
      GuardSend(s, target, "call to ", &req, &dv_wire, parent_span));

  Message rep;
  MSPLOG_RETURN_IF_ERROR(CallRoundTrip(target, req,
                                       /*check_orphan_reply=*/logs, &rep,
                                       /*max_sends=*/0, dv_wire));

  if (logs) {
    // §3.1: log the nondeterministic reply receive (with its DV if the
    // reply came from inside the domain).
    LogRecord rec;
    rec.type = LogRecordType::kReplyReceive;
    rec.target = target;
    rec.seqno = seqno;
    rec.payload = rep.payload;
    rec.aux = static_cast<uint8_t>(rep.reply_code);
    if (rep.has_dv) {
      rec.has_dv = true;
      rec.dv = rep.dv;
    }
    AppendSessionRecord(s, rec);
    if (rep.has_dv) MergeDv(s, rep.dv);
  }
  o.next_seqno = seqno + 1;
  *reply = rep.payload;
  if (rep.reply_code == ReplyCode::kAppError) {
    return Status::Aborted("remote application error: " + *reply);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

StatusOr<Bytes> Msp::PeekSharedValue(const std::string& name) const {
  auto v = FindSharedVar(name);
  if (!v) return Status::NotFound("no shared " + name);
  audit::SharedLock vlk(v->rw);
  return v->value;
}

RecoveredStateTable Msp::SnapshotRecoveredTable() const {
  audit::LockGuard lk(table_mu_);
  return recovered_table_;
}

}  // namespace msplog
