// Checkpointing (§3.2–§3.4): independent session checkpoints, independent
// shared-variable checkpoints, and the fuzzy MSP checkpoint that ties their
// positions together and is anchored ARIES-style.
#include <algorithm>
#include <chrono>
#include <thread>

#include "audit/mutex.h"
#include "msp/exec_context.h"
#include "msp/msp.h"
#include "msp/msp_checkpoint_format.h"

namespace msplog {

Status Msp::TakeSessionCheckpoint(Session* s, const obs::SpanContext& span) {
  // When a traced request triggers the checkpoint, the pause shows up in
  // its span tree as a child span.
  const obs::SpanContext cspan = span.Child();
  env_->tracer().Record(obs::TraceEventType::kCheckpointBegin,
                        env_->NowModelMs(), config_.id, s->id, /*seqno=*/0,
                        "session", cspan);
  // §3.2: prior to a session checkpoint, a distributed log flush as dictated
  // by the session's DV ensures the checkpointed state is never an orphan.
  Status st = DistributedFlush(s->dv, cspan, s);
  if (st.ok()) {
    LogRecord rec;
    rec.type = LogRecordType::kSessionCheckpoint;
    rec.session_id = s->id;
    rec.payload = s->EncodeCheckpoint();
    s->last_checkpoint_lsn.store(log_->Append(rec));
    // §3.2: on completion, the session's previous log records can be
    // discarded — the position stream truncates to zero length.
    s->positions.Truncate();
    s->bytes_logged_since_cp = 0;
    s->msp_cps_since_cp = 0;
    s->stats.OnCheckpoint();
    env_->stats().checkpoints_session.fetch_add(1);
  }
  env_->tracer().Record(obs::TraceEventType::kCheckpointEnd,
                        env_->NowModelMs(), config_.id, s->id, /*seqno=*/0,
                        st.ok() ? "session" : "session " + st.ToString(),
                        cspan);
  return st;
}

Status Msp::TakeSharedVarCheckpoint(SharedVariable* var) {
  // Caller holds the variable's unique lock.
  // §3.3: a distributed log flush per the variable's DV first; afterwards
  // the checkpointed value can never be an orphan, so the DV clears and the
  // backward chain breaks here.
  MSPLOG_RETURN_IF_ERROR(DistributedFlush(var->dv));

  LogRecord rec;
  rec.type = LogRecordType::kSharedVarCheckpoint;
  rec.var_id = var->name;
  rec.payload = var->value;
  uint64_t lsn = log_->Append(rec);
  var->last_checkpoint_lsn = lsn;
  var->last_write_lsn = lsn;  // chain restarts at the checkpoint
  var->state_number = lsn;
  var->dv.Clear();
  var->writes_since_cp = 0;
  var->msp_cps_since_cp = 0;
  env_->stats().checkpoints_shared_var.fetch_add(1);
  return Status::OK();
}

Status Msp::CheckpointOrUndo(SharedVariable* var) {
  Status st = TakeSharedVarCheckpoint(var);
  if (st.IsOrphan()) return UndoSharedVariable(var);
  return st;
}

Status Msp::TakeMspCheckpoint(bool force_units) {
  audit::LockGuard cp_guard(msp_cp_mu_);
  env_->tracer().Record(obs::TraceEventType::kCheckpointBegin,
                        env_->NowModelMs(), config_.id, /*session=*/"",
                        /*seqno=*/0, force_units ? "msp forced" : "msp");

  // Pre-pass: make sure every shared variable has a checkpoint position, so
  // the analysis-scan start point is bounded (§3.4 forced checkpoints).
  if (force_units) {
    std::vector<std::shared_ptr<SharedVariable>> vars;
    {
      audit::LockGuard lk(vars_mu_);
      for (auto& [n, v] : shared_vars_) vars.push_back(v);
    }
    for (auto& v : vars) {
      audit::SharedUniqueLock vlk(v->rw);
      v->msp_cps_since_cp++;
      bool stale = config_.force_checkpoint_after_msp_cps > 0 &&
                   v->msp_cps_since_cp >= config_.force_checkpoint_after_msp_cps;
      bool never = v->last_checkpoint_lsn == 0;
      if (never || (stale && v->writes_since_cp > 0)) {
        Status st = TakeSharedVarCheckpoint(v.get());
        if (st.IsOrphan()) {
          MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(v.get()));
        } else if (st.IsCrashed()) {
          return st;
        }
      }
    }
  }

  MspCheckpointData data;
  {
    audit::LockGuard lk(table_mu_);
    data.table = recovered_table_;
  }
  std::vector<std::shared_ptr<Session>> stale_sessions;
  {
    audit::LockGuard lk(sessions_mu_);
    for (auto& [id, s] : sessions_) {
      if (s->ended) continue;
      uint64_t cp = s->last_checkpoint_lsn.load();
      uint64_t first = s->first_lsn.load();
      if (cp == 0 && first == 0) continue;  // no log presence yet
      data.sessions.push_back({id, s->client, cp, first});
      s->msp_cps_since_cp++;
      if (force_units && config_.force_checkpoint_after_msp_cps > 0 &&
          s->msp_cps_since_cp >= config_.force_checkpoint_after_msp_cps &&
          s->bytes_logged_since_cp > 0) {
        s->needs_checkpoint = true;
        if (ArmWorkerLocked(s.get())) stale_sessions.push_back(s);
      }
    }
  }
  {
    audit::LockGuard lk(vars_mu_);
    for (auto& [name, v] : shared_vars_) {
      audit::SharedLock vlk(v->rw);
      data.vars.push_back({name, v->last_checkpoint_lsn,
                           v->last_write_lsn != 0});
    }
  }

  LogRecord rec;
  rec.type = LogRecordType::kMspCheckpoint;
  rec.payload = data.Encode();
  uint64_t lsn = log_->Append(rec);
  uint64_t min_needed = data.MinRecoveryLsn(lsn);
  // The referenced session/variable checkpoints were all appended before we
  // read their LSNs, so flushing everything through the MSP checkpoint
  // record makes every referenced position durable before the anchor points
  // at it (ARIES rule). audit:allow(blocking-under-lock): MSP checkpoints
  // are serialized by design; the flush is the checkpoint's commit point.
  MSPLOG_RETURN_IF_ERROR(log_->FlushAll());
  MSPLOG_RETURN_IF_ERROR(anchor_.Write({lsn, epoch_.load()}));
  last_msp_cp_log_end_.store(log_->end_lsn());
  env_->stats().checkpoints_msp.fetch_add(1);

  // Log-space reclamation: no recovery — crash, session or shared-variable —
  // ever reads below the scan start position this checkpoint pins, so the
  // prefix is dead ("the session's previous log records can be discarded",
  // §3.2; we extend the same argument to the whole log).
  if (config_.reclaim_log && min_needed > 0) {
    if (config_.archive_log) {
      log_->ArchiveUpTo(min_needed);
    } else {
      log_->ReclaimUpTo(min_needed);
    }
  }

  for (auto& s : stale_sessions) SubmitWorker(std::move(s));
  env_->tracer().Record(obs::TraceEventType::kCheckpointEnd,
                        env_->NowModelMs(), config_.id, /*session=*/"",
                        /*seqno=*/0, "msp");
  return Status::OK();
}

Status Msp::ForceCheckpoint(const CheckpointTarget& target) {
  // Every checkpoint kind writes the log: a baseline MSP (or one that is not
  // running) has none. The daemon and the request path reach the Take*
  // bodies only on a log-based MSP.
  if (!log_) return Status::Unsupported("checkpoints need the log");
  switch (target.kind) {
    case CheckpointTarget::Kind::kMsp:
      return TakeMspCheckpoint(/*force_units=*/true);
    case CheckpointTarget::Kind::kSession:
      return ForceSessionCheckpointImpl(target.name);
    case CheckpointTarget::Kind::kSharedVar: {
      auto v = FindSharedVar(target.name);
      if (!v) return Status::NotFound("no shared " + target.name);
      audit::SharedUniqueLock vlk(v->rw);
      return CheckpointOrUndo(v.get());
    }
  }
  return Status::InvalidArgument("unknown checkpoint target kind");
}

Status Msp::ForceSessionCheckpointImpl(const std::string& session_id) {
  auto s = GetSession(session_id);
  if (!s) return Status::NotFound("no session " + session_id);
  // Claim the session like a worker would, so the checkpoint happens
  // "between requests" (§3.2).
  while (true) {
    {
      audit::LockGuard lk(sessions_mu_);
      if (ArmWorkerLocked(s.get())) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (state_.load() != State::kRunning) return Status::Crashed("");
  }
  Status st = TakeSessionCheckpoint(s.get());
  bool rearm = false;
  {
    audit::LockGuard lk(sessions_mu_);
    if (!s->pending_requests.empty() || s->needs_orphan_check ||
        s->needs_checkpoint) {
      rearm = true;  // stay claimed; a worker drains the queue
    } else {
      s->worker_active = false;
    }
  }
  if (rearm) SubmitWorker(std::move(s));
  return st;
}

void Msp::CheckpointDaemonLoop() {
  audit::UniqueLock lk(cp_mu_);
  while (!cp_stop_) {
    cp_cv_.wait_for(lk,
                    std::chrono::milliseconds(
                        RealWaitMs(config_.checkpoint_interval_ms)),
                    [&] {
                      cp_mu_.AssertHeld();
                      return cp_stop_;
                    });
    if (cp_stop_) break;
    lk.unlock();
    if (config_.msp_checkpoint_log_bytes > 0 &&
        log_->end_lsn() - last_msp_cp_log_end_.load() >=
            config_.msp_checkpoint_log_bytes &&
        state_.load() == State::kRunning) {
      (void)ForceCheckpoint(CheckpointTarget::Msp());
    }
    lk.lock();
  }
}

}  // namespace msplog
