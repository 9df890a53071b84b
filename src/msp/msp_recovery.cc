// Recovery processing (§4; the analysis scan, open and background drain
// live in recovery_coordinator.cc): per-session replay, session orphan recovery
// (replay from the latest checkpoint along the position stream, EOS cut at
// the orphan log record, live continuation), the recovery broadcasts that
// trigger it, shared-variable undo along the backward write chain (§4.2),
// and the orphan predicates.
#include <algorithm>

#include "audit/invariants.h"
#include "audit/mutex.h"
#include "msp/exec_context.h"
#include "msp/msp.h"
#include "msp/recovery_coordinator.h"

namespace msplog {

obs::RecoveryTimeline Msp::LastRecoveryTimeline() const {
  audit::LockGuard lk(timeline_mu_);
  return last_recovery_timeline_;
}

std::vector<obs::RecoveryTimeline> Msp::RecentRecoveryTimelines(
    size_t max_n) const {
  audit::LockGuard lk(timeline_mu_);
  std::vector<obs::RecoveryTimeline> out(recovery_history_.begin(),
                                         recovery_history_.end());
  if (last_recovery_timeline_.epoch != 0) {
    out.push_back(last_recovery_timeline_);
  }
  if (max_n != 0 && out.size() > max_n) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max_n));
  }
  return out;
}

obs::OutageReport Msp::LastOutageReport() const {
  audit::LockGuard lk(timeline_mu_);
  return last_outage_report_;
}

void Msp::SessionRecoveryTask(std::shared_ptr<Session> s, bool on_demand) {
  {
    // Claim the session: background drain, on-demand admission, and (via
    // RecoverSessionReplay's own claim) lazy orphan recovery may race to
    // replay it; exactly one wins, the rest no-op.
    audit::LockGuard lk(sessions_mu_);
    if (!s->recovering || s->replay_claimed) return;
    s->replay_claimed = true;
  }
  if (on_demand) {
    audit::LockGuard lk(timeline_mu_);
    ++last_recovery_timeline_.on_demand_replays;
  }
  (void)RecoverSessionReplay(s.get(), /*from_crash=*/true);
}

Status Msp::RecoverSessionReplay(Session* s, bool from_crash) {
  {
    audit::LockGuard lk(sessions_mu_);
    s->recovering = true;
    // Also claim: blocks the admission gate from spawning a concurrent
    // on-demand replay while a lazy orphan recovery owns the session.
    s->replay_claimed = true;
  }
  const double replay_t0 = env_->NowModelMs();
  env_->tracer().Record(obs::TraceEventType::kReplayStart, replay_t0,
                        config_.id, s->id, /*seqno=*/0,
                        from_crash ? "crash" : "orphan");
  const uint32_t parallel_now = active_replays_.fetch_add(1) + 1;
  {
    audit::LockGuard lk(timeline_mu_);
    if (parallel_now > last_recovery_timeline_.max_parallel_replays) {
      last_recovery_timeline_.max_parallel_replays = parallel_now;
    }
  }
  uint64_t requests_replayed = 0;
  // Delta over this replay distinguishes a clean "replayed" fate from an
  // "orphaned" one in the outage report (the field is owner-thread only,
  // and this thread owns the session for the duration of the replay).
  const uint64_t orphan_cuts_before = s->orphan_cuts;
  obs::RecoveryTimeline::SessionProvenance prov;
  prov.session_id = s->id;
  Status st = Status::OK();
  uint32_t rounds = 0;
  while (true) {
    if (++rounds > 64) {
      st = Status::Internal("session recovery did not converge");
      break;
    }
    // Each pass overwrites the provenance; the final converged pass is the
    // one that actually rebuilt the session, which is what we keep.
    st = ReplayOnce(s, &requests_replayed, &prov);
    if (st.IsOrphan()) continue;  // orphaned again mid-replay: start over
    if (!st.ok()) break;
    // §4.1 "Orphan Recovery upon Multiple Crashes": another crash may have
    // arrived while we replayed; re-check before declaring victory.
    if (SessionIsOrphan(s)) continue;
    break;
  }
  active_replays_.fetch_sub(1);
  if (from_crash) {
    // Count the recovery BEFORE the session becomes servable again (reply
    // resend / worker arming below): an observer that just completed a
    // round trip against the recovered session must see the counter.
    env_->stats().sessions_recovered.fetch_add(1);
  }
  // Replay legitimately rewinds the DV; re-arm the monotonicity shadow at the
  // new baseline, and cross-check that no surviving dependency points at a
  // state number the recovered-state table proves lost (Theorem 4.2).
  s->audit_shadow_dv = s->dv;
  if (st.ok()) {
    audit::CheckRecoveredDominates("session " + s->id,
                                   SnapshotRecoveredTable(), config_.id,
                                   epoch_.load(), s->dv);
  }
  const double servable_now = env_->NowModelMs();
  const double replay_ms = servable_now - replay_t0;
  hist_replay_ms_->Record(replay_ms);
  s->stats.OnReplayedRequests(requests_replayed);
  s->stats.SetDvEntries(s->dv.entry_count());
  env_->tracer().Record(obs::TraceEventType::kReplayEnd,
                        env_->NowModelMs(), config_.id, s->id, /*seqno=*/0,
                        "replayed=" + std::to_string(requests_replayed));
  {
    audit::LockGuard lk(timeline_mu_);
    last_recovery_timeline_.session_replays.push_back(
        {s->id, replay_ms, requests_replayed, rounds, from_crash, st.ok()});
    prov.msp_checkpoint_lsn = last_recovery_timeline_.msp_checkpoint_lsn;
    // Replace-or-append: a lazy orphan recovery updates its session's entry
    // rather than duplicating it.
    auto& all = last_recovery_timeline_.provenance;
    auto it = std::find_if(all.begin(), all.end(), [&](const auto& p) {
      return p.session_id == s->id;
    });
    if (it != all.end()) {
      *it = prov;
    } else {
      all.push_back(prov);
    }
    // Resolve this session's fate in the outage report: the replay just
    // made it servable again. An EOS cut during this replay means its
    // in-flight work was orphaned; otherwise it replayed cleanly.
    if (from_crash && st.ok() && last_outage_report_.valid) {
      if (obs::OutageReport::SessionFate* f =
              last_outage_report_.Find(s->id)) {
        if (f->fate == "pending") {
          f->fate =
              s->orphan_cuts > orphan_cuts_before ? "orphaned" : "replayed";
          f->servable_at_ms = servable_now;
          f->time_to_servable_ms =
              servable_now - last_outage_report_.crash_model_ms;
          f->requests_replayed = requests_replayed;
          last_outage_report_.Finalize();
        }
      }
    }
  }
  // The client may still be waiting for the reply of the last request —
  // resend it (duplicate replies are discarded by receivers).
  if (st.ok() && s->buffered_reply.valid && !s->ended) {
    Status rst = SendReply(s, s->buffered_reply.code,
                           s->buffered_reply.payload, s->buffered_reply.seqno);
    if (rst.IsOrphan()) {
      // Rare: orphaned between the convergence check and the resend flush.
      audit::LockGuard lk(sessions_mu_);
      s->needs_orphan_check = true;
    }
  }
  bool arm = false;
  {
    audit::LockGuard lk(sessions_mu_);
    s->recovering = false;
    s->replay_claimed = false;
    arm = (!s->pending_requests.empty() || s->needs_orphan_check ||
           s->needs_checkpoint) &&
          ArmWorkerLocked(s);
  }
  if (arm) {
    auto sp = GetSession(s->id);
    if (sp) SubmitWorker(std::move(sp));
  }
  return st;
}

Status Msp::ReplayOnce(Session* s, uint64_t* replayed_out,
                       obs::RecoveryTimeline::SessionProvenance* prov) {
  // One cursor serves the whole pass: while this recovery's log image
  // lives, every durable frame comes from it instead of the disk.
  ReplayCursor cursor(log_.get(),
                      recovery_coordinator_ ? recovery_coordinator_->image()
                                            : nullptr,
                      s->positions.All());
  Status st = ReplayAlong(s, &cursor, replayed_out, prov);
  // Every exit path stamps how far along the stream this pass got, and
  // what its reads cost.
  if (prov) prov->log_records_consumed = cursor.consumed();
  const LogReadStats& reads = cursor.read_stats();
  audit::LockGuard lk(timeline_mu_);
  last_recovery_timeline_.replay_disk_reads += reads.disk_reads;
  last_recovery_timeline_.replay_disk_bytes += reads.disk_bytes;
  last_recovery_timeline_.replay_image_frames += reads.image_frames;
  return st;
}

Status Msp::ReplayAlong(Session* s, ReplayCursor* cursor,
                        uint64_t* replayed_out,
                        obs::RecoveryTimeline::SessionProvenance* prov) {
  // 1. Initialize from the most recent session checkpoint (§4.1).
  uint64_t cp_lsn = s->last_checkpoint_lsn.load();
  if (prov) {
    prov->records.clear();
    prov->session_checkpoint_lsn = cp_lsn;
  }
  if (cp_lsn != 0) {
    LogRecord cp;
    MSPLOG_RETURN_IF_ERROR(cursor->ReadAt(cp_lsn, &cp));
    if (cp.type != LogRecordType::kSessionCheckpoint) {
      return Status::Corruption("expected session checkpoint at " +
                                std::to_string(cp_lsn));
    }
    MSPLOG_RETURN_IF_ERROR(s->DecodeCheckpoint(cp.payload));
  } else {
    s->vars.clear();
    s->dv.Clear();
    s->state_number = 0;
    s->next_expected_seqno = 1;
    s->buffered_reply = BufferedReply();
    s->outgoing.clear();
  }

  // 2. Redo recovery: replay logged requests along the position stream.
  while (cursor->HasNext()) {
    LogRecord rec;
    MSPLOG_RETURN_IF_ERROR(cursor->Peek(&rec));
    if (rec.type == LogRecordType::kSessionStart) {
      cursor->Skip();
      continue;
    }
    if (rec.type == LogRecordType::kSessionEnd) {
      audit::LockGuard lk(sessions_mu_);
      s->ended = true;
      return Status::OK();
    }
    if (rec.has_dv && DvIsOrphan(rec.dv)) {
      // The session became an orphan by receiving this request: skip it and
      // everything after; the sender will resend after its own recovery.
      OrphanCut(s, rec.lsn);
      return Status::OK();
    }
    if (rec.type != LogRecordType::kRequestReceive) {
      env_->stats().replay_misalignments.fetch_add(1);
      return Status::Internal(
          "position stream misaligned: expected RequestReceive, found " +
          std::string(LogRecordTypeName(rec.type)) + " at " +
          std::to_string(rec.lsn));
    }
    cursor->Skip();
    ReplaySessionRecord(s, rec);
    s->next_expected_seqno = rec.seqno;
    if (prov) prov->records.push_back({epoch_.load(), rec.seqno, rec.lsn});

    ExecContext ctx(this, s, ExecContext::Mode::kReplay, rec.seqno, cursor);
    Bytes result;
    Status st = InvokeMethod(rec.target, &ctx, rec.payload, &result);
    env_->stats().requests_replayed.fetch_add(1);
    if (replayed_out) ++*replayed_out;
    if (st.IsOrphan() || st.IsCrashed() || st.IsTimedOut()) return st;

    ReplyCode code = st.ok() ? ReplyCode::kOk : ReplyCode::kAppError;
    Bytes payload = st.ok() ? std::move(result) : Bytes(st.ToString());
    s->buffered_reply = {true, rec.seqno, code, payload};
    s->next_expected_seqno = rec.seqno + 1;

    if (ctx.switched_live()) {
      // The request was in flight when the log ended (or the cut happened):
      // its execution just completed for real, so the reply must go out.
      MSPLOG_RETURN_IF_ERROR(SendReply(s, code, payload, rec.seqno));
      // Anything after the switch point is gone (cut) or did not exist.
      return Status::OK();
    }
  }
  return Status::OK();
}

void Msp::OrphanCut(Session* s, uint64_t orphan_lsn) {
  // §4.1 "Orphan Recovery End": write an EOS record pointing back to the
  // orphan log record and make the skipped range invisible to any future
  // recovery of this session. The EOS need not be flushed; if it is lost in
  // a crash, everything from the orphan record onward is skipped anyway.
  LogRecord eos;
  eos.type = LogRecordType::kEos;
  eos.session_id = s->id;
  eos.prev_lsn = orphan_lsn;
  log_->Append(eos);
  s->positions.RemoveRange(orphan_lsn, UINT64_MAX);
  ++s->orphan_cuts;
  env_->tracer().Record(obs::TraceEventType::kOrphanCut, env_->NowModelMs(),
                        config_.id, s->id, /*seqno=*/0,
                        "orphan_lsn=" + std::to_string(orphan_lsn));
  audit::LockGuard lk(timeline_mu_);
  ++last_recovery_timeline_.orphan_events;
}

Status Msp::UndoSharedVariable(SharedVariable* var) {
  env_->stats().orphans_detected.fetch_add(1);
  // Follow the backward chain of write records to the most recent
  // non-orphan value (§4.2 — undo recovery). The chain breaks at
  // shared-variable checkpoints, whose values are never orphans.
  uint64_t lsn = var->last_write_lsn;
  while (lsn != 0) {
    LogRecord rec;
    Status st = log_->ReadRecordAt(lsn, &rec);
    if (!st.ok()) return st;
    if (rec.type == LogRecordType::kSharedVarCheckpoint) {
      var->RestoreLocked(std::move(rec.payload), DependencyVector(), lsn);
      return Status::OK();
    }
    if (rec.type != LogRecordType::kSharedWrite) {
      return Status::Corruption("write chain points at " +
                                std::string(LogRecordTypeName(rec.type)));
    }
    if (!DvIsOrphan(rec.dv)) {
      var->RestoreLocked(std::move(rec.payload), rec.dv, lsn);
      return Status::OK();
    }
    lsn = rec.prev_lsn;
  }
  // Chain exhausted: every logged value was an orphan.
  var->RestoreLocked(var->initial_value, DependencyVector(), 0);
  return Status::OK();
}

void Msp::HandleRecoveryAnnounce(Message m) {
  {
    audit::LockGuard lk(table_mu_);
    recovered_table_.Record(m.sender, m.rec_epoch, m.rec_sn);
  }
  if (log_) {
    // Persist the knowledge (§3.1: "Other processes log and remember this
    // recovered state number").
    LogRecord rec;
    rec.type = LogRecordType::kRecoveredState;
    rec.peer = m.sender;
    rec.peer_epoch = m.rec_epoch;
    rec.peer_recovered_sn = m.rec_sn;
    log_->Append(rec);
  }
  // §4.1: idle sessions are checked now; busy sessions at the next
  // interception point (their worker picks the flag up between requests).
  std::vector<std::shared_ptr<Session>> to_arm;
  {
    audit::LockGuard lk(sessions_mu_);
    for (auto& [id, s] : sessions_) {
      if (s->ended) continue;
      s->needs_orphan_check = true;
      if (ArmWorkerLocked(s.get())) to_arm.push_back(s);
    }
  }
  for (auto& s : to_arm) SubmitWorker(std::move(s));
}

// ---------------------------------------------------------------------------
// Orphan predicates
// ---------------------------------------------------------------------------

bool Msp::DvIsOrphan(const DependencyVector& dv) const {
  audit::LockGuard lk(table_mu_);
  return recovered_table_.IsOrphanDv(dv);
}

void Msp::PublishDv(const Session* s) const {
  if (config_.per_session_dv) return;
  audit::LockGuard lk(wide_dv_mu_);
  s->published_dv = s->dv;
}

DependencyVector Msp::MspWideDv(const Session* self) const {
  PublishDv(self);
  DependencyVector all;
  audit::LockGuard lk(sessions_mu_);
  audit::LockGuard dlk(wide_dv_mu_);
  for (const auto& [id, sess] : sessions_) {
    if (!sess->ended) all.Merge(sess->published_dv);
  }
  return all;
}

bool Msp::SessionIsOrphan(const Session* s) const {
  if (!config_.per_session_dv) {
    // §3.2 strawman: one DV for the whole MSP — if ANY session carries an
    // orphan dependency, every session is considered orphan and rolls back.
    return DvIsOrphan(MspWideDv(s));
  }
  return DvIsOrphan(s->dv);
}

}  // namespace msplog
