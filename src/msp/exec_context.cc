#include "msp/exec_context.h"

namespace msplog {

// ---------------------------------------------------------------------------
// ReplayCursor
// ---------------------------------------------------------------------------

ReplayCursor::ReplayCursor(LogFile* log, std::shared_ptr<const LogImage> image,
                           std::vector<uint64_t> positions)
    : log_(log),
      reader_(log->disk(), log->file_name(), UINT64_MAX, std::move(image)),
      positions_(std::move(positions)) {}

Status ReplayCursor::ReadAt(uint64_t lsn, LogRecord* out) {
  // Still in the volatile buffer: a memory read.
  if (lsn >= log_->durable_lsn()) return log_->ReadRecordAt(lsn, out);
  return reader_.ReadRecordAt(lsn, out);
}

Status ReplayCursor::Peek(LogRecord* out) {
  if (!HasNext()) return Status::NotFound("cursor exhausted");
  uint64_t lsn = positions_[idx_];
  if (cached_ && cached_rec_.lsn == lsn) {
    *out = cached_rec_;
    return Status::OK();
  }
  Status st = ReadAt(lsn, out);
  if (st.ok()) {
    cached_ = true;
    cached_rec_ = *out;
  }
  return st;
}

void ReplayCursor::Skip() {
  ++idx_;
  cached_ = false;
}

// ---------------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------------

Bytes ExecContext::GetSessionVar(const std::string& name) {
  auto it = s_->vars.find(name);
  return it == s_->vars.end() ? Bytes() : it->second;
}

bool ExecContext::HasSessionVar(const std::string& name) const {
  return s_->vars.count(name) > 0;
}

void ExecContext::SetSessionVar(const std::string& name, ByteView value) {
  // Session variables are never logged (§3.2): deterministic re-execution
  // reconstructs them, so this is identical in every mode.
  s_->vars[name] = Bytes(value);
}

Status ExecContext::NextForReplay(LogRecordType expected,
                                  const std::string& key, LogRecord* rec,
                                  bool* logged) {
  *logged = false;
  if (!cursor_->HasNext()) {
    // §4.3: the log ends mid-request (its tail was lost in the crash) —
    // re-execution becomes execution from here on.
    live_ = true;
    return Status::OK();
  }
  MSPLOG_RETURN_IF_ERROR(cursor_->Peek(rec));
  if (rec->has_dv && msp_->DvIsOrphan(rec->dv)) {
    // §4.1: the orphan log record ends replay; skip it and everything after,
    // write the EOS record, and continue the interrupted action live.
    msp_->OrphanCut(s_, rec->lsn);
    live_ = true;
    return Status::OK();
  }
  // The logged record must be the operation the re-execution performs: the
  // same kind, on the same variable (read) or peer (call).
  const std::string& logged_key =
      expected == LogRecordType::kSharedRead ? rec->var_id : rec->target;
  if (rec->type != expected || logged_key != key) {
    msp_->env()->stats().replay_misalignments.fetch_add(1);
    return Status::Internal(
        "replay misalignment: method did " +
        std::string(LogRecordTypeName(expected)) + " '" + key +
        "', log has " + std::string(LogRecordTypeName(rec->type)) + " '" +
        logged_key + "'");
  }
  cursor_->Skip();
  // The session's DV and state number advance exactly as they did when the
  // record was appended during normal execution.
  msp_->ReplaySessionRecord(s_, *rec);
  *logged = true;
  return Status::OK();
}

Status ExecContext::ReadShared(const std::string& name, Bytes* out) {
  if (in_replay()) {
    LogRecord rec;
    bool logged = false;
    MSPLOG_RETURN_IF_ERROR(
        NextForReplay(LogRecordType::kSharedRead, name, &rec, &logged));
    if (logged) {
      // §4.1: reading a shared variable gets its value from the log.
      *out = rec.payload;
      return Status::OK();
    }
  }
  return msp_->SharedReadImpl(s_, name, out);
}

Status ExecContext::WriteShared(const std::string& name, ByteView value) {
  if (in_replay()) {
    // §4.1: writing a shared variable is skipped during replay — the
    // variable has its own separate recovery (roll-forward / undo chain).
    return Status::OK();
  }
  return msp_->SharedWriteImpl(s_, name, value);
}

Status ExecContext::UpdateShared(const std::string& name,
                                 const std::function<Bytes(const Bytes&)>& fn,
                                 Bytes* out) {
  if (in_replay()) {
    LogRecord rec;
    bool logged = false;
    MSPLOG_RETURN_IF_ERROR(
        NextForReplay(LogRecordType::kSharedRead, name, &rec, &logged));
    if (logged) {
      // Same replay rules as a read followed by a (skipped) write: the
      // deterministic `fn` re-derives the value the method continued with.
      Bytes result = fn(rec.payload);
      if (out) *out = std::move(result);
      return Status::OK();
    }
  }
  return msp_->SharedUpdateImpl(s_, name, fn, out);
}

Status ExecContext::Call(const std::string& target_msp,
                         const std::string& method, ByteView arg,
                         Bytes* reply) {
  if (in_replay()) {
    LogRecord rec;
    bool logged = false;
    MSPLOG_RETURN_IF_ERROR(NextForReplay(LogRecordType::kReplyReceive,
                                         target_msp, &rec, &logged));
    if (logged) {
      // §4.1: requests to other MSPs are not sent; the reply is read from
      // the log.
      s_->OutgoingTo(msp_->config().id, target_msp).next_seqno = rec.seqno + 1;
      *reply = rec.payload;
      if (static_cast<ReplyCode>(rec.aux) == ReplyCode::kAppError) {
        return Status::Aborted("remote application error: " + *reply);
      }
      return Status::OK();
    }
  }
  return msp_->OutgoingCallImpl(s_, target_msp, method, arg, reply, span_);
}

void ExecContext::Compute(double model_ms) {
  // Re-execution pays the same CPU cost as normal execution (§5.4).
  msp_->ChargeCpu(model_ms);
}

}  // namespace msplog
