// MSP-to-MSP messaging: the resending call round trip behind outgoing
// calls (and the state-server store), and the distributed log flush of §3.1
// with both of its sides — the requester's legs through the flush
// aggregator, and the flush-request handler that answers peers.
#include <chrono>

#include "audit/mutex.h"
#include "msp/msp.h"

namespace msplog {

Status Msp::CallRoundTrip(const std::string& dest, const Message& req,
                          bool check_orphan_reply, Message* out,
                          uint32_t max_sends, const Bytes* dv_wire) {
  if (max_sends == 0) max_sends = kMaxCallSends;
  // Encoded once, resent verbatim on loss. `dv_wire`, when set, splices the
  // caller's pre-encoded DV (zero-copy piggybacking).
  Bytes wire;
  req.AppendTo(&wire, dv_wire);
  auto key = std::make_pair(req.session_id, req.seqno);
  uint32_t sends = 0;
  while (sends < max_sends) {
    auto pc = std::make_shared<PendingCall>();
    {
      audit::LockGuard lk(calls_mu_);
      pending_calls_[key] = pc;
    }
    network_->Send(config_.id, dest, wire);
    ++sends;
    bool failed = false;
    bool done = false;
    Message m;
    {
      // Snapshot under pc->mu: the dispatch thread can deliver a late reply
      // right after a timed-out wait, racing unlocked reads of done/reply.
      audit::UniqueLock lk(pc->mu);
      pc->cv.wait_for(
          lk,
          std::chrono::milliseconds(RealWaitMs(config_.call_resend_timeout_ms)),
          [&] {
            pc->mu.AssertHeld();
            return pc->done || pc->failed;
          });
      failed = pc->failed;
      done = pc->done;
      if (done) m = std::move(pc->reply);
    }
    {
      audit::LockGuard lk(calls_mu_);
      auto it = pending_calls_.find(key);
      if (it != pending_calls_.end() && it->second == pc) {
        pending_calls_.erase(it);
      }
    }
    if (state_.load() == State::kCrashed || failed) {
      return Status::Crashed("MSP crashed during call");
    }
    if (!done) continue;  // timeout: resend
    if (m.reply_code == ReplyCode::kBusy) {
      env_->SleepModelMs(config_.busy_backoff_ms);
      continue;
    }
    if (m.reply_code == ReplyCode::kOrphanNotice) {
      // The callee proved our request carried a lost dependency: absorb the
      // recovered state number and surface orphan-ness to the session.
      {
        audit::LockGuard lk(table_mu_);
        recovered_table_.Record(m.payload, m.rec_epoch, m.rec_sn);
      }
      return Status::Orphan("orphan notice from " + dest);
    }
    if (check_orphan_reply && m.has_dv && DvIsOrphan(m.dv)) {
      // Fig. 7: an orphan message is discarded; the sender recovers and
      // resends. Keep resending our request until a clean reply arrives.
      env_->stats().orphans_detected.fetch_add(1);
      env_->SleepModelMs(config_.busy_backoff_ms);
      continue;
    }
    *out = std::move(m);
    return Status::OK();
  }
  return Status::TimedOut("no reply from " + dest + " after " +
                          std::to_string(sends) + " sends");
}

void Msp::HandleReplyMsg(Message m) {
  std::shared_ptr<PendingCall> pc;
  {
    audit::LockGuard lk(calls_mu_);
    auto it = pending_calls_.find({m.session_id, m.seqno});
    if (it == pending_calls_.end()) return;  // duplicate/stale reply
    pc = it->second;
  }
  {
    audit::LockGuard lk(pc->mu);
    if (pc->done) return;
    pc->reply = std::move(m);
    pc->done = true;
  }
  pc->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Distributed log flush (§3.1)
// ---------------------------------------------------------------------------

Status Msp::DistributedFlush(const DependencyVector& dv,
                             const obs::SpanContext& span,
                             Session* stats_session) {
  // The flush is its own child span under the stalled request span, so the
  // trace shows the log-flush stall as a distinct stage.
  const obs::SpanContext fspan = span.Child();
  double t0 = env_->NowModelMs();
  env_->tracer().Record(obs::TraceEventType::kDistFlushStart, t0, config_.id,
                        /*session=*/"", /*seqno=*/0,
                        "dv_entries=" + std::to_string(dv.entry_count()),
                        fspan);
  Status st = DistributedFlushImpl(dv, fspan);
  double t1 = env_->NowModelMs();
  hist_flush_wait_ms_->Record(t1 - t0);
  if (stats_session) {
    stats_session->stats.OnForcedFlush();
    stats_session->stats.OnFlushStall(t1 - t0);
  }
  env_->tracer().Record(obs::TraceEventType::kDistFlushEnd, t1, config_.id,
                        /*session=*/"", /*seqno=*/0,
                        st.ok() ? "" : st.ToString(), fspan);
  return st;
}

Status Msp::DistributedFlushImpl(const DependencyVector& dv,
                                 const obs::SpanContext& span) {
  env_->stats().distributed_flushes.fetch_add(1);

  // Submit the peer legs first so they run in parallel with the local one.
  // The aggregator decides, under one lock pass per leg, whether it is
  // already covered by the durable watermark (skip), rides an in-flight
  // request (join), accumulates behind one (queue), or launches a flight.
  auto call = std::make_shared<FlushCall>();
  std::vector<std::shared_ptr<FlushWaiter>> waiters;
  for (const auto& [msp, id] : dv.entries()) {
    if (msp == config_.id) continue;
    if (!IntraDomain(msp)) continue;  // cross-domain deps never exist
    auto w = flush_agg_->Submit(msp, id, call, span);
    if (w) waiters.push_back(std::move(w));
  }

  auto abandon_unsettled = [&] {
    for (auto& w : waiters) {
      bool settled;
      {
        audit::LockGuard lk(call->mu);
        settled = w->settled;
      }
      if (!settled) flush_agg_->Abandon(w);
    }
  };

  // Local leg (skipped when the durable watermark already covers it).
  auto self = dv.Get(config_.id);
  if (self && self->epoch == epoch_.load() &&
      self->sn < log_->end_lsn() && self->sn >= log_->durable_lsn()) {
    Status st = log_->FlushUpTo(self->sn);
    if (!st.ok()) {
      abandon_unsettled();
      return st;
    }
  }

  // One deadline-driven wait across ALL legs (no per-leg serialization): a
  // slow first peer no longer delays settled later legs' bookkeeping. Wake
  // when every leg settled or any settled leg failed; after a timeout round
  // with no settlement, the aggregator resends each stalled flight at most
  // once per round and eventually times the flight out (max_rounds). The
  // peer may be mid-crash; once it recovers it either confirms durability
  // or reports the recovered state number that proves we are an orphan.
  while (!waiters.empty()) {
    bool all_settled;
    bool fatal;
    {
      audit::UniqueLock lk(call->mu);
      call->cv.wait_for(
          lk, std::chrono::milliseconds(RealWaitMs(config_.flush_timeout_ms)),
          [&] {
            call->mu.AssertHeld();
            return call->unsettled == 0 || call->fatal;
          });
      all_settled = call->unsettled == 0;
      fatal = call->fatal;
    }
    if (all_settled || fatal || state_.load() == State::kCrashed) break;
    for (auto& w : waiters) flush_agg_->OnWaitTimeout(w);
  }

  // Harvest outcomes. Precedence mirrors the old per-leg loop: crash wins,
  // then orphan-hood (recording every peer's recovered state number), then
  // timeout. Legs still unsettled after an early exit are abandoned — their
  // outcome no longer matters to this call.
  bool crashed = state_.load() == State::kCrashed;
  MspId orphan_peer;
  MspId timeout_peer;
  for (auto& w : waiters) {
    bool settled, ok, t_out, w_crashed;
    uint32_t oe;
    uint64_t osn;
    {
      audit::LockGuard lk(call->mu);
      settled = w->settled;
      ok = w->ok;
      t_out = w->timed_out;
      w_crashed = w->crashed;
      oe = w->orphan_epoch;
      osn = w->orphan_sn;
    }
    if (!settled) {
      flush_agg_->Abandon(w);
      continue;
    }
    if (ok) continue;
    if (w_crashed) {
      crashed = true;
    } else if (oe != 0) {
      // The peer's recovery provably lost our dependency: orphan.
      {
        audit::LockGuard lk(table_mu_);
        recovered_table_.Record(w->peer, oe, osn);
      }
      env_->stats().orphans_detected.fetch_add(1);
      env_->tracer().Record(obs::TraceEventType::kOrphanDetected,
                            env_->NowModelMs(), config_.id,
                            /*session=*/"", /*seqno=*/0,
                            "flush_leg=" + w->peer);
      if (orphan_peer.empty()) orphan_peer = w->peer;
    } else if (t_out && timeout_peer.empty()) {
      timeout_peer = w->peer;
    }
  }
  if (crashed) return Status::Crashed("MSP crashed during distributed flush");
  if (!orphan_peer.empty()) return Status::Orphan("flush failed at " + orphan_peer);
  if (!timeout_peer.empty()) {
    return Status::TimedOut("distributed flush to " + timeout_peer);
  }
  return Status::OK();
}

void Msp::SendFlushReply(const std::string& to, uint64_t flush_id, bool ok,
                         uint32_t rec_epoch, uint64_t rec_sn) {
  Message r;
  r.type = MessageType::kFlushReply;
  r.sender = config_.id;
  r.flush_id = flush_id;
  r.flush_ok = ok;
  r.rec_epoch = rec_epoch;
  r.rec_sn = rec_sn;
  network_->Send(config_.id, to, r.Encode());
}

void Msp::HandleFlushRequest(Message m) {
  uint32_t cur_epoch = epoch_.load();
  if (m.epoch == cur_epoch && log_) {
    if (m.flush_sn < log_->durable_lsn()) {
      // Already durable: no write needed.
      SendFlushReply(m.sender, m.flush_id, /*ok=*/true, 0, 0);
    } else if (m.flush_sn < log_->end_lsn()) {
      if (config_.coalesce_distributed_flushes && inbound_flush_) {
        // Group commit: concurrent requests drain through one batching
        // loop — a single FlushUpTo to the batch maximum answers them all.
        inbound_flush_->Enqueue({m.sender, m.flush_id, m.flush_sn});
      } else if (log_->FlushUpTo(m.flush_sn).ok()) {
        SendFlushReply(m.sender, m.flush_id, /*ok=*/true, 0, 0);
      }
      // FlushUpTo failure means we are crashing mid-flush. NEVER report a
      // failure for the current epoch — that would amount to announcing a
      // recovered state number for an epoch that has not ended, poisoning
      // the requester's table. Stay silent; the requester retries and our
      // recovery will give the authoritative answer.
    }
    // else: an sn from our current epoch that we do not know (should not
    // happen); drop rather than guess.
    return;
  }
  if (m.epoch < cur_epoch) {
    // The epoch already ended: the sn is durable iff it survived recovery.
    bool ok;
    uint32_t rec_epoch = 0;
    uint64_t rec_sn = 0;
    {
      audit::LockGuard lk(table_mu_);
      auto rsn = recovered_table_.RecoveredSn(config_.id, m.epoch);
      ok = rsn.has_value() && *rsn >= m.flush_sn;
      if (!ok) {
        // Authoritative failure: the epoch ended at rec_sn < flush_sn.
        rec_epoch = m.epoch;
        rec_sn = rsn.value_or(0);
      }
    }
    SendFlushReply(m.sender, m.flush_id, ok, rec_epoch, rec_sn);
    return;
  }
  // Request from our future (stale routing): drop.
}

void Msp::HandleFlushReply(Message m) { flush_agg_->HandleReply(m); }

}  // namespace msplog
