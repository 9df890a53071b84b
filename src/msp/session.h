// Session — the recovery unit of an MSP (§3.2). Sessions hold private
// session variables (never logged: replay re-executes service methods to
// reconstruct them), a per-session dependency vector and state number, the
// duplicate-detection bookkeeping of §3.1, and the per-session position
// stream into the shared physical log.
//
// Concurrency: within a session at most one request is processed at a time
// (§2.1). The fields below are mutated only by the worker thread currently
// owning the session; the queue/ownership flags are guarded by the MSP's
// session-table mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/status.h"
#include "log/position_stream.h"
#include "obs/session_stats.h"
#include "obs/trace.h"
#include "recovery/dependency_vector.h"
#include "rpc/message.h"

namespace msplog {

/// The reply of the latest request, buffered so it can be resent if lost
/// (§3.1).
struct BufferedReply {
  bool valid = false;
  uint64_t seqno = 0;
  ReplyCode code = ReplyCode::kOk;
  Bytes payload;
};

/// Client-side state of an outgoing session this session started with
/// another MSP (§2.1, Fig. 3).
struct OutgoingSessionState {
  std::string target;      ///< target MSP id
  std::string session_id;  ///< deterministic id of the session at the target
  uint64_t next_seqno = 1; ///< next available request sequence number
};

class Session {
 public:
  Session(std::string id, std::string client, SimDisk* disk,
          const std::string& pos_file)
      : id(std::move(id)),
        client(std::move(client)),
        positions(disk, pos_file) {}

  // ---- identity ----
  const std::string id;
  std::string client;  ///< endpoint that owns this session

  // ---- business state (reconstructed by replay) ----
  std::map<std::string, Bytes> vars;  ///< session variables (not logged)

  // ---- recovery bookkeeping ----
  DependencyVector dv;       ///< per-session DV (§3.2), includes self entry
  /// `dv` as the owner thread last published it, for the MSP-wide DV of the
  /// per_session_dv = false ablation. Guarded by Msp::wide_dv_mu_.
  mutable DependencyVector published_dv;
  /// Auditor shadow of `dv` as of the last request boundary (or replay
  /// end). The dv-monotonic invariant check compares against it on the next
  /// request: outside recovery, a DV may only grow (audit/invariants.h).
  DependencyVector audit_shadow_dv;
  uint64_t state_number = 0; ///< LSN of this session's most recent log record
  /// first_lsn / last_checkpoint_lsn are read by the fuzzy MSP checkpoint
  /// without owning the session, hence atomic. The two checkpoint-staleness
  /// counters below are atomic for the same reason: the owner thread resets
  /// them at a session checkpoint while TakeMspCheckpoint (holding only the
  /// session-table mutex, not session ownership) increments and reads them.
  std::atomic<uint64_t> first_lsn{0};          ///< LSN of kSessionStart
  std::atomic<uint64_t> last_checkpoint_lsn{0};  ///< 0 = never checkpointed
  std::atomic<uint64_t> bytes_logged_since_cp{0};
  std::atomic<uint32_t> msp_cps_since_cp{0};
  PositionStream positions;

  // ---- message bookkeeping (§3.1) ----
  uint64_t next_expected_seqno = 1;
  BufferedReply buffered_reply;
  std::map<std::string, OutgoingSessionState> outgoing;  ///< by target MSP

  // ---- scheduling state (guarded by the MSP's session-table mutex) ----
  /// A request plus the model time it entered the queue, so the worker can
  /// attribute queue-wait separately from execute time.
  struct QueuedRequest {
    Message msg;
    double enqueue_model_ms = 0;
    /// Server-side request span, allocated at enqueue with the message's
    /// wire parent; every later lifecycle event of this request carries it.
    obs::SpanContext span;
  };
  std::deque<QueuedRequest> pending_requests;
  bool worker_active = false;
  bool recovering = false;
  /// Set while a replay (background drain, on-demand admission, or lazy
  /// orphan recovery) owns this session, cleared together with `recovering`
  /// at replay end. Distinguishes "waiting for replay" (a new request may
  /// claim it on demand) from "replay in progress" (just queue behind it).
  bool replay_claimed = false;
  bool needs_orphan_check = false;
  /// Set by the MSP checkpoint when this session's checkpoint is stale
  /// (§3.4 forced checkpoints); honored by the session worker.
  bool needs_checkpoint = false;
  bool ended = false;

  /// Orphan cuts (§4.1 EOS records) applied to this session since it was
  /// (re)created. Mutated only by the thread currently replaying the
  /// session; the outage join reads its own replay's delta to classify the
  /// session's fate as "orphaned" vs cleanly "replayed".
  uint64_t orphan_cuts = 0;

  // ---- telemetry (obs/session_stats.h) ----
  /// Relaxed-atomic counters; safe to Snap() from any thread. Volatile by
  /// design: a crash recreates the Session, so recovered sessions restart
  /// their telemetry (replays are counted on the fresh record).
  obs::SessionStats stats;
  /// Nested calls made by the request currently executing; owner-thread
  /// only, folded into stats.OnRequestFanout at the request boundary.
  uint64_t calls_in_request = 0;

  /// The outgoing session this session keeps with MSP `target`, created on
  /// first use. Its id is deterministic, `<self_msp>/<session>><target>`, so
  /// replay after a crash re-creates the same outgoing session and the
  /// server-side session and its seqnos keep working.
  OutgoingSessionState& OutgoingTo(const std::string& self_msp,
                                   const std::string& target) {
    OutgoingSessionState& o = outgoing[target];
    if (o.session_id.empty()) {
      o.target = target;
      o.session_id = self_msp + "/" + id + ">" + target;
      o.next_seqno = 1;
    }
    return o;
  }

  // ---- hot-path encode caches (owner-thread only, like `dv` itself) ----
  /// Wire encoding of `dv`, re-encoded only when the DV actually changed
  /// (DependencyVector bumps `version()` on every mutation). Spliced
  /// verbatim into outgoing messages and checkpoints so the hot path never
  /// copies the DV map or re-encodes an unchanged vector.
  const Bytes& CachedDvWire() const {
    if (dv_wire_version_ != dv.version()) {
      dv_wire_.clear();
      BinaryWriter w(&dv_wire_);
      dv.EncodeTo(&w);
      dv_wire_version_ = dv.version();
    }
    return dv_wire_;
  }

  /// Batch DV piggybacking (log side): consecutive log records of this
  /// session that carry an identical DV share one encoding. Keyed by value
  /// (not version) because record DVs often come from merged peers, not
  /// from `dv` itself.
  struct LoggedDvCache {
    bool valid = false;
    DependencyVector value;
    Bytes wire;
  };
  LoggedDvCache logged_dv_cache;

  /// Serialize the checkpointable state (§3.2: session variables, buffered
  /// reply, next expected request seqno, outgoing sessions' next available
  /// seqnos — plus the DV, which is safe to persist because a distributed
  /// flush precedes every session checkpoint).
  Bytes EncodeCheckpoint() const {
    BinaryWriter w;
    w.PutRaw(CachedDvWire());
    w.PutVarint(state_number);
    w.PutVarint(next_expected_seqno);
    w.PutU8(buffered_reply.valid ? 1 : 0);
    w.PutVarint(buffered_reply.seqno);
    w.PutU8(static_cast<uint8_t>(buffered_reply.code));
    w.PutBytes(buffered_reply.payload);
    w.PutVarint(vars.size());
    for (const auto& [k, v] : vars) {
      w.PutBytes(k);
      w.PutBytes(v);
    }
    w.PutVarint(outgoing.size());
    for (const auto& [target, o] : outgoing) {
      w.PutBytes(target);
      w.PutBytes(o.session_id);
      w.PutVarint(o.next_seqno);
    }
    return w.Take();
  }

  /// Restore the checkpointable state from a blob produced by
  /// EncodeCheckpoint.
  Status DecodeCheckpoint(ByteView blob) {
    BinaryReader r(blob);
    MSPLOG_RETURN_IF_ERROR(dv.DecodeFrom(&r));
    MSPLOG_RETURN_IF_ERROR(r.GetVarint(&state_number));
    MSPLOG_RETURN_IF_ERROR(r.GetVarint(&next_expected_seqno));
    uint8_t valid = 0;
    MSPLOG_RETURN_IF_ERROR(r.GetU8(&valid));
    buffered_reply.valid = valid != 0;
    MSPLOG_RETURN_IF_ERROR(r.GetVarint(&buffered_reply.seqno));
    uint8_t code = 0;
    MSPLOG_RETURN_IF_ERROR(r.GetU8(&code));
    buffered_reply.code = static_cast<ReplyCode>(code);
    MSPLOG_RETURN_IF_ERROR(r.GetBytes(&buffered_reply.payload));
    uint64_t nvars = 0;
    MSPLOG_RETURN_IF_ERROR(r.GetVarint(&nvars));
    vars.clear();
    for (uint64_t i = 0; i < nvars; ++i) {
      Bytes k, v;
      MSPLOG_RETURN_IF_ERROR(r.GetBytes(&k));
      MSPLOG_RETURN_IF_ERROR(r.GetBytes(&v));
      vars[k] = std::move(v);
    }
    uint64_t nout = 0;
    MSPLOG_RETURN_IF_ERROR(r.GetVarint(&nout));
    outgoing.clear();
    for (uint64_t i = 0; i < nout; ++i) {
      OutgoingSessionState o;
      Bytes target;
      MSPLOG_RETURN_IF_ERROR(r.GetBytes(&target));
      MSPLOG_RETURN_IF_ERROR(r.GetBytes(&o.session_id));
      MSPLOG_RETURN_IF_ERROR(r.GetVarint(&o.next_seqno));
      o.target = target;
      outgoing[target] = std::move(o);
    }
    return Status::OK();
  }

 private:
  mutable Bytes dv_wire_;
  mutable uint64_t dv_wire_version_ = 0;  ///< 0 = nothing cached yet
};

}  // namespace msplog
