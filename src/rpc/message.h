// Wire message model (§2.1, §3.1). Requests and replies carry a request
// sequence number for duplicate / out-of-order detection; messages sent
// within a service domain additionally carry the sender session's DV.
// Control messages implement the distributed log flush and the recovery
// broadcast.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/status.h"
#include "recovery/dependency_vector.h"

namespace msplog {

enum class MessageType : uint8_t {
  kInvalid = 0,
  kRequest = 1,
  kReply = 2,
  /// Ask a peer to flush its log **up to** `flush_sn` of epoch `epoch` —
  /// an ARIES-style "flush up to LSN" bound, not a point request: one leg
  /// of a distributed log flush (§3.1) whose completion also covers every
  /// coalesced leg with a smaller state number of the same epoch. Built
  /// exclusively by the flush aggregator (msp/flush_aggregator.h), which
  /// group-commits concurrent legs per peer.
  kFlushRequest = 3,
  kFlushReply = 4,
  /// Broadcast after crash recovery: "I ended epoch `rec_epoch` recovered
  /// to state number `rec_sn`" (§4).
  kRecoveryAnnounce = 5,
};

enum class ReplyCode : uint8_t {
  kOk = 0,
  /// Server is checkpointing or recovering; client sleeps and resends (§5.4).
  kBusy = 1,
  /// Application method returned an error.
  kAppError = 2,
  /// Extension beyond Fig. 7's silent discard: the request carried an
  /// orphan dependency; rec_epoch/rec_sn report the recovered state number
  /// that proves it, so a sender that missed the recovery broadcast can
  /// still learn it is an orphan (liveness under lost broadcasts).
  kOrphanNotice = 3,
};

struct Message {
  MessageType type = MessageType::kInvalid;
  /// Logical sender id (matches the network endpoint name).
  std::string sender;
  /// Service session this request/reply belongs to.
  std::string session_id;
  uint64_t seqno = 0;
  /// kRequest: service method name.
  std::string method;
  Bytes payload;
  /// Attached sender-session DV (only within a service domain).
  bool has_dv = false;
  DependencyVector dv;

  /// Causal-tracing context, carried next to the DV: the client-rooted
  /// trace this message belongs to and the sender-side span that caused it.
  /// Zero = untraced. Receivers allocate their own span with this parent;
  /// replies echo the request's ids back. Decode ignores extra trailing
  /// bytes, so a frame from a newer encoder that appends fields at the tail
  /// stays readable.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  ReplyCode reply_code = ReplyCode::kOk;

  /// kFlushRequest / kFlushReply
  uint64_t flush_id = 0;
  uint32_t epoch = 0;       ///< epoch the flush_sn belongs to
  uint64_t flush_sn = 0;
  bool flush_ok = false;

  /// kRecoveryAnnounce (also piggybacked on failed flush replies)
  uint32_t rec_epoch = 0;   ///< the epoch that just ended
  uint64_t rec_sn = 0;      ///< recovered state number for that epoch

  /// Exact wire size AppendTo will produce. When `dv_wire` is non-null it
  /// stands in for the encoded DV: the sender attaches a pre-encoded DV
  /// (typically the session's version-keyed cache) without copying the
  /// DependencyVector into the message at all — `has_dv` must be true and
  /// `dv_wire` must be the encoding of the DV the sender intends to attach.
  size_t EncodedSize(const Bytes* dv_wire = nullptr) const;

  /// Encode directly onto the tail of `wire` (reserving exactly the bytes
  /// needed). Zero-copy send path: the wire buffer handed to the network is
  /// built in place, no intermediate Bytes. Output is byte-for-byte what
  /// Encode() produces.
  void AppendTo(Bytes* wire, const Bytes* dv_wire = nullptr) const;

  Bytes Encode() const;
  static Status Decode(ByteView wire, Message* out);

  /// A kRequest from `sender` for `method`, request `seqno` of `session_id`.
  static Message Request(std::string sender, std::string session_id,
                         uint64_t seqno, std::string method,
                         Bytes payload = {}) {
    Message m = Reply(std::move(sender), std::move(session_id), seqno,
                      ReplyCode::kOk, std::move(payload));
    m.type = MessageType::kRequest;
    m.method = std::move(method);
    return m;
  }
  /// A kReply from `sender` to request `seqno` of `session_id`.
  static Message Reply(std::string sender, std::string session_id,
                       uint64_t seqno, ReplyCode code, Bytes payload = {}) {
    Message m;
    m.type = MessageType::kReply;
    m.sender = std::move(sender);
    m.session_id = std::move(session_id);
    m.seqno = seqno;
    m.reply_code = code;
    m.payload = std::move(payload);
    return m;
  }
};

}  // namespace msplog
