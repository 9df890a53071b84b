// Internal: the ServiceContext implementation and the replay cursor.
//
// The same service-method body runs in two modes:
//   kNormal — operations hit the live world and are value-logged;
//   kReplay — operations are fed from the session's logged records (§4.1):
//             shared reads return logged values, outgoing calls return
//             logged replies, shared writes are skipped.
//
// A replaying context *switches to live execution mid-method* when the next
// logged record is an orphan (§4.1 "Orphan Recovery End": the session skips
// the orphan record and everything after it, writes an EOS record, and
// "continues the action occurring at recovery end") or when the log simply
// ends (§4.3, crash recovery replay of a request whose tail was lost). From
// that point on, every operation of the re-executed method runs for real —
// re-execution seamlessly becomes execution, which is what yields
// exactly-once semantics for the in-flight request.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "log/log_file.h"
#include "log/log_image.h"
#include "log/log_record.h"
#include "msp/msp.h"
#include "msp/service_context.h"
#include "msp/session.h"

namespace msplog {

/// Iterates a session's log records along its position stream. Records
/// still in the volatile buffer are read from memory; durable ones come
/// through one LogReader, which takes them from the recovery's log image
/// when there is one (log_image.h: the analysis scan already read those
/// bytes) and otherwise reads 64 KB chunks from disk, so one disk read can
/// serve many records (§5.4).
class ReplayCursor {
 public:
  ReplayCursor(LogFile* log, std::shared_ptr<const LogImage> image,
               std::vector<uint64_t> positions);

  bool HasNext() const { return idx_ < positions_.size(); }
  /// Read (without consuming) the record at the current position.
  Status Peek(LogRecord* out);
  void Skip();
  /// Number of positions consumed (Skipped) so far — replay provenance.
  size_t consumed() const { return idx_; }

  /// Read the record at any `lsn` through the same path (the session
  /// checkpoint replay starts from).
  Status ReadAt(uint64_t lsn, LogRecord* out);
  const LogReadStats& read_stats() const { return reader_.stats(); }

 private:
  LogFile* log_;
  LogReader reader_;
  std::vector<uint64_t> positions_;
  size_t idx_ = 0;
  bool cached_ = false;
  LogRecord cached_rec_;
};

class ExecContext : public ServiceContext {
 public:
  enum class Mode { kNormal, kReplay };

  ExecContext(Msp* msp, Session* s, Mode mode, uint64_t seqno,
              ReplayCursor* cursor = nullptr, obs::SpanContext span = {})
      : msp_(msp),
        s_(s),
        mode_(mode),
        seqno_(seqno),
        cursor_(cursor),
        span_(span),
        live_(mode == Mode::kNormal) {}

  // ---- ServiceContext ----
  const std::string& session_id() const override { return s_->id; }
  uint64_t request_seqno() const override { return seqno_; }
  bool in_replay() const override { return mode_ == Mode::kReplay && !live_; }

  Bytes GetSessionVar(const std::string& name) override;
  bool HasSessionVar(const std::string& name) const override;
  void SetSessionVar(const std::string& name, ByteView value) override;
  Status ReadShared(const std::string& name, Bytes* out) override;
  Status WriteShared(const std::string& name, ByteView value) override;
  Status UpdateShared(const std::string& name,
                      const std::function<Bytes(const Bytes&)>& fn,
                      Bytes* out) override;
  Status Call(const std::string& target_msp, const std::string& method,
              ByteView arg, Bytes* reply) override;
  void Compute(double model_ms) override;

  /// True once a replaying context has crossed into live execution.
  bool switched_live() const { return mode_ == Mode::kReplay && live_; }

  /// The request span this execution runs under (invalid when untraced).
  const obs::SpanContext& span() const { return span_; }

 private:
  /// Next step of a replaying operation (in_replay() holds):
  ///  - OK with *logged=true and *rec filled: the logged record was consumed
  ///    (Msp::ReplaySessionRecord); the operation takes its outcome from it;
  ///  - OK with *logged=false: the context switched to live execution (the
  ///    log ended, or an orphan record was cut); run the operation normally;
  ///  - Internal: the position stream does not match the re-execution
  ///    (nondeterministic service method).
  Status NextForReplay(LogRecordType expected, const std::string& key,
                       LogRecord* rec, bool* logged);

  Msp* msp_;
  Session* s_;
  Mode mode_;
  uint64_t seqno_;
  ReplayCursor* cursor_;
  obs::SpanContext span_;
  bool live_;
};

}  // namespace msplog
