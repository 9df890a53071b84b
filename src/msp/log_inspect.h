// Offline log/checkpoint forensics (§3–§4 artifacts): walk a physical log
// image record by record with the same scanner crash recovery uses, decode
// every checkpoint blob, and re-check the structural invariants the online
// scanner relies on — without booting an MSP. Given the crash facts of a
// frozen flight bundle, the same walk also re-derives the fate of every
// session that was in flight at the crash (the outage post-mortem).
//
// The core is separated from the tools/msplog CLI so tests can inspect a
// live SimDisk directly while CI runs the CLI over an exported image file.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/session_stats.h"
#include "sim/sim_disk.h"

namespace msplog {

/// The pre-crash facts a post-mortem needs, lifted from a frozen
/// FlightBundle (the crashed actor's snapshot therein).
struct CrashFacts {
  /// Durable extent of the log at the instant of the crash: records at
  /// LSN >= this were written by post-crash recovery, not by the dead epoch.
  uint64_t durable_at_crash = 0;
  std::vector<std::string> inflight_sessions;
};

struct LogInspectOptions {
  /// Append one line per record to `dump_text`.
  bool dump_records = false;
  /// Also dump decoded session / MSP checkpoint contents.
  bool dump_checkpoints = false;
  /// Reconstruct per-session record/byte/checkpoint stats from the image,
  /// in the same SessionStatsSnapshot shape the live server reports, so
  /// online telemetry and offline forensics diff cleanly.
  bool collect_session_stats = false;
  /// Classify each in-flight session of these facts from log evidence
  /// alone (LogInspectReport::fates) — never from the live recovery join in
  /// msp_recovery.cc, so the two paths cross-check each other.
  std::optional<CrashFacts> crash;
};

/// What the walk found. `invariant_violations` is the offline re-check of
/// the scanner's structural invariants:
///   * LSNs strictly increase in scan order;
///   * per session, kRequestReceive seqnos never decrease — except inside
///     an EOS-cut range, which recovery made invisible (§4.1);
///   * kSharedWrite backward chains point strictly backward;
///   * kEos points at or before itself;
///   * session checkpoint blobs decode;
///   * MSP checkpoint blobs decode and imply a scan start at or before
///     themselves;
///   * a corrupt frame is the end of the log: no later sector boundary
///     holds a valid frame (otherwise the scan stopped at a mid-log tear);
///   * the first surviving record sits at or before the newest MSP
///     checkpoint's min-recovery LSN — reclamation (hole punch) and
///     archiving both stop strictly below that position, so a first record
///     *beyond* it means a live session's replay prefix was cut.
struct LogInspectReport {
  /// One in-flight session's offline verdict:
  ///   * never-logged — no durable record below `durable_at_crash` mentions
  ///     the session: the crash erased its work from the log;
  ///   * orphaned — a durable trace AND an EOS cut recovery wrote at/after
  ///     the crash point: part of its in-flight work was discarded (§4.1);
  ///   * replayed — a durable trace and no post-crash cut;
  ///   * unknown — the walk stopped at a mid-log tear, so the log behind it
  ///     was never read and no verdict is drawn from the prefix.
  /// The live obs::OutageReport uses the same taxonomy plus "pending".
  struct SessionFate {
    std::string session_id;
    std::string fate;
    uint64_t first_lsn = 0;             ///< earliest record, 0 if none
    uint64_t requests_logged = 0;       ///< kRequestReceive below the crash
    uint64_t eos_cuts_after_crash = 0;  ///< EOS records at/after the crash
  };

  uint64_t records = 0;
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
  uint64_t image_bytes = 0;          ///< durable extent walked
  std::map<std::string, uint64_t> records_by_type;
  std::map<std::string, uint64_t> records_by_session;
  uint64_t session_checkpoints = 0;
  uint64_t shared_var_checkpoints = 0;
  uint64_t msp_checkpoints = 0;
  /// Min-recovery LSN of the newest (last-in-scan-order) decodable MSP
  /// checkpoint; 0 when the image has none. The "no live session cut"
  /// invariant compares first_lsn against this.
  uint64_t newest_msp_checkpoint_min_lsn = 0;
  /// Archive segments overlaid into the image before the walk (set by the
  /// caller — InspectLogImage itself only sees the merged byte image).
  uint64_t archive_segments = 0;
  /// The scan hit a corrupt frame (CRC mismatch / truncated frame) and
  /// stopped there. A torn tail is normal after a crash, so it is reported
  /// separately; when valid frames follow it, it is a mid-log tear and an
  /// invariant violation.
  bool torn_tail = false;
  bool mid_log_tear = false;
  uint64_t torn_tail_lsn = 0;
  std::vector<std::string> invariant_violations;
  /// Post-mortem (set when LogInspectOptions::crash was): one fate per
  /// in-flight session, in the order the facts named them.
  bool post_mortem = false;
  uint64_t durable_at_crash = 0;
  std::vector<SessionFate> fates;
  /// Per-session reconstruction (populated when
  /// LogInspectOptions::collect_session_stats): requests, nested calls
  /// (reply-receive records, by peer), log records/bytes, checkpoints, and
  /// the last DV width seen — the offline subset of the live telemetry.
  std::vector<obs::SessionStatsSnapshot> session_stats;

  const SessionFate* FindFate(const std::string& session_id) const;
  /// Human-readable multi-line summary.
  std::string Summary() const;
  std::string ToJson() const;
};

/// Walk the log image `file` on `disk` from offset 0 through the durable
/// extent, in one LogScanner pass. Returns non-OK only for environmental
/// failures (missing file); corrupt frames and invariant violations are
/// reported in `*report`.
/// `dump_text`, when set, receives the per-record dump per `opts`.
Status InspectLogImage(SimDisk* disk, const std::string& file,
                       const LogInspectOptions& opts, LogInspectReport* report,
                       std::string* dump_text = nullptr);

}  // namespace msplog
