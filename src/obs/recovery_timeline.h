// RecoveryTimeline — structured per-phase accounting of one crash recovery
// (§4.3): the single-threaded analysis scan, the post-scan checkpoint, the
// moment the server reopened for traffic (instant restart), and every
// session replay that follows (background drain or on-demand admission
// after a crash, lazy when orphan recovery fires at an interception point).
// This is the sole source of the analysis-scan duration; the old
// Msp::last_recovery_scan_ms shim is gone — read analysis_scan_ms here.
//
// Provenance: alongside the phase durations, the timeline records *what*
// rebuilt each session — the MSP checkpoint the anchor pointed at, the
// session checkpoint replay initialized from, and the (epoch, seqno, LSN)
// of every request-boundary log record the final replay round consumed.
// This is the log-forensic view recovery debugging needs: "session X was
// rebuilt from checkpoint at LSN c by replaying records l1..ln".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msplog {
namespace obs {

struct RecoveryTimeline {
  /// One (epoch, seqno, LSN) log record consumed by a replay. `epoch` is
  /// the epoch under which the replay re-adopted the record into the
  /// session's DV; `lsn` doubles as the paper's state number.
  struct RecordRef {
    uint32_t epoch = 0;
    uint64_t seqno = 0;
    uint64_t lsn = 0;
  };

  /// What rebuilt one session: the checkpoints it initialized from and the
  /// request-boundary records its final replay round consumed. Non-request
  /// records (logged shared reads, reply receives) consumed between requests
  /// are counted in log_records_consumed.
  struct SessionProvenance {
    std::string session_id;
    uint64_t session_checkpoint_lsn = 0;  ///< 0 = replayed from scratch
    uint64_t msp_checkpoint_lsn = 0;      ///< 0 = located by the scan alone
    uint64_t log_records_consumed = 0;    ///< all positions consumed
    std::vector<RecordRef> records;       ///< kRequestReceive records replayed
  };

  /// One completed replay of one session.
  struct SessionReplay {
    std::string session_id;
    double replay_ms = 0;          ///< model ms from replay start to end
    uint64_t requests_replayed = 0;
    uint32_t rounds = 0;           ///< ReplayOnce passes (orphan re-runs > 1)
    bool from_crash = false;       ///< true: §4.3 post-crash parallel replay;
                                   ///< false: §4.1 lazy orphan recovery
    bool converged = true;         ///< false: replay gave up with an error
  };

  uint32_t epoch = 0;              ///< epoch started by this recovery
  double started_model_ms = 0;     ///< NowModelMs at recovery start
  double analysis_scan_ms = 0;     ///< single-threaded log scan (§4.3)
  uint64_t analysis_records_scanned = 0;
  uint64_t analysis_bytes_scanned = 0;  ///< durable log extent scanned
  double post_scan_checkpoint_ms = 0;   ///< fresh MSP checkpoint (Fig. 12)
  /// Model ms from recovery start until the server reopened for traffic
  /// (instant restart: before any session replayed). Sessions become
  /// servable individually afterwards — see OutageReport's per-session
  /// time_to_servable_ms for the client-visible metric.
  double open_for_traffic_ms = 0;
  uint64_t sessions_to_recover = 0;     ///< sessions queued for replay
  std::vector<SessionReplay> session_replays;
  uint32_t max_parallel_replays = 0;    ///< peak concurrent session replays
  uint64_t orphan_events = 0;           ///< orphan detections attributed here
  /// Replays triggered by a live request hitting the admission gate ahead
  /// of the background drain (subset of session_replays).
  uint64_t on_demand_replays = 0;

  // ---- read path (log/log_image.h) ----
  uint64_t analysis_disk_reads = 0;  ///< 64 KB chunk reads of the scan
  uint64_t image_bytes = 0;          ///< scanned bytes kept as the log image
  /// Disk reads replay issued because a frame was outside the image, and
  /// the bytes they returned; 0 when the image covered every replay.
  uint64_t replay_disk_reads = 0;
  uint64_t replay_disk_bytes = 0;
  uint64_t replay_image_frames = 0;  ///< frames replay took from the image

  // ---- provenance ----
  uint64_t msp_checkpoint_lsn = 0;  ///< anchor's MSP checkpoint (0 = none)
  uint64_t scan_start_lsn = 0;      ///< analysis scan start position
  uint64_t scan_end_lsn = 0;        ///< durable extent end at recovery time
  /// Per-session provenance, one entry per session replayed (lazy orphan
  /// recoveries replace their session's entry).
  std::vector<SessionProvenance> provenance;

  /// Sum of per-session replay model ms (parallel replays overlap, so this
  /// can exceed wall model time).
  double TotalReplayMs() const {
    double t = 0;
    for (const auto& r : session_replays) t += r.replay_ms;
    return t;
  }

  std::string ToJson() const;
};

}  // namespace obs
}  // namespace msplog
