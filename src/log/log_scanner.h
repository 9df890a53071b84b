// LogScanner — the single-threaded analysis scan of crash recovery (§4.3).
// Reads the durable log sequentially in 64 KB chunks aligned to 64 KB (the
// paper notes that 128-sector recovery reads are larger and therefore more
// efficient than the small blocks written by individual flushes), skipping
// sector padding and stopping cleanly at the durable end or at a corrupt
// frame. Crash recovery passes a LogImage to keep the chunks it reads, so
// replay can take its frames from them (log_image.h).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "log/log_image.h"
#include "log/log_record.h"
#include "sim/sim_disk.h"

namespace msplog {

class LogScanner {
 public:
  /// Scan `file` on `disk` starting at `start_lsn`. Only data below
  /// `durable_size` (typically the file size at recovery time) is visible.
  /// Every chunk read from disk is also handed to `keep` when it is set.
  LogScanner(SimDisk* disk, std::string file, uint64_t start_lsn,
             uint64_t durable_size, LogImage* keep = nullptr);

  /// Advance to the next record. Returns:
  ///   OK         — `*out` holds the record (lsn set);
  ///   NotFound   — clean end of log;
  ///   Corruption — damaged record (scan cannot continue past it).
  Status Next(LogRecord* out);

  /// LSN one past the last successfully returned record's frame; after a
  /// Corruption, the LSN of the damaged frame.
  uint64_t next_lsn() const { return pos_; }

  /// The tear rule shared by recovery and the offline inspector: the first
  /// sector boundary after `torn_lsn` that holds a frame which parses and
  /// decodes as a record, or 0 when there is none. A corrupt last frame is
  /// a clean end of the durable log; a valid frame after it means the scan
  /// stopped mid-log and would silently lose everything behind it.
  uint64_t FirstValidFrameAfter(uint64_t torn_lsn);

  const LogReadStats& read_stats() const { return reader_.stats(); }

 private:
  uint64_t NextSector(uint64_t pos) const {
    return (pos / sector_bytes_ + 1) * sector_bytes_;
  }

  std::string file_;
  LogReader reader_;
  uint64_t pos_;
  uint32_t sector_bytes_;
  /// End offset of the last frame Next() returned; the auditor checks the
  /// scan never yields a record below it (log-scan-monotonic).
  uint64_t last_returned_end_ = 0;
};

}  // namespace msplog
