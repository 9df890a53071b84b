#include "log/log_scanner.h"

#include <algorithm>

#include "audit/invariants.h"
#include "log/log_file.h"  // kFrameHeaderBytes

namespace msplog {

LogScanner::LogScanner(SimDisk* disk, std::string file, uint64_t start_lsn,
                       uint64_t durable_size, LogImage* keep)
    : file_(std::move(file)),
      reader_(disk, file_, std::min(durable_size, disk->FileSize(file_)),
              /*image=*/nullptr, keep),
      pos_(start_lsn),
      sector_bytes_(disk->geometry().sector_bytes) {}

Status LogScanner::Next(LogRecord* out) {
  while (true) {
    if (sector_bytes_ - pos_ % sector_bytes_ < kFrameHeaderBytes) {
      // Sector-tail rule (log_file.h): no frame starts here.
      pos_ = NextSector(pos_);
    }
    if (pos_ + kFrameHeaderBytes > reader_.limit()) {
      return Status::NotFound("end of log");
    }
    ByteView body;
    size_t frame_len = 0;
    Status st = reader_.Frame(pos_, &body, &frame_len);
    if (st.IsNotFound()) {
      // Padding: skip to the next sector boundary.
      pos_ = NextSector(pos_);
      continue;
    }
    if (st.IsCorruption()) {
      audit::InvariantRegistry::Instance().Note(
          "log.crc-reject",
          file_ + " @" + std::to_string(pos_) + ": " + st.ToString());
    }
    MSPLOG_RETURN_IF_ERROR(st);
    const uint64_t lsn = pos_;
    MSPLOG_RETURN_IF_ERROR(LogRecord::Decode(body, out));
    out->lsn = lsn;
    audit::CheckLsnAdvance("scan " + file_, last_returned_end_, lsn);
    pos_ += frame_len;
    last_returned_end_ = pos_;
    return Status::OK();
  }
}

uint64_t LogScanner::FirstValidFrameAfter(uint64_t torn_lsn) {
  for (uint64_t pos = NextSector(torn_lsn);
       pos + kFrameHeaderBytes <= reader_.limit();
       pos = NextSector(pos)) {
    ByteView body;
    size_t frame_len = 0;
    LogRecord rec;
    if (reader_.Frame(pos, &body, &frame_len).ok() &&
        LogRecord::Decode(body, &rec).ok()) {
      return pos;
    }
  }
  return 0;
}

}  // namespace msplog
