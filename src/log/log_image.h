// LogImage and LogReader — the durable-log read path of crash recovery
// (§4.3, §5.4: "one disk read can serve many records").
//
// The analysis scan reads the durable log in 64 KB chunks aligned to
// 64 KB. A LogImage keeps those chunks, indexed by offset / kChunkBytes,
// up to the compile-time bound kMaxBytes. Once the scan is done the image
// is frozen (shared as `shared_ptr<const LogImage>`) and every per-session
// replay of that recovery takes its frames from it, so replay issues no
// disk reads of its own even when a session's records are spread across
// the whole log. The image lives for one recovery: the coordinator drops it
// when its drain empties or the MSP crashes, and the next Start() builds a
// fresh one from disk.
//
// LogReader is the chunked read path the scan and every replay share. It
// takes each chunk a frame spans from the image when the image holds it, and
// from disk otherwise (a log bigger than the bound, a lookup outside the
// recovery that built the image, no image at all), keeping the last chunk
// it read so neighbouring frames share one read. A frame that straddles a
// chunk edge is put together from both chunks. The analysis scan is a
// LogReader that hands every chunk it reads to the image under
// construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "log/log_record.h"
#include "sim/sim_disk.h"

namespace msplog {

class LogImage {
 public:
  static constexpr uint64_t kChunkBytes = 64 * 1024;
  /// Byte bound of one recovery's image; chunks past it are not kept and
  /// replay reads them from disk.
  static constexpr uint64_t kMaxBytes = 32ull << 20;

  using Chunk = std::shared_ptr<const Bytes>;

  /// Chunk `index` (log bytes from index * kChunkBytes on), or null. The
  /// last chunk of the scanned extent may be shorter than kChunkBytes.
  Chunk Find(uint64_t index) const {
    auto it = chunks_.find(index);
    return it == chunks_.end() ? nullptr : it->second;
  }

  /// Keep `chunk` as chunk `index` unless that would pass kMaxBytes.
  /// Only the builder calls this, before the image is shared.
  void Keep(uint64_t index, Chunk chunk);

  uint64_t bytes() const { return bytes_; }

 private:
  std::map<uint64_t, Chunk> chunks_;
  uint64_t bytes_ = 0;
};

/// What one LogReader cost: the disk reads it issued and the frames it
/// served from the image without touching the disk.
struct LogReadStats {
  uint64_t disk_reads = 0;
  uint64_t disk_bytes = 0;
  uint64_t image_frames = 0;
};

class LogReader {
 public:
  /// Read frames of `file` on `disk`. Only bytes below `limit` are visible
  /// (UINT64_MAX: everything the file holds at read time). `image`, when
  /// set, serves every chunk it holds; `keep`, when set, receives every
  /// chunk read from disk (the image under construction).
  LogReader(SimDisk* disk, std::string file, uint64_t limit,
            std::shared_ptr<const LogImage> image = nullptr,
            LogImage* keep = nullptr);

  /// Parse the frame that starts at `lsn`. Returns OK with `*body` (valid
  /// until the next call) and `*frame_len`; NotFound for a zero length
  /// prefix (padding); Corruption for a truncated or CRC-failing frame.
  Status Frame(uint64_t lsn, ByteView* body, size_t* frame_len);

  /// Decode the record whose frame starts at `lsn`; padding is Corruption.
  Status ReadRecordAt(uint64_t lsn, LogRecord* out);

  uint64_t limit() const { return limit_; }
  const LogReadStats& stats() const { return stats_; }

 private:
  /// Contiguous view of [pos, pos + n), shorter when the visible log ends
  /// first. Spans of several chunks are copied into scratch_.
  Status View(uint64_t pos, uint64_t n, ByteView* out);
  /// The chunk `index`, covering at least up to `need_end` unless the
  /// visible log ends first.
  Status FetchChunk(uint64_t index, uint64_t need_end, LogImage::Chunk* out);

  SimDisk* disk_;
  std::string file_;
  uint64_t limit_;
  std::shared_ptr<const LogImage> image_;
  LogImage* keep_;
  LogImage::Chunk last_;  ///< last chunk read from disk
  uint64_t last_index_ = 0;
  Bytes scratch_;
  bool frame_from_image_ = false;
  LogReadStats stats_;
};

}  // namespace msplog
