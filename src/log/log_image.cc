#include "log/log_image.h"

#include <algorithm>

#include "log/log_file.h"  // ParseFrame, kFrameHeaderBytes

namespace msplog {

void LogImage::Keep(uint64_t index, Chunk chunk) {
  const uint64_t n = chunk->size();
  if (bytes_ + n > kMaxBytes) return;
  if (chunks_.emplace(index, std::move(chunk)).second) bytes_ += n;
}

LogReader::LogReader(SimDisk* disk, std::string file, uint64_t limit,
                     std::shared_ptr<const LogImage> image, LogImage* keep)
    : disk_(disk),
      file_(std::move(file)),
      limit_(limit),
      image_(std::move(image)),
      keep_(keep) {}

Status LogReader::FetchChunk(uint64_t index, uint64_t need_end,
                             LogImage::Chunk* out) {
  const uint64_t base = index * LogImage::kChunkBytes;
  const uint64_t want_end =
      std::min({need_end, base + LogImage::kChunkBytes, limit_});
  auto covers = [&](const LogImage::Chunk& c) {
    return c != nullptr && base + c->size() >= want_end;
  };
  if (image_) {
    LogImage::Chunk c = image_->Find(index);
    if (covers(c)) {
      *out = std::move(c);
      return Status::OK();
    }
  }
  frame_from_image_ = false;
  if (last_index_ == index && covers(last_)) {
    *out = last_;
    return Status::OK();
  }
  const uint64_t n = std::min(LogImage::kChunkBytes, limit_ - base);
  auto chunk = std::make_shared<Bytes>();
  MSPLOG_RETURN_IF_ERROR(disk_->ReadAt(file_, base, n, chunk.get()));
  ++stats_.disk_reads;
  stats_.disk_bytes += chunk->size();
  last_ = std::move(chunk);
  last_index_ = index;
  if (keep_) keep_->Keep(index, last_);
  *out = last_;
  return Status::OK();
}

Status LogReader::View(uint64_t pos, uint64_t n, ByteView* out) {
  const uint64_t end = std::min(pos + n, limit_);
  *out = ByteView();
  if (pos >= end) return Status::OK();
  uint64_t index = pos / LogImage::kChunkBytes;
  LogImage::Chunk c;
  MSPLOG_RETURN_IF_ERROR(FetchChunk(index, end, &c));
  const uint64_t base = index * LogImage::kChunkBytes;
  const uint64_t off = pos - base;
  if (off >= c->size()) return Status::OK();
  if (base + c->size() >= end) {
    *out = ByteView(c->data() + off, end - pos);
    return Status::OK();
  }
  // The span leaves this chunk: gather it chunk by chunk.
  scratch_.assign(c->data() + off, c->size() - off);
  while (c->size() == LogImage::kChunkBytes && pos + scratch_.size() < end) {
    ++index;
    MSPLOG_RETURN_IF_ERROR(FetchChunk(index, end, &c));
    const uint64_t take = std::min<uint64_t>(c->size(),
                                             end - pos - scratch_.size());
    scratch_.append(c->data(), take);
  }
  *out = ByteView(scratch_);
  return Status::OK();
}

Status LogReader::Frame(uint64_t lsn, ByteView* body, size_t* frame_len) {
  frame_from_image_ = image_ != nullptr;
  ByteView header;
  MSPLOG_RETURN_IF_ERROR(View(lsn, kFrameHeaderBytes, &header));
  if (header.size() < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  uint64_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint64_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (len == 0) return Status::NotFound("padding");
  // A length reaching past the visible log is a torn frame; rejecting it
  // here keeps a garbage length from gathering the rest of the log.
  if (lsn + kFrameHeaderBytes + len > limit_) {
    return Status::Corruption("truncated frame body");
  }
  ByteView frame;
  MSPLOG_RETURN_IF_ERROR(View(lsn, kFrameHeaderBytes + len, &frame));
  MSPLOG_RETURN_IF_ERROR(ParseFrame(frame, 0, body, frame_len));
  if (frame_from_image_) ++stats_.image_frames;
  return Status::OK();
}

Status LogReader::ReadRecordAt(uint64_t lsn, LogRecord* out) {
  ByteView body;
  size_t frame_len = 0;
  Status st = Frame(lsn, &body, &frame_len);
  if (st.IsNotFound()) return Status::Corruption("LSN points at padding");
  MSPLOG_RETURN_IF_ERROR(st);
  MSPLOG_RETURN_IF_ERROR(LogRecord::Decode(body, out));
  out->lsn = lsn;
  return Status::OK();
}

}  // namespace msplog
