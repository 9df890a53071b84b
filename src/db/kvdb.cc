#include "audit/mutex.h"
#include "db/kvdb.h"

#include "common/crc32c.h"
#include "common/serde.h"

namespace msplog {

namespace {
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpDelete = 2;
}  // namespace

KvDb::KvDb(SimEnvironment* env, SimDisk* disk, std::string name,
           KvDbOptions options)
    : env_(env),
      disk_(disk),
      wal_file_(name + ".wal"),
      lock_file_(name + ".lock"),
      options_(options) {}

Status KvDb::AppendWal(uint8_t op, const std::string& key, ByteView value) {
  BinaryWriter body;
  body.PutU8(op);
  body.PutBytes(key);
  body.PutBytes(value);
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(body.size()));
  frame.PutU32(crc32c::Mask(crc32c::Compute(body.buffer())));
  frame.PutRaw(body.buffer());
  // Append + implicit flush: the simulated disk makes every write durable
  // and charges the full flush latency, which is the commit cost.
  return disk_->Append(wal_file_, frame.buffer());
}

Status KvDb::Recover() {
  audit::LockGuard lk(mu_);
  table_.clear();
  if (disk_->Exists(wal_file_)) {
    Bytes raw;
    MSPLOG_RETURN_IF_ERROR(
        // Recovery holds the table lock across the WAL read on purpose:
        // the DB must not serve requests from a half-rebuilt table.
        // audit:allow(blocking-under-lock)
        disk_->ReadAt(wal_file_, 0, disk_->FileSize(wal_file_), &raw));
    size_t pos = 0;
    while (pos + 8 <= raw.size()) {
      BinaryReader hr(ByteView(raw).substr(pos, 8));
      uint32_t len = 0, masked = 0;
      (void)hr.GetU32(&len);
      (void)hr.GetU32(&masked);
      if (len == 0 || pos + 8 + len > raw.size()) break;  // torn tail
      ByteView body = ByteView(raw).substr(pos + 8, len);
      if (crc32c::Compute(body) != crc32c::Unmask(masked)) break;
      BinaryReader r(body);
      uint8_t op = 0;
      Bytes key, value;
      if (!r.GetU8(&op).ok() || !r.GetBytes(&key).ok() ||
          !r.GetBytes(&value).ok()) {
        break;
      }
      if (op == kOpPut) {
        table_[key] = value;
      } else if (op == kOpDelete) {
        table_.erase(key);
      } else {
        break;
      }
      pos += 8 + len;
    }
  }
  recovered_ = true;
  return Status::OK();
}

Status KvDb::TxnGet(const std::string& key, Bytes* value) {
  if (options_.durable_read_locks) {
    // Session-state providers write a lock row when fetching: a durable
    // one-sector write that makes read transactions as costly as commits.
    MSPLOG_RETURN_IF_ERROR(disk_->WriteAt(lock_file_, 0, Bytes(16, 'L')));
  }
  audit::LockGuard lk(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return Status::NotFound("key: " + key);
  *value = it->second;
  return Status::OK();
}

Status KvDb::TxnPut(const std::string& key, ByteView value) {
  MSPLOG_RETURN_IF_ERROR(AppendWal(kOpPut, key, value));
  audit::LockGuard lk(mu_);
  table_[key] = Bytes(value);
  return Status::OK();
}

Status KvDb::TxnDelete(const std::string& key) {
  MSPLOG_RETURN_IF_ERROR(AppendWal(kOpDelete, key, ""));
  audit::LockGuard lk(mu_);
  table_.erase(key);
  return Status::OK();
}

size_t KvDb::KeyCount() const {
  audit::LockGuard lk(mu_);
  return table_.size();
}

}  // namespace msplog
