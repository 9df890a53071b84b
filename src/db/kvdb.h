// KvDb — a small write-ahead-logged transactional key/value store.
//
// This is the local DBMS substrate behind the paper's `Psession` baseline
// (§5.2): the web server keeps session state in a database, paying one read
// transaction and one write transaction per request per MSP. Commits are
// durable (WAL append + flush). Read transactions also pay a durable
// lock-record write, mirroring commercial session-state providers that
// update lock columns on fetch — this is what makes a Psession read
// transaction roughly as expensive as a write transaction, as the paper's
// measured 48.6 ms response time implies.
//
// KvDb is also usable on its own (see examples/) and is fully recoverable:
// Recover() rebuilds the memtable from the WAL, tolerating a torn tail.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/status.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {

struct KvDbOptions {
  /// Charge a durable lock-record write on TxnGet (ASP.NET-provider-style).
  bool durable_read_locks = true;
};

class KvDb {
 public:
  KvDb(SimEnvironment* env, SimDisk* disk, std::string name,
       KvDbOptions options = KvDbOptions());

  /// Rebuild the memtable from the WAL. Idempotent. A corrupt tail is
  /// truncated (torn final write), not an error.
  Status Recover();

  /// Read transaction. NotFound if the key is absent.
  Status TxnGet(const std::string& key, Bytes* value);

  /// Write transaction: durable on return.
  Status TxnPut(const std::string& key, ByteView value);

  /// Delete transaction: durable on return. Deleting a missing key is OK.
  Status TxnDelete(const std::string& key);

  size_t KeyCount() const;

 private:
  Status AppendWal(uint8_t op, const std::string& key, ByteView value);

  SimEnvironment* env_;
  SimDisk* disk_;
  std::string wal_file_;
  std::string lock_file_;
  KvDbOptions options_;

  mutable audit::Mutex mu_{"kvdb"};
  std::map<std::string, Bytes> table_ GUARDED_BY(mu_);
  bool recovered_ GUARDED_BY(mu_) = false;
};

}  // namespace msplog
