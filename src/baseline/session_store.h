// SessionStore — where a §5 baseline MSP keeps session state between
// requests: it loads a session's checkpointable state
// (Session::EncodeCheckpoint) before each request and saves it after.
//
//   KvDbSessionStore         "Psession": a local WAL-backed database; a
//                            durable read and a durable write per request.
//   StateServerSessionStore  "StateServer" (state_server.h): a remote
//                            in-memory state server; two round trips per
//                            request, no durability.
//
// NoLog has no store, so a crash loses every session; the log-based Msp has
// none either, its sessions recover from the log. Msp::Start is the one
// place that picks the store from MspConfig::mode.
#pragma once

#include <string>

#include "common/status.h"
#include "db/kvdb.h"
#include "msp/session.h"

namespace msplog {

class SessionStore {
 public:
  virtual ~SessionStore() = default;

  /// Restore `s` from the store. `*found` is false when the store holds
  /// nothing for `s` (its first request, or the store lost it).
  virtual Status Load(Session* s, bool* found) = 0;
  /// Persist `s`'s checkpointable state.
  virtual Status Save(Session* s) = 0;
};

class KvDbSessionStore : public SessionStore {
 public:
  KvDbSessionStore(SimEnvironment* env, SimDisk* disk, std::string name)
      : db_(env, disk, std::move(name)) {}

  /// Rebuild the database from its WAL; call once before Load/Save.
  Status Recover() { return db_.Recover(); }

  Status Load(Session* s, bool* found) override {
    *found = false;
    Bytes blob;
    Status st = db_.TxnGet("session/" + s->id, &blob);
    if (st.IsNotFound()) return Status::OK();
    MSPLOG_RETURN_IF_ERROR(st);
    MSPLOG_RETURN_IF_ERROR(s->DecodeCheckpoint(blob));
    *found = true;
    return Status::OK();
  }
  Status Save(Session* s) override {
    return db_.TxnPut("session/" + s->id, s->EncodeCheckpoint());
  }

 private:
  KvDb db_;  ///< internally locked
};

}  // namespace msplog
