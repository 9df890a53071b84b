// The §5 "StateServer" baseline: session states are kept in memory at a
// state server on a different computer. Cheap (two light network round trips
// per request per MSP) but not durable: if the state server crashes, every
// session state is gone — exactly the weakness the paper contrasts with
// log-based recovery.
//
//   StateServerNode          the server process;
//   StateServerSessionStore  the MSP side, a SessionStore (session_store.h).
//
// Protocol (over SimNetwork, reusing the rpc::Message frame); this module is
// the only one that knows it:
//   method "__ss_get": payload = session key
//                      reply   = [u8 found][blob]
//   method "__ss_put": payload = PutBytes(key) PutBytes(blob)
//                      reply   = empty
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "audit/mutex.h"
#include "baseline/session_store.h"
#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {

class StateServerNode {
 public:
  StateServerNode(SimEnvironment* env, SimNetwork* network, std::string name);
  ~StateServerNode();

  Status Start();
  /// Abrupt failure: the in-memory session states are lost.
  void Crash();

  const std::string& name() const { return name_; }
  size_t StoredSessions() const;

 private:
  void Loop();

  SimEnvironment* env_;
  SimNetwork* network_;
  std::string name_;
  std::shared_ptr<Mailbox> mailbox_;
  std::thread thread_;
  /// Touched only by the driver thread (Start/Crash/dtor); Loop() never
  /// reads it, so it needs no lock.
  bool running_ = false;

  mutable audit::Mutex mu_{"state_server"};
  std::map<std::string, Bytes> store_ GUARDED_BY(mu_);
};

class StateServerSessionStore : public SessionStore {
 public:
  /// Sends `req` to `dest` and awaits its reply (the MSP's resending call
  /// path, so the reply arrives through the MSP's own mailbox).
  using RoundTrip = std::function<Status(const std::string& dest,
                                         const Message& req, Message* reply)>;

  StateServerSessionStore(std::string msp_id, std::string server,
                          RoundTrip round_trip)
      : msp_id_(std::move(msp_id)),
        server_(std::move(server)),
        round_trip_(std::move(round_trip)) {}

  Status Load(Session* s, bool* found) override;
  Status Save(Session* s) override;

 private:
  /// One state-server RPC for session `s`.
  Status Call(const Session* s, const char* method, Bytes payload,
              Message* reply);

  const std::string msp_id_;
  const std::string server_;
  const RoundTrip round_trip_;
  /// Sequence numbers of the RPCs. Deliberately volatile: the store is
  /// rebuilt by every Start, and the state server does no duplicate
  /// detection, so a restart from 1 is harmless.
  std::atomic<uint64_t> next_rpc_seqno_{1};
};

}  // namespace msplog
