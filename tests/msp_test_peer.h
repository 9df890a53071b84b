// MspTestPeer — test-only introspection and fault injection for Msp. Msp
// befriends this class, so its public API carries no test hooks.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "msp/msp.h"

namespace msplog {

class MspTestPeer {
 public:
  static StatusOr<Bytes> PeekSessionVar(const Msp& m, const std::string& id,
                                        const std::string& var) {
    auto s = Quiesced(m, id);
    if (!s) return Status::NotFound("no session " + id);
    auto it = s->vars.find(var);
    if (it == s->vars.end()) return Status::NotFound("no var " + var);
    return it->second;
  }
  static StatusOr<uint64_t> PeekNextExpectedSeqno(const Msp& m,
                                                  const std::string& id) {
    auto s = Quiesced(m, id);
    if (!s) return Status::NotFound("no session " + id);
    return s->next_expected_seqno;
  }
  static std::vector<uint64_t> PeekPositionStream(const Msp& m,
                                                  const std::string& id) {
    auto s = Quiesced(m, id);
    return s ? s->positions.All() : std::vector<uint64_t>{};
  }
  static bool HasSession(const Msp& m, const std::string& id) {
    return m.GetSession(id) != nullptr;
  }
  static size_t SessionCount(const Msp& m) {
    audit::LockGuard lk(m.sessions_mu_);
    return m.sessions_.size();
  }
  /// Unsettled distributed-flush legs (joined to flights + queued); 0 after
  /// a crash proves no leaked flush state.
  static size_t PendingFlushLegs(const Msp& m) {
    return m.flush_agg_->WaiterCountForTest();
  }
  /// In-flight coalesced flush requests (one per open flight).
  static size_t InFlightFlushes(const Msp& m) {
    return m.flush_agg_->InFlightForTest();
  }
  /// Silently lower session `id`'s own DV entry, simulating a bug that drops
  /// a dependency: the dv-monotonic check must trip on its next request.
  static void InjectDvRegression(Msp& m, const std::string& id) {
    auto s = Quiesced(m, id);
    if (!s) return;
    std::optional<StateId> self = s->dv.Get(m.config_.id);
    if (!self || self->sn == 0) return;
    s->dv.Set(m.config_.id, StateId{self->epoch, self->sn - 1});
  }

 private:
  /// Session `id` once no worker or replay owns it. Both flags are cleared
  /// under the session-table mutex, so seeing them false orders the owner
  /// thread's writes before the caller's reads.
  static std::shared_ptr<Session> Quiesced(const Msp& m,
                                           const std::string& id) {
    auto s = m.GetSession(id);
    while (s) {
      {
        audit::LockGuard lk(m.sessions_mu_);
        if (!s->worker_active && !s->recovering && s->pending_requests.empty())
          return s;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return nullptr;
  }
};

}  // namespace msplog
