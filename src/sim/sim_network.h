// SimNetwork — in-process unreliable messaging between named endpoints.
//
// Models the paper's networking assumptions (§2.1): communication is
// unreliable (messages may be lost, duplicated, or arrive out of order) and
// has a configurable one-way latency plus a 100 Mbps bandwidth term. Crashed
// processes unregister their endpoint; messages addressed to them vanish,
// exactly like packets sent to a dead host.
//
// Latencies are model milliseconds realized through SimEnvironment. With
// time_scale = 0 delivery is immediate (but drop/duplicate faults still
// apply), so unit tests of the retry logic run instantly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/mpsc_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/sim_env.h"

namespace msplog {

/// A message as it appears on the wire: opaque encoded bytes plus addressing.
struct Packet {
  std::string from;
  std::string to;
  Bytes wire;
};

/// Per-endpoint receive queue. Closed when the endpoint unregisters.
///
/// Hot-path shape: Push lands on a lock-free MPSC ring (the delivery thread
/// and every immediate-delivery sender are producers), so handing a packet
/// to an endpoint never contends with the consumer. The consumer (the
/// endpoint's receive loop) spins through TryPop and parks on an
/// eventcount-style sleep only when empty; producers pay a fence + relaxed
/// load to detect a sleeping consumer.
class Mailbox {
 public:
  /// Blocks until a packet arrives or the mailbox closes.
  /// Returns false when closed and drained.
  bool Pop(Packet* out);

  /// Blocks up to `timeout_real_ms`; returns false on timeout or close.
  bool PopWithTimeout(Packet* out, int64_t timeout_real_ms);

  void Push(Packet p);
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  size_t size() const { return queue_.depth(); }

 private:
  MpscQueue<Packet> queue_{256, "mailbox.overflow"};
  std::atomic<bool> closed_{false};
  std::atomic<int> sleepers_{0};
  mutable audit::Mutex mu_{"mailbox"};
  audit::CondVar cv_;
};

/// Probabilistic fault injection for a link (directed).
struct FaultPlan {
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  /// Extra uniform delay in [0, reorder_jitter_ms) per message; with nonzero
  /// jitter, messages can overtake one another.
  double reorder_jitter_ms = 0.0;
};

class SimNetwork {
 public:
  explicit SimNetwork(SimEnvironment* env, uint64_t seed = 7);
  ~SimNetwork();

  /// Register a named endpoint; returns its mailbox (owned by the network).
  std::shared_ptr<Mailbox> Register(const std::string& name);

  /// Unregister (crash / shutdown): closes the mailbox; in-flight and future
  /// packets to this endpoint are dropped.
  void Unregister(const std::string& name);

  /// Send `wire` from `from` to `to`. Applies link latency, bandwidth and
  /// fault plan. Returns immediately (delivery is asynchronous).
  void Send(const std::string& from, const std::string& to, Bytes wire);

  /// Symmetric one-way latency override for the {a, b} pair.
  void SetLinkLatency(const std::string& a, const std::string& b,
                      double one_way_ms);
  void set_default_one_way_ms(double ms) {
    audit::LockGuard lk(mu_);
    default_one_way_ms_ = ms;
  }
  void set_bandwidth_mbps(double mbps) {
    audit::LockGuard lk(mu_);
    bandwidth_mbps_ = mbps;
  }

  /// Fault plan for the directed link from → to (default: no faults).
  void SetFaults(const std::string& from, const std::string& to,
                 FaultPlan plan);

  /// One-way model latency for a pair including bandwidth for `bytes`.
  double OneWayMs(const std::string& a, const std::string& b,
                  size_t bytes) const;

  void Shutdown();

 private:
  struct Scheduled {
    uint64_t due_real_ns;
    uint64_t seq;  // FIFO tiebreaker
    Packet packet;
    bool operator>(const Scheduled& o) const {
      if (due_real_ns != o.due_real_ns) return due_real_ns > o.due_real_ns;
      return seq > o.seq;
    }
  };

  void DeliveryLoop();
  void Deliver(Packet p) EXCLUDES(mu_);
  const FaultPlan& FaultsFor(const std::string& from,
                             const std::string& to) const REQUIRES(mu_);

  SimEnvironment* env_;
  /// Model one-way delay per delivered message ("net.delivery_ms").
  obs::Histogram* hist_delivery_ms_;

  mutable audit::Mutex mu_{"sim_network"};
  audit::CondVar cv_;
  double default_one_way_ms_ GUARDED_BY(mu_) = 0.0;
  double bandwidth_mbps_ GUARDED_BY(mu_) = 100.0;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::shared_ptr<Mailbox>> endpoints_
      GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, double> link_latency_
      GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, FaultPlan> faults_
      GUARDED_BY(mu_);
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      schedule_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  std::thread delivery_thread_;
};

}  // namespace msplog
