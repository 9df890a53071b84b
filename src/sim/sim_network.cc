#include "audit/mutex.h"
#include "sim/sim_network.h"

#include <algorithm>
#include <chrono>

namespace msplog {

namespace {
// Idle-consumer re-poll bound. The eventcount protocol (sleepers_ counter
// + Push's seq_cst fence) already rules out lost wakeups; the timed
// re-poll is liveness insurance on top.
constexpr auto kMailboxRepoll = std::chrono::milliseconds(50);
}  // namespace

bool Mailbox::Pop(Packet* out) {
  if (queue_.TryPop(out)) return true;
  audit::UniqueLock lk(mu_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    if (queue_.TryPop(out)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (closed_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    cv_.wait_for(lk, kMailboxRepoll);
  }
}

bool Mailbox::PopWithTimeout(Packet* out, int64_t timeout_real_ms) {
  if (queue_.TryPop(out)) return true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_real_ms);
  audit::UniqueLock lk(mu_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    if (queue_.TryPop(out)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (closed_.load(std::memory_order_acquire) || now >= deadline) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    cv_.wait_for(lk, std::min<std::chrono::steady_clock::duration>(
                         deadline - now, kMailboxRepoll));
  }
}

void Mailbox::Push(Packet p) {
  if (closed_.load(std::memory_order_acquire)) return;  // dead host: drop
  queue_.Push(std::move(p));
  // Publish-then-check (Dekker): pairs with the consumer registering in
  // sleepers_ before its re-poll — either it sees our packet or we see it
  // sleeping and wake it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    audit::LockGuard lk(mu_);
    cv_.notify_all();
  }
}

void Mailbox::Close() {
  closed_.store(true, std::memory_order_release);
  // Drop queued packets, matching the dead-host model. A Push racing with
  // Close may leave one packet behind; the consumer either drains it (one
  // extra delivered packet, indistinguishable from delivery-before-crash)
  // or never pops again and it dies with the mailbox.
  Packet dropped;
  while (queue_.TryPop(&dropped)) {
  }
  audit::LockGuard lk(mu_);
  cv_.notify_all();
}

SimNetwork::SimNetwork(SimEnvironment* env, uint64_t seed)
    : env_(env), rng_(seed) {
  hist_delivery_ms_ = env_->metrics().GetHistogram("net.delivery_ms");
  delivery_thread_ = std::thread([this] { DeliveryLoop(); });
}

SimNetwork::~SimNetwork() { Shutdown(); }

void SimNetwork::Shutdown() {
  {
    audit::LockGuard lk(mu_);
    if (stop_) return;
    stop_ = true;
    cv_.notify_all();
  }
  if (delivery_thread_.joinable()) delivery_thread_.join();
  audit::LockGuard lk(mu_);
  for (auto& [name, mb] : endpoints_) mb->Close();
}

std::shared_ptr<Mailbox> SimNetwork::Register(const std::string& name) {
  audit::LockGuard lk(mu_);
  auto mb = std::make_shared<Mailbox>();
  endpoints_[name] = mb;
  return mb;
}

void SimNetwork::Unregister(const std::string& name) {
  audit::LockGuard lk(mu_);
  auto it = endpoints_.find(name);
  if (it != endpoints_.end()) {
    it->second->Close();
    endpoints_.erase(it);
  }
}

const FaultPlan& SimNetwork::FaultsFor(const std::string& from,
                                       const std::string& to) const {
  mu_.AssertHeld();
  auto it = faults_.find({from, to});
  static const FaultPlan kNoFaults{};
  return it == faults_.end() ? kNoFaults : it->second;
}

double SimNetwork::OneWayMs(const std::string& a, const std::string& b,
                            size_t bytes) const {
  audit::LockGuard lk(mu_);
  double latency = default_one_way_ms_;
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = link_latency_.find(key);
  if (it != link_latency_.end()) latency = it->second;
  if (bandwidth_mbps_ > 0) {
    latency += static_cast<double>(bytes) * 8.0 / (bandwidth_mbps_ * 1000.0);
  }
  return latency;
}

void SimNetwork::SetLinkLatency(const std::string& a, const std::string& b,
                                double one_way_ms) {
  audit::LockGuard lk(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  link_latency_[key] = one_way_ms;
}

void SimNetwork::SetFaults(const std::string& from, const std::string& to,
                           FaultPlan plan) {
  audit::LockGuard lk(mu_);
  faults_[{from, to}] = plan;
}

void SimNetwork::Send(const std::string& from, const std::string& to,
                      Bytes wire) {
  env_->stats().messages_sent.fetch_add(1);
  env_->stats().message_bytes.fetch_add(wire.size());

  double delay_ms = OneWayMs(from, to, wire.size());
  int copies = 1;
  {
    audit::LockGuard lk(mu_);
    const FaultPlan& plan = FaultsFor(from, to);
    if (plan.drop_prob > 0 && rng_.Chance(plan.drop_prob)) {
      env_->stats().messages_dropped.fetch_add(1);
      return;
    }
    if (plan.duplicate_prob > 0 && rng_.Chance(plan.duplicate_prob)) {
      env_->stats().messages_duplicated.fetch_add(1);
      copies = 2;
    }
    if (plan.reorder_jitter_ms > 0) {
      delay_ms += rng_.NextDouble() * plan.reorder_jitter_ms;
    }
  }
  hist_delivery_ms_->Record(delay_ms);

  Packet p{from, to, std::move(wire)};
  double scale = env_->time_scale();
  for (int c = 0; c < copies; ++c) {
    Packet copy = (c == copies - 1) ? std::move(p) : p;
    if (scale <= 0.0 || delay_ms <= 0.0) {
      Deliver(std::move(copy));
      continue;
    }
    uint64_t due = env_->ElapsedRealNs() +
                   static_cast<uint64_t>(delay_ms * scale * 1e6);
    audit::LockGuard lk(mu_);
    schedule_.push(Scheduled{due, next_seq_++, std::move(copy)});
    cv_.notify_all();
  }
}

void SimNetwork::Deliver(Packet p) {
  std::shared_ptr<Mailbox> mb;
  {
    audit::LockGuard lk(mu_);
    auto it = endpoints_.find(p.to);
    if (it == endpoints_.end()) return;  // dead host: packet lost
    mb = it->second;
  }
  mb->Push(std::move(p));
}

void SimNetwork::DeliveryLoop() {
  audit::UniqueLock lk(mu_);
  while (!stop_) {
    if (schedule_.empty()) {
      cv_.wait(lk, [&] {
        mu_.AssertHeld();
        return stop_ || !schedule_.empty();
      });
      continue;
    }
    uint64_t now = env_->ElapsedRealNs();
    const Scheduled& top = schedule_.top();
    if (top.due_real_ns <= now) {
      Packet p = top.packet;
      schedule_.pop();
      lk.unlock();
      Deliver(std::move(p));
      lk.lock();
      continue;
    }
    uint64_t wait_ns = top.due_real_ns - now;
    cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
  }
}

}  // namespace msplog
