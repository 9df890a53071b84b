#include "obs/flight_recorder.h"

#include <cstdio>

#include "obs/metrics.h"  // JsonEscape

namespace msplog {
namespace obs {

namespace {

/// Guards FreezeOnViolation against reentry: a snapshot provider that trips
/// another invariant while being captured must not freeze recursively.
thread_local bool tls_in_violation_freeze = false;

std::string FmtMs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::string FlightBundle::ToJson() const {
  std::string out = "{";
  out += "\"frozen\":" + std::string(frozen ? "true" : "false") + ",";
  out += "\"generation\":" + std::to_string(generation) + ",";
  out += "\"actor\":\"" + JsonEscape(actor) + "\",";
  out += "\"trigger\":\"" + JsonEscape(trigger) + "\",";
  out += "\"detail\":\"" + JsonEscape(detail) + "\",";
  out += "\"held_locks\":\"" + JsonEscape(held_locks) + "\",";
  out += "\"frozen_at_ms\":" + FmtMs(frozen_at_ms) + ",";
  out += "\"events_dropped\":" + std::to_string(events_dropped) + ",";
  out += "\"events\":" + TraceEventsJson(events) + ",";
  out += "\"snapshots\":[";
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const auto& [who, snap] = snapshots[i];
    if (i) out += ",";
    out += "{\"actor\":\"" + JsonEscape(who) + "\",";
    out += "\"log_end_lsn\":" + std::to_string(snap.log_end_lsn) + ",";
    out += "\"log_durable_lsn\":" + std::to_string(snap.log_durable_lsn) + ",";
    out += "\"log_reclaimed_lsn\":" + std::to_string(snap.log_reclaimed_lsn) +
           ",";
    out += "\"log_archived_lsn\":" + std::to_string(snap.log_archived_lsn) +
           ",";
    out += "\"inflight_sessions\":[";
    for (size_t j = 0; j < snap.inflight_sessions.size(); ++j) {
      if (j) out += ",";
      out += "\"" + JsonEscape(snap.inflight_sessions[j]) + "\"";
    }
    out += "],";
    // statusz is itself JSON — embed it raw so consumers get one tree.
    out += "\"statusz\":" +
           (snap.statusz_json.empty() ? std::string("null")
                                      : snap.statusz_json);
    out += "}";
  }
  out += "]}";
  return out;
}

FlightRecorder::FlightRecorder(EventTracer* tracer,
                               std::function<double()> now_ms)
    : tracer_(tracer), now_ms_(std::move(now_ms)) {}

void FlightRecorder::set_held_locks_dump(std::function<std::string()> dump) {
  audit::LockGuard lk(mu_);
  held_locks_dump_ = std::move(dump);
}

void FlightRecorder::SetSnapshotProvider(const std::string& actor,
                                         SnapshotProvider p) {
  audit::LockGuard lk(mu_);
  providers_[actor] = std::move(p);
}

void FlightRecorder::ClearSnapshotProvider(const std::string& actor) {
  audit::LockGuard lk(mu_);
  providers_.erase(actor);
}

FlightBundle FlightRecorder::Freeze(
    FlightBundle b,
    const std::vector<std::pair<std::string, SnapshotProvider>>& providers) {
  // Only the copies and the retention below take mu_: providers take server
  // locks (statusz, session table) and must never nest under it.
  std::function<std::string()> locks_dump;
  {
    audit::LockGuard lk(mu_);
    locks_dump = held_locks_dump_;
  }
  b.frozen = true;
  b.frozen_at_ms = now_ms_();
  b.events = tracer_->Events(kFrozenEvents);
  b.events_dropped = tracer_->dropped();
  if (locks_dump) b.held_locks = locks_dump();
  for (const auto& [who, provider] : providers) {
    b.snapshots.emplace_back(who, provider());
  }
  audit::LockGuard lk(mu_);
  bundles_.push_back(b);
  ++frozen_total_;
  while (bundles_.size() > kMaxBundles) bundles_.pop_front();
  return b;
}

FlightBundle FlightRecorder::FreezeOnCrash(const std::string& actor,
                                           uint64_t generation,
                                           const std::string& detail) {
  std::vector<std::pair<std::string, SnapshotProvider>> providers;
  {
    audit::LockGuard lk(mu_);
    auto it = providers_.find(actor);
    if (it != providers_.end()) providers.emplace_back(actor, it->second);
  }
  FlightBundle b;
  b.generation = generation;
  b.actor = actor;
  b.trigger = "crash";
  b.detail = detail;
  return Freeze(std::move(b), providers);
}

void FlightRecorder::FreezeOnViolation(const std::string& invariant,
                                       const std::string& detail) {
  if (tls_in_violation_freeze) return;
  tls_in_violation_freeze = true;
  tracer_->Record(TraceEventType::kInvariant, now_ms_(), invariant, "", 0,
                  detail);
  std::vector<std::pair<std::string, SnapshotProvider>> providers;
  {
    audit::LockGuard lk(mu_);
    providers.assign(providers_.begin(), providers_.end());
  }
  FlightBundle b;
  b.trigger = "invariant:" + invariant;
  b.detail = detail;
  Freeze(std::move(b), providers);
  tls_in_violation_freeze = false;
}

std::vector<FlightBundle> FlightRecorder::Bundles() const {
  audit::LockGuard lk(mu_);
  return std::vector<FlightBundle>(bundles_.begin(), bundles_.end());
}

FlightBundle FlightRecorder::LatestBundleFor(const std::string& actor) const {
  audit::LockGuard lk(mu_);
  for (auto it = bundles_.rbegin(); it != bundles_.rend(); ++it) {
    if (it->actor == actor) return *it;
  }
  return FlightBundle{};
}

uint64_t FlightRecorder::frozen_count() const {
  audit::LockGuard lk(mu_);
  return frozen_total_;
}

std::string FlightRecorder::DumpJson() const {
  std::string out = "{\"bundles\":[";
  bool first = true;
  for (const FlightBundle& b : Bundles()) {
    if (!first) out += ",";
    first = false;
    out += b.ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace msplog
