// Observability surfaces of one MSP: the statusz snapshot, per-session
// telemetry and its scraper probes, and the snapshot the flight recorder
// freezes at a crash. Read-only over the server's state; safe from any
// thread.
#include <cstdio>

#include "audit/mutex.h"
#include "msp/msp.h"

namespace msplog {

std::vector<obs::SessionStatsSnapshot> Msp::SessionTelemetry() const {
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> snap;
  {
    audit::LockGuard lk(sessions_mu_);
    snap.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) snap.emplace_back(id, s);
  }
  // Snapping outside the table lock: SessionStats is relaxed-atomic, so no
  // session ownership is required (std::map iteration is id-sorted already).
  std::vector<obs::SessionStatsSnapshot> out;
  out.reserve(snap.size());
  for (const auto& [id, s] : snap) out.push_back(s->stats.Snap(id));
  return out;
}

void Msp::RegisterTelemetryProbes(obs::MetricsScraper* scraper) const {
  const std::string p = config_.id + ".";
  scraper->AddProbe(p + "sessions", [this] {
    audit::LockGuard lk(sessions_mu_);
    return static_cast<double>(sessions_.size());
  });
  // Both queue-depth probes read relaxed atomics: the scraper fires every
  // 100ms and must never contend with the request hot path for a mutex.
  scraper->AddProbe(p + "queued_requests", [this] {
    return static_cast<double>(
        queued_requests_.load(std::memory_order_relaxed));
  });
  scraper->AddProbe(p + "pool.queue_depth", [this] {
    audit::LockGuard lk(probe_mu_);
    return probe_pool_ ? static_cast<double>(probe_pool_->queued()) : 0.0;
  });
  // Aggregates over live sessions' relaxed-atomic telemetry; the sessions
  // table lock only pins the session set, never session bodies.
  auto sum = [this](uint64_t (*field)(const Session&)) {
    audit::LockGuard lk(sessions_mu_);
    uint64_t total = 0;
    for (const auto& [id, s] : sessions_) total += field(*s);
    return static_cast<double>(total);
  };
  scraper->AddProbe(p + "telemetry.requests", [sum] {
    return sum([](const Session& s) { return s.stats.requests(); });
  });
  scraper->AddProbe(p + "telemetry.flush_stalls", [sum] {
    return sum([](const Session& s) { return s.stats.flush_stalls(); });
  });
  scraper->AddProbe(p + "crash_generation", [this] {
    return static_cast<double>(crash_generation_.load());
  });
  scraper->AddProbe(p + "uptime_ms", [this] { return UptimeMs(); });
}

double Msp::UptimeMs() const {
  const double up = last_start_end_ms_.load(std::memory_order_relaxed);
  if (up <= 0 || state_.load() != State::kRunning) return 0.0;
  return env_->NowModelMs() - up;
}

obs::FlightSnapshot Msp::BuildFlightSnapshot() const {
  obs::FlightSnapshot snap;
  snap.statusz_json = DumpStatusz();
  {
    audit::LockGuard lk(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      if (!s->ended) snap.inflight_sessions.push_back(id);
    }
  }
  if (log_) {
    const LogExtents x = log_->Extents();  // one consistent snapshot
    snap.log_end_lsn = x.end_lsn;
    snap.log_durable_lsn = x.durable_lsn;
    snap.log_reclaimed_lsn = x.reclaimed_lsn;
    snap.log_archived_lsn = x.archived_lsn;
  }
  return snap;
}

std::string Msp::DumpStatusz() const {
  const char* state_name = "?";
  switch (state_.load()) {
    case State::kStopped: state_name = "stopped"; break;
    case State::kRecovering: state_name = "recovering"; break;
    case State::kRunning: state_name = "running"; break;
    case State::kCrashed: state_name = "crashed"; break;
  }
  std::string out = "{";
  out += "\"id\":\"" + obs::JsonEscape(config_.id) + "\",";
  out += "\"state\":\"" + std::string(state_name) + "\",";
  out += "\"epoch\":" + std::to_string(epoch_.load()) + ",";
  out += "\"model_ms\":" + std::to_string(env_->NowModelMs()) + ",";

  // Session occupancy. Only queue/ownership flags are touched — those are
  // the fields sessions_mu_ actually guards, so this is safe while workers
  // are mutating session bodies.
  {
    uint64_t queued = 0, active = 0, recovering = 0, ended = 0;
    audit::LockGuard lk(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      queued += s->pending_requests.size();
      if (s->worker_active) ++active;
      if (s->recovering) ++recovering;
      if (s->ended) ++ended;
    }
    out += "\"sessions\":{\"count\":" + std::to_string(sessions_.size()) +
           ",\"queued_requests\":" + std::to_string(queued) +
           ",\"active_workers\":" + std::to_string(active) +
           ",\"recovering\":" + std::to_string(recovering) +
           ",\"ended\":" + std::to_string(ended) + "},";
  }

  // Log extents (absent for a baseline MSP or before Start). One Extents()
  // snapshot — the former end/durable/reclaimed triple-read could tear.
  if (log_) {
    const LogExtents x = log_->Extents();
    out += "\"log\":{\"end_lsn\":" + std::to_string(x.end_lsn) +
           ",\"durable_lsn\":" + std::to_string(x.durable_lsn) +
           ",\"reclaimed_lsn\":" + std::to_string(x.reclaimed_lsn) +
           ",\"archived_lsn\":" + std::to_string(x.archived_lsn) +
           "},";
  }

  {
    audit::LockGuard lk(table_mu_);
    out += "\"recovered_table_entries\":" +
           std::to_string(recovered_table_.entries().size()) + ",";
  }
  {
    audit::LockGuard lk(timeline_mu_);
    size_t n = recovery_history_.size() +
               (last_recovery_timeline_.epoch != 0 ? 1 : 0);
    out += "\"recoveries\":" + std::to_string(n) + ",";
    // The last recovery's read path: what its scan read, what it kept as
    // the log image, and what replay read from the image or the disk.
    const obs::RecoveryTimeline& tl = last_recovery_timeline_;
    out += "\"last_recovery_reads\":{\"analysis_disk_reads\":" +
           std::to_string(tl.analysis_disk_reads) +
           ",\"image_bytes\":" + std::to_string(tl.image_bytes) +
           ",\"replay_disk_reads\":" + std::to_string(tl.replay_disk_reads) +
           ",\"replay_disk_bytes\":" + std::to_string(tl.replay_disk_bytes) +
           ",\"replay_image_frames\":" +
           std::to_string(tl.replay_image_frames) + "},";
    out += "\"last_outage_report\":" + last_outage_report_.ToJson() + ",";
  }
  out += "\"crash_generation\":" + std::to_string(crash_generation_.load()) +
         ",";
  {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", UptimeMs());
    out += "\"uptime_since_recovery_ms\":" + std::string(buf) + ",";
  }
  out += "\"requests\":" + std::to_string(ctr_requests_->Value()) + ",";

  // Distributed-flush group commit (shared registry: sums over every MSP in
  // this environment; in-flight/pending legs are this MSP's own).
  {
    obs::MetricsRegistry& m = env_->metrics();
    out += "\"flush\":{";
    for (const std::string name :
         {"legs_requested", "legs_coalesced", "messages_saved",
          "watermark_skips", "requests_sent", "peer_flushes_saved"}) {
      out += "\"" + name + "\":" +
             std::to_string(m.GetCounter("flush." + name)->Value()) + ",";
    }
    out += "\"in_flight\":" + std::to_string(flush_agg_->InFlightForTest()) +
           ",";
    out += "\"pending_legs\":" +
           std::to_string(flush_agg_->WaiterCountForTest()) + ",";
    out += "\"flight_batch\":" +
           obs::SnapshotJson(m.GetHistogram("flush.flight_batch")->Snap());
    out += "},";
  }
  // Per-session telemetry (obs/session_stats.h), id-sorted.
  out += "\"telemetry\":" + obs::SessionTelemetryJson(SessionTelemetry()) + ",";

  out += "\"histograms\":{";
  out += "\"queue_wait_ms\":" + obs::SnapshotJson(hist_queue_wait_ms_->Snap());
  out += ",\"execute_ms\":" + obs::SnapshotJson(hist_execute_ms_->Snap());
  out += ",\"flush_wait_ms\":" + obs::SnapshotJson(hist_flush_wait_ms_->Snap());
  out += ",\"request_ms\":" + obs::SnapshotJson(hist_request_ms_->Snap());
  out += ",\"replay_ms\":" + obs::SnapshotJson(hist_replay_ms_->Snap());
  out += "}}";
  return out;
}

}  // namespace msplog
