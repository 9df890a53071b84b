// Phased crash recovery (§4.3, instant-restart variant): a log-based
// Msp::Start runs the analysis and open phases before it accepts traffic,
// then starts the background drain.
#include "msp/recovery_coordinator.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "audit/invariants.h"
#include "audit/mutex.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/msp_checkpoint_format.h"

namespace msplog {

Status RecoveryCoordinator::RunAnalysis() {
  Msp* m = msp_;
  const double t0 = m->env_->NowModelMs();
  m->env_->tracer().Record(obs::TraceEventType::kRecoveryStart, t0,
                           m->config_.id);
  const std::string log_file = m->config_.id + ".log";

  // Epoch handling: bump and persist the epoch BEFORE anything else, so a
  // crash during recovery can never reuse a failure-free period identifier.
  AnchorData ad;
  Status ast = m->anchor_.Read(&ad);
  if (ast.ok()) {
    msp_cp_lsn_ = ad.msp_checkpoint_lsn;
    old_epoch_ = ad.epoch;
  } else if (!ast.IsNotFound()) {
    return ast;
  }
  m->epoch_.store(old_epoch_ + 1);
  MSPLOG_RETURN_IF_ERROR(m->anchor_.Write({msp_cp_lsn_, m->epoch_.load()}));

  {
    audit::LockGuard lk(m->timeline_mu_);
    // The previous recovery's timeline moves into the bounded history
    // before this one takes the "last" slot.
    if (m->last_recovery_timeline_.epoch != 0) {
      m->recovery_history_.push_back(std::move(m->last_recovery_timeline_));
      while (m->recovery_history_.size() > Msp::kRecoveryHistoryLimit) {
        m->recovery_history_.pop_front();
      }
    }
    m->last_recovery_timeline_ = obs::RecoveryTimeline();
    m->last_recovery_timeline_.epoch = m->epoch_.load();
    m->last_recovery_timeline_.started_model_ms = t0;
    m->last_recovery_timeline_.msp_checkpoint_lsn = msp_cp_lsn_;
  }

  // Re-initialize from the most recent MSP checkpoint (Fig. 12).
  uint64_t min_lsn = 0;
  if (msp_cp_lsn_ != 0) {
    LogRecord cp;
    MSPLOG_RETURN_IF_ERROR(m->log_->ReadRecordAt(msp_cp_lsn_, &cp));
    if (cp.type != LogRecordType::kMspCheckpoint) {
      return Status::Corruption("anchor does not point at an MSP checkpoint");
    }
    MspCheckpointData data;
    MSPLOG_RETURN_IF_ERROR(data.Decode(cp.payload));
    {
      audit::LockGuard lk(m->table_mu_);
      m->recovered_table_.Merge(data.table);
    }
    audit::LockGuard lk(m->sessions_mu_);
    for (const auto& e : data.sessions) {
      auto s = m->NewSession(e.id, e.client);
      s->last_checkpoint_lsn.store(e.last_checkpoint_lsn);
      s->first_lsn.store(e.first_lsn);
      s->recovering = true;
      m->sessions_[e.id] = s;
    }
    for (const auto& e : data.vars) {
      auto v = m->GetOrCreateSharedVar(e.name);
      v->last_checkpoint_lsn = e.last_checkpoint_lsn;
    }
    min_lsn = data.MinRecoveryLsn(msp_cp_lsn_);
  }

  // Single-threaded analysis scan (§4.3): reconstruct position streams,
  // roll shared variables forward, rebuild recovered-state knowledge. The
  // scan is bounded by the checkpoint's minimum recovery position and the
  // durable extent — nothing is replayed here; sessions become servable
  // one by one afterwards (on demand or via the background drain).
  const uint64_t durable = m->disk_->FileSize(log_file);
  std::map<std::string, std::vector<uint64_t>> positions;
  {
    audit::LockGuard lk(m->sessions_mu_);
    for (auto& [id, s] : m->sessions_) positions[id];  // seed known sessions
  }

  auto ensure_session =
      [&](const std::string& id,
          const std::string& client) -> std::shared_ptr<Session> {
    audit::LockGuard lk(m->sessions_mu_);
    auto it = m->sessions_.find(id);
    if (it != m->sessions_.end()) {
      if (it->second->client.empty() && !client.empty()) {
        it->second->client = client;
      }
      return it->second;
    }
    auto s = m->NewSession(id, client);
    s->recovering = true;
    m->sessions_[id] = s;
    return s;
  };

  uint64_t scanned_records = 0;
  auto image = std::make_shared<LogImage>();
  LogScanner scanner(m->disk_, log_file, min_lsn, durable, image.get());
  while (true) {
    LogRecord rec;
    Status st = scanner.Next(&rec);
    if (st.IsNotFound()) break;
    if (st.IsCorruption()) {
      // A torn last frame is the clean end of the durable log. A valid
      // frame after it is a mid-log tear: replaying only the prefix would
      // silently lose acknowledged requests, so recovery refuses.
      const uint64_t torn = scanner.next_lsn();
      if (uint64_t later = scanner.FirstValidFrameAfter(torn)) {
        const std::string what = "mid-log tear in " + log_file + ": corrupt " +
                                 "frame at lsn " + std::to_string(torn) +
                                 " but a valid frame at " +
                                 std::to_string(later);
        audit::InvariantRegistry::Instance().Note("log.mid-log-tear", what);
        return Status::Corruption(what);
      }
      break;
    }
    MSPLOG_RETURN_IF_ERROR(st);
    ++scanned_records;

    switch (rec.type) {
      case LogRecordType::kSessionStart: {
        auto s = ensure_session(rec.session_id, rec.target);
        s->first_lsn.store(rec.lsn);
        break;
      }
      case LogRecordType::kRequestReceive:
      case LogRecordType::kSharedRead:
      case LogRecordType::kReplyReceive: {
        auto s = ensure_session(rec.session_id, "");
        if (rec.lsn > s->last_checkpoint_lsn.load()) {
          positions[rec.session_id].push_back(rec.lsn);
        }
        break;
      }
      case LogRecordType::kSharedWrite: {
        // Roll forward (§4.3): each write record carries the full value.
        auto v = m->GetOrCreateSharedVar(rec.var_id);
        audit::SharedUniqueLock vlk(v->rw);
        v->RestoreLocked(std::move(rec.payload), rec.dv, rec.lsn);
        break;
      }
      case LogRecordType::kSharedVarCheckpoint: {
        auto v = m->GetOrCreateSharedVar(rec.var_id);
        audit::SharedUniqueLock vlk(v->rw);
        v->RestoreLocked(std::move(rec.payload), DependencyVector(), rec.lsn);
        v->last_checkpoint_lsn = rec.lsn;
        break;
      }
      case LogRecordType::kSessionCheckpoint: {
        auto s = ensure_session(rec.session_id, "");
        s->last_checkpoint_lsn.store(rec.lsn);
        positions[rec.session_id].clear();
        break;
      }
      case LogRecordType::kSessionEnd: {
        audit::LockGuard lk(m->sessions_mu_);
        auto sit = m->sessions_.find(rec.session_id);
        if (sit != m->sessions_.end()) {
          m->queued_requests_.fetch_sub(sit->second->pending_requests.size(),
                                        std::memory_order_relaxed);
          m->sessions_.erase(sit);
        }
        positions.erase(rec.session_id);
        break;
      }
      case LogRecordType::kRecoveredState: {
        audit::LockGuard lk(m->table_mu_);
        m->recovered_table_.Record(rec.peer, rec.peer_epoch,
                                   rec.peer_recovered_sn);
        break;
      }
      case LogRecordType::kEos: {
        // §4.3: records from the orphan record through the EOS are skipped
        // by any subsequent recovery of this session.
        auto it = positions.find(rec.session_id);
        if (it != positions.end()) {
          auto& ps = it->second;
          ps.erase(std::remove_if(ps.begin(), ps.end(),
                                  [&](uint64_t p) {
                                    return p >= rec.prev_lsn && p <= rec.lsn;
                                  }),
                   ps.end());
        }
        break;
      }
      case LogRecordType::kMspCheckpoint:
        break;  // the newest one already initialized us
      default:
        break;
    }
  }

  // The recovered state number for the epoch that just ended: the largest
  // LSN that can still belong to a durable record. `durable` is the
  // EXCLUSIVE end of the durable extent — a record whose frame starts at
  // exactly `durable` was lost, so the boundary itself counts as not
  // recovered.
  const uint64_t recovered_sn = durable > 0 ? durable - 1 : 0;
  {
    audit::LockGuard lk(m->table_mu_);
    m->recovered_table_.Record(m->config_.id, old_epoch_, recovered_sn);
  }

  // Hand the reconstructed position streams to the sessions.
  std::vector<std::string> surviving_ids;
  {
    audit::LockGuard lk(m->sessions_mu_);
    for (auto& [id, s] : m->sessions_) {
      auto it = positions.find(id);
      if (it != positions.end()) {
        s->positions.ReplaceAll(std::move(it->second));
      }
      s->recovering = true;
      surviving_ids.push_back(id);
    }
    sessions_to_recover_ = m->sessions_.size();
  }

  // Outage observatory join (flight recorder × analysis scan): the frozen
  // pre-crash bundle names the sessions that were in flight at the crash;
  // the scan just established which of them left any durable trace. A
  // bundle session absent from the rebuilt table was never logged — its
  // client sees a fresh session, servable once the server reopens. The
  // rest start "pending" and are resolved by their replay.
  {
    obs::FlightBundle bundle =
        m->env_->flight_recorder().LatestBundleFor(m->config_.id);
    audit::LockGuard lk(m->timeline_mu_);
    if (bundle.frozen && bundle.generation == m->crash_generation_.load() &&
        bundle.generation > m->outage_joined_generation_) {
      m->outage_joined_generation_ = bundle.generation;
      m->last_outage_report_ = obs::OutageReport();
      m->last_outage_report_.valid = true;
      m->last_outage_report_.generation = bundle.generation;
      m->last_outage_report_.epoch = m->epoch_.load();
      m->last_outage_report_.crash_model_ms = bundle.frozen_at_ms;
      m->last_outage_report_.recovery_start_ms = t0;
      for (const auto& [who, snap] : bundle.snapshots) {
        if (who != m->config_.id) continue;
        for (const std::string& id : snap.inflight_sessions) {
          obs::OutageReport::SessionFate f;
          f.session_id = id;
          f.was_in_flight = true;
          if (std::find(surviving_ids.begin(), surviving_ids.end(), id) ==
              surviving_ids.end()) {
            f.fate = "never-logged";
          }
          m->last_outage_report_.sessions.push_back(std::move(f));
        }
      }
    }
  }

  // Analysis phase (§4.3) ends here: the single-threaded scan is done and
  // every session knows its replay positions. What follows — broadcast and
  // the fresh MSP checkpoint — is attributed separately in the timeline.
  const double scan_end_ms = m->env_->NowModelMs();
  m->env_->tracer().Record(obs::TraceEventType::kAnalysisScanEnd, scan_end_ms,
                           m->config_.id, /*session=*/"", /*seqno=*/0,
                           "records=" + std::to_string(scanned_records));
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.analysis_scan_ms = scan_end_ms - t0;
    m->last_recovery_timeline_.analysis_records_scanned = scanned_records;
    m->last_recovery_timeline_.analysis_bytes_scanned =
        durable > min_lsn ? durable - min_lsn : 0;
    m->last_recovery_timeline_.sessions_to_recover = sessions_to_recover_;
    m->last_recovery_timeline_.scan_start_lsn = min_lsn;
    m->last_recovery_timeline_.scan_end_lsn = durable;
    m->last_recovery_timeline_.analysis_disk_reads =
        scanner.read_stats().disk_reads;
    m->last_recovery_timeline_.image_bytes = image->bytes();
  }
  audit::LockGuard lk(image_mu_);
  image_ = std::move(image);
  return Status::OK();
}

std::shared_ptr<const LogImage> RecoveryCoordinator::image() const {
  audit::LockGuard lk(image_mu_);
  return image_;
}

void RecoveryCoordinator::DropImage() {
  std::shared_ptr<const LogImage> dropped;
  audit::LockGuard lk(image_mu_);
  dropped.swap(image_);
}

Status RecoveryCoordinator::PrepareOpen() {
  Msp* m = msp_;
  // Broadcast the recovery message within the service domain (§4.3). The
  // full own history is included so peers recovering concurrently (or that
  // lost an unflushed kRecoveredState record) still converge.
  std::vector<std::pair<uint32_t, uint64_t>> own_history;
  {
    audit::LockGuard lk(m->table_mu_);
    for (const auto& [key, sn] : m->recovered_table_.entries()) {
      if (key.first == m->config_.id) own_history.push_back({key.second, sn});
    }
  }
  for (const auto& peer : m->directory_->PeersOf(m->config_.id)) {
    for (const auto& [e, sn] : own_history) {
      Message msg;
      msg.type = MessageType::kRecoveryAnnounce;
      msg.sender = m->config_.id;
      msg.rec_epoch = e;
      msg.rec_sn = sn;
      m->network_->Send(m->config_.id, peer, msg.Encode());
    }
  }

  // Fresh MSP checkpoint so the next crash starts from here (Fig. 12).
  // Unit forcing is skipped: peers cannot be flushed to before our
  // dispatcher runs.
  const double cp_t0 = m->env_->NowModelMs();
  MSPLOG_RETURN_IF_ERROR(m->TakeMspCheckpoint(/*force_units=*/false));

  const double end_ms = m->env_->NowModelMs();
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.post_scan_checkpoint_ms = end_ms - cp_t0;
  }
  m->env_->tracer().Record(obs::TraceEventType::kRecoveryEnd, end_ms,
                           m->config_.id, /*session=*/"", /*seqno=*/0,
                           "sessions=" + std::to_string(sessions_to_recover_));
  return Status::OK();
}

void RecoveryCoordinator::BeginBackgroundDrain() {
  Msp* m = msp_;
  const double now = m->env_->NowModelMs();
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.open_for_traffic_ms =
        now - m->last_recovery_timeline_.started_model_ms;
    // Never-logged sessions have no replay to resolve them: they become
    // servable (as brand-new sessions) the moment the server reopens.
    if (m->last_outage_report_.valid) {
      for (auto& f : m->last_outage_report_.sessions) {
        if (f.fate == "never-logged" && f.servable_at_ms == 0) {
          f.servable_at_ms = now;
          f.time_to_servable_ms = now - m->last_outage_report_.crash_model_ms;
        }
      }
      m->last_outage_report_.Finalize();
    }
  }

  // Priority order: smallest replay work-list first (shortest-job-first —
  // maximizes the rate at which sessions become servable), ties by id for
  // determinism. On-demand admissions override this order naturally.
  struct Entry {
    size_t work;
    std::string id;
  };
  std::vector<Entry> entries;
  {
    audit::LockGuard lk(m->sessions_mu_);
    for (auto& [id, s] : m->sessions_) {
      if (s->recovering && !s->replay_claimed) {
        entries.push_back({s->positions.size(), id});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.work != b.work ? a.work < b.work : a.id < b.id;
  });
  size_t pumps;
  {
    audit::LockGuard lk(queue_mu_);
    for (auto& e : entries) drain_queue_.push_back(std::move(e.id));
    // sequential_recovery is the ablation that replays one session at a
    // time; otherwise drain with the pool's full parallelism (§4.3).
    pumps = m->config_.sequential_recovery
                ? (drain_queue_.empty() ? 0 : 1)
                : std::min(drain_queue_.size(), m->pool_->num_threads());
  }
  if (pumps == 0) DropImage();  // nothing to replay
  for (size_t i = 0; i < pumps; ++i) {
    m->pool_->Submit([this] { DrainStep(); });
  }
}

void RecoveryCoordinator::DrainStep() {
  Msp* m = msp_;
  std::shared_ptr<Session> target;
  while (!target) {
    std::string id;
    {
      audit::LockGuard lk(queue_mu_);
      if (!drain_queue_.empty()) {
        id = std::move(drain_queue_.front());
        drain_queue_.pop_front();
      }
    }
    if (id.empty()) {
      DropImage();
      return;
    }
    audit::LockGuard lk(m->sessions_mu_);
    auto it = m->sessions_.find(id);
    // Sessions already claimed (on-demand admission or lazy orphan
    // recovery) or already done are simply skipped.
    if (it != m->sessions_.end() && it->second->recovering &&
        !it->second->replay_claimed) {
      target = it->second;
    }
  }
  m->SessionRecoveryTask(target);
  bool more;
  {
    audit::LockGuard lk(queue_mu_);
    more = !drain_queue_.empty();
  }
  // Resubmit instead of looping: yielding the pool thread between sessions
  // bounds how long an on-demand replay queued behind the drain waits.
  // Replays still running hold their own reference to the image.
  if (more) {
    m->pool_->Submit([this] { DrainStep(); });
  } else {
    DropImage();
  }
}

}  // namespace msplog
