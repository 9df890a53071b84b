#include "obs/recovery_timeline.h"

#include <cstdio>

#include "obs/metrics.h"  // JsonEscape

namespace msplog {
namespace obs {

std::string RecoveryTimeline::ToJson() const {
  char buf[832];
  snprintf(buf, sizeof(buf),
           "{\"epoch\":%u,\"started_ms\":%.6g,\"analysis_scan_ms\":%.6g,"
           "\"analysis_records_scanned\":%llu,\"analysis_bytes_scanned\":%llu,"
           "\"post_scan_checkpoint_ms\":%.6g,\"open_for_traffic_ms\":%.6g,"
           "\"sessions_to_recover\":%llu,"
           "\"max_parallel_replays\":%u,\"orphan_events\":%llu,"
           "\"on_demand_replays\":%llu,"
           "\"analysis_disk_reads\":%llu,\"image_bytes\":%llu,"
           "\"replay_disk_reads\":%llu,\"replay_disk_bytes\":%llu,"
           "\"replay_image_frames\":%llu,"
           "\"total_replay_ms\":%.6g,\"msp_checkpoint_lsn\":%llu,"
           "\"scan_start_lsn\":%llu,\"scan_end_lsn\":%llu,"
           "\"session_replays\":[",
           epoch, started_model_ms, analysis_scan_ms,
           static_cast<unsigned long long>(analysis_records_scanned),
           static_cast<unsigned long long>(analysis_bytes_scanned),
           post_scan_checkpoint_ms, open_for_traffic_ms,
           static_cast<unsigned long long>(sessions_to_recover),
           max_parallel_replays, static_cast<unsigned long long>(orphan_events),
           static_cast<unsigned long long>(on_demand_replays),
           static_cast<unsigned long long>(analysis_disk_reads),
           static_cast<unsigned long long>(image_bytes),
           static_cast<unsigned long long>(replay_disk_reads),
           static_cast<unsigned long long>(replay_disk_bytes),
           static_cast<unsigned long long>(replay_image_frames),
           TotalReplayMs(), static_cast<unsigned long long>(msp_checkpoint_lsn),
           static_cast<unsigned long long>(scan_start_lsn),
           static_cast<unsigned long long>(scan_end_lsn));
  std::string out = buf;
  bool first = true;
  for (const auto& r : session_replays) {
    if (!first) out += ",";
    first = false;
    snprintf(buf, sizeof(buf),
             "\"replay_ms\":%.6g,\"requests_replayed\":%llu,\"rounds\":%u,"
             "\"from_crash\":%s,\"converged\":%s}",
             r.replay_ms, static_cast<unsigned long long>(r.requests_replayed),
             r.rounds, r.from_crash ? "true" : "false",
             r.converged ? "true" : "false");
    out += "{\"session\":\"" + JsonEscape(r.session_id) + "\"," + buf;
  }
  out += "],\"provenance\":[";
  first = true;
  for (const auto& p : provenance) {
    if (!first) out += ",";
    first = false;
    snprintf(buf, sizeof(buf),
             "\"session_checkpoint_lsn\":%llu,\"msp_checkpoint_lsn\":%llu,"
             "\"log_records_consumed\":%llu,\"records\":[",
             static_cast<unsigned long long>(p.session_checkpoint_lsn),
             static_cast<unsigned long long>(p.msp_checkpoint_lsn),
             static_cast<unsigned long long>(p.log_records_consumed));
    out += "{\"session\":\"" + JsonEscape(p.session_id) + "\"," + buf;
    bool rfirst = true;
    for (const auto& rr : p.records) {
      if (!rfirst) out += ",";
      rfirst = false;
      snprintf(buf, sizeof(buf), "{\"epoch\":%u,\"seqno\":%llu,\"lsn\":%llu}",
               rr.epoch, static_cast<unsigned long long>(rr.seqno),
               static_cast<unsigned long long>(rr.lsn));
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace msplog
