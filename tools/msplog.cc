// msplog — offline forensics for an exported MSP log image: one walk with
// the scanner crash recovery uses (so it accepts exactly what recovery
// would) re-checks the image's structural invariants and, given a frozen
// flight-recorder bundle, re-derives the fate of every session in flight
// at the crash from the log alone.
//
//   msplog [--records] [--checkpoints] [--stats] [--json] [--self-check]
//          [--archive-manifest FILE] [--bundle FILE [--report FILE]] IMAGE
//
// --self-check fails on any invariant violation (a mid-log tear included);
// --report cross-checks the log-derived fates against a live OutageReport.
// Exit status: 0 clean, 1 a requested check failed, 2 bad usage or input.
// Flag reference: docs/OBSERVABILITY.md §4.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "msp/log_inspect.h"
#include "obs/json.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace {

using msplog::obs::JsonValue;
using Kind = JsonValue::Kind;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--records] [--checkpoints] [--stats] [--json] "
               "[--self-check] [--archive-manifest FILE] "
               "[--bundle FILE [--report FILE]] <log-image-file>\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "msplog: cannot open %s\n", path.c_str());
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return true;
}

bool ReadJsonObject(const std::string& path, JsonValue* out) {
  std::string text;
  if (!ReadFile(path, &text)) return false;
  msplog::Status st = msplog::obs::ParseJson(text, out);
  if (!st.ok() || out->kind != Kind::kObject) {
    std::fprintf(stderr, "msplog: %s is not a JSON object: %s\n",
                 path.c_str(), st.ok() ? "wrong kind" : st.ToString().c_str());
    return false;
  }
  return true;
}

/// Lift the crashed actor's durability frontier and in-flight sessions out
/// of a frozen bundle.
bool LoadCrashFacts(const std::string& path, msplog::CrashFacts* facts) {
  JsonValue bundle;
  if (!ReadJsonObject(path, &bundle)) return false;
  const JsonValue* frozen = bundle.Get("frozen");
  const JsonValue* actor = bundle.Get("actor");
  const JsonValue* snapshots = bundle.Get("snapshots");
  if (!frozen || !frozen->boolean || !actor || actor->kind != Kind::kString ||
      !snapshots) {
    std::fprintf(stderr, "msplog: %s is not a frozen bundle\n", path.c_str());
    return false;
  }
  for (const JsonValue& snap : snapshots->array) {
    const JsonValue* who = snap.Get("actor");
    const JsonValue* durable = snap.Get("log_durable_lsn");
    const JsonValue* inflight = snap.Get("inflight_sessions");
    if (!who || who->str != actor->str) continue;
    if (!durable || durable->kind != Kind::kNumber || !inflight) break;
    facts->durable_at_crash = static_cast<uint64_t>(durable->number);
    for (const JsonValue& id : inflight->array) {
      facts->inflight_sessions.push_back(id.str);
    }
    return true;
  }
  std::fprintf(stderr, "msplog: bundle has no usable snapshot for actor %s\n",
               actor->str.c_str());
  return false;
}

/// Overlay each "<base-lsn> <segment-file>" manifest entry at its original
/// byte offset ('#' starts a comment; relative paths resolve against the
/// manifest's directory). Archiving only moves bytes strictly below the
/// reclamation watermark, so a segment reaching past the live image's end
/// can only come from a mismatched manifest — warn, then let the walk
/// surface the damage as violations.
bool OverlayArchive(const std::string& manifest_path, uint64_t image_size,
                    msplog::SimDisk* disk, const std::string& file,
                    uint64_t* segments) {
  std::string manifest;
  if (!ReadFile(manifest_path, &manifest)) return false;
  const size_t slash = manifest_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : manifest_path.substr(0, slash + 1);
  std::istringstream lines(manifest);
  std::string line;
  while (std::getline(lines, line)) {
    line.resize(std::min(line.size(), line.find('#')));
    std::istringstream ls(line);
    uint64_t base = 0;
    std::string path;
    if (!(ls >> base >> path)) continue;  // blank / comment-only line
    if (path[0] != '/') path = dir + path;
    std::string bytes;
    if (!ReadFile(path, &bytes)) return false;
    if (base + bytes.size() > image_size) {
      std::fprintf(stderr,
                   "msplog: warning: archive segment %s [%llu, %llu) reaches "
                   "past the live image end %llu\n",
                   path.c_str(), (unsigned long long)base,
                   (unsigned long long)(base + bytes.size()),
                   (unsigned long long)image_size);
    }
    msplog::Status st = disk->WriteAt(file, base, bytes);
    if (!st.ok()) {
      std::fprintf(stderr, "msplog: overlay failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    ++*segments;
  }
  return true;
}

/// The live recovery join must agree with the log: every live fate matches
/// the log-derived one, and the live report covers every in-flight session.
int CrossCheck(const std::string& path,
               const msplog::LogInspectReport& report) {
  JsonValue live;
  if (!ReadJsonObject(path, &live)) return 2;
  if (report.mid_log_tear) {
    std::fprintf(stderr,
                 "cross-check FAILED: mid-log tear at lsn %llu hides the "
                 "log behind it; no fate can be derived\n",
                 (unsigned long long)report.torn_tail_lsn);
    return 1;
  }
  const JsonValue* sessions = live.Get("sessions");
  if (!sessions || sessions->kind != Kind::kArray) {
    std::fprintf(stderr, "msplog: %s has no sessions array\n", path.c_str());
    return 2;
  }
  int mismatches = 0;
  size_t compared = 0;
  for (const JsonValue& s : sessions->array) {
    const JsonValue* id = s.Get("session");
    const JsonValue* fate = s.Get("fate");
    if (!id || !fate) continue;
    const auto* mine = report.FindFate(id->str);
    if (mine) ++compared;
    if (!mine || fate->str != mine->fate) {
      std::fprintf(stderr, "MISMATCH session %s: live=%s log-derived=%s\n",
                   id->str.c_str(), fate->str.c_str(),
                   mine ? mine->fate.c_str() : "(not in the bundle)");
      ++mismatches;
    }
  }
  if (compared != report.fates.size()) {
    std::fprintf(stderr,
                 "MISMATCH: live report covers %zu of %zu in-flight "
                 "sessions\n",
                 compared, report.fates.size());
    ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "cross-check FAILED: %d mismatch(es)\n", mismatches);
    return 1;
  }
  std::printf("cross-check OK: %zu session fate(s) agree with the log\n",
              compared);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  msplog::LogInspectOptions opts;
  bool json = false;
  bool self_check = false;
  std::string manifest_path, bundle_path, report_path, path;
  const std::map<std::string, bool*> switches = {
      {"--records", &opts.dump_records},
      {"--checkpoints", &opts.dump_checkpoints},
      {"--stats", &opts.collect_session_stats},
      {"--json", &json},
      {"--self-check", &self_check}};
  const std::map<std::string, std::string*> values = {
      {"--archive-manifest", &manifest_path},
      {"--bundle", &bundle_path},
      {"--report", &report_path}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (switches.count(arg)) {
      *switches.at(arg) = true;
    } else if (values.count(arg) && i + 1 < argc) {
      *values.at(arg) = argv[++i];
    } else if (arg[0] == '-' || !path.empty()) {
      return Usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (path.empty() || (!report_path.empty() && bundle_path.empty())) {
    return Usage(argv[0]);
  }

  if (!bundle_path.empty() &&
      !LoadCrashFacts(bundle_path, &opts.crash.emplace())) {
    return 2;
  }
  std::string image;
  if (!ReadFile(path, &image)) return 2;

  // Offline: time scale 0 and no latency charging — contents only.
  msplog::SimEnvironment env(/*time_scale=*/0.0);
  msplog::SimDisk disk(&env, "msplog");
  disk.set_charge_latency(false);
  const std::string file = "image.log";
  msplog::Status st = disk.WriteAt(file, 0, image);
  if (!st.ok()) {
    std::fprintf(stderr, "msplog: load failed: %s\n", st.ToString().c_str());
    return 2;
  }
  uint64_t archive_segments = 0;
  if (!manifest_path.empty() &&
      !OverlayArchive(manifest_path, image.size(), &disk, file,
                      &archive_segments)) {
    return 2;
  }

  msplog::LogInspectReport report;
  std::string dump;
  st = msplog::InspectLogImage(&disk, file, opts, &report, &dump);
  if (!st.ok()) {
    std::fprintf(stderr, "msplog: %s\n", st.ToString().c_str());
    return 2;
  }
  report.archive_segments = archive_segments;

  std::fputs(dump.c_str(), stdout);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::fputs(report.Summary().c_str(), stdout);
  }

  int rc = 0;
  if (self_check) {
    if (report.records == 0) {
      std::fprintf(stderr, "msplog: self-check FAILED: no records\n");
      rc = 1;
    } else if (!report.invariant_violations.empty()) {
      std::fprintf(stderr,
                   "msplog: self-check FAILED: %zu invariant violation(s)\n",
                   report.invariant_violations.size());
      rc = 1;
    } else {
      std::printf("self-check OK: %llu records, %llu archive segment(s), "
                  "0 violations\n",
                  static_cast<unsigned long long>(report.records),
                  static_cast<unsigned long long>(report.archive_segments));
    }
  }
  if (!report_path.empty()) rc = std::max(rc, CrossCheck(report_path, report));
  return rc;
}
