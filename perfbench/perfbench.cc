// perfbench — the repository benchmark for msplog.
//
//   perfbench --workload <zero_latency|paper_scaled|crash_restart>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//
// Drives the §5.1 Figure 13 setting (end client → MSP1.ServiceMethod1 →
// MSP2.ServiceMethod2, locally optimistic logging) from one process with at
// most four closed-loop client threads, checks every reply, and prints one
// JSON object as its last line of output. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it records benchmark-owned spans around
// the public calls into each layer and reports the per-layer metrics. See
// README.md in this directory for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/invariants.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"
#include "spans.h"

namespace perfbench {
namespace {

using msplog::Bytes;
using msplog::ByteView;
using msplog::CallStats;
using msplog::ClientEndpoint;
using msplog::ClientSession;
using msplog::Msp;
using msplog::MspConfig;
using msplog::ServiceContext;
using msplog::SimEnvironment;
using msplog::Status;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  double time_scale;
  int clients;            ///< closed-loop client threads (≤ nproc)
  size_t pool;            ///< MSP worker threads
  bool checkpoints;       ///< session + MSP checkpoints every 1 MB, daemon on
  bool crash_cycles;      ///< crash_restart shape (vs steady closed loop)
  int sessions;           ///< crash_restart: sessions in MSP1's log
  int requests_per_session;  ///< crash_restart: history length per session
  int hot;                ///< crash_restart: sessions calling right after Start
};

// §5.1 sizes everywhere: 100 B payloads, 128 B shared variables, 8 KB of
// session state written 512 B at a time, m = 1, 0.25 model ms of compute per
// method body. Batch flush off, distributed-flush coalescing on (defaults).
const Workload kWorkloads[] = {
    {"zero_latency", 0.0, 4, 8, true, false, 0, 0, 0},
    {"paper_scaled", 0.1, 4, 8, true, false, 0, 0, 0},
    // bench_recovery_time --instant shape: no checkpoints, so replay covers
    // the whole history; one pool thread, so the drain is strictly serial
    // and on-demand admission has a queue to jump.
    {"crash_restart", 0.1, 4, 1, false, true, 32, 8, 4},
};

constexpr size_t kPayloadBytes = 100;
constexpr size_t kSharedVarBytes = 128;
constexpr size_t kSessionStateBytes = 8192;
constexpr size_t kSessionWriteBytes = 512;
constexpr size_t kSessionSlots = kSessionStateBytes / kSessionWriteBytes;
constexpr double kMethodComputeMs = 0.25;
/// Steady workloads: rounds per run (each on a fresh world) and warm-up
/// calls per client before a round's window opens.
constexpr int kSteadyRounds = 24;
constexpr int kWarmupCalls = 20;
/// Upper bound on waiting for a recovery drain before declaring failure.
constexpr double kDrainTimeoutS = 60.0;

/// One splitmix64 step: a well-mixed 64-bit value derived from `x`.
uint64_t Mix(uint64_t x) { return msplog::Rng(x).Next(); }

void PutU64(Bytes* b, size_t at, uint64_t v) {
  std::memcpy(b->data() + at, &v, sizeof v);
}
uint64_t GetU64(ByteView b, size_t at) {
  uint64_t v = 0;
  if (b.size() >= at + sizeof v) std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

// ---------------------------------------------------------------------------
// Inputs: every byte the program sees is derived from the seed.
//
// A request argument is 100 B: [request id][seed-derived bytes]. The
// request id is (client index + 1) << 32 | client seqno, so a method body
// can tag its spans with the request that caused it, deterministically
// (replay re-derives it from the logged argument).
//
// Expected reply: the argument with bytes [8,16) replaced by MSP1's session
// request count and [16,24) by MSP2's. Both counts live in session state, so
// a reply matches only if each MSP executed every earlier request of the
// session exactly once — across crash recovery too.

struct Inputs {
  uint64_t seed = 1;
  Bytes slot_template;  ///< 512 B session-state write, count patched in
  Bytes sv_template;    ///< 128 B shared-variable value

  explicit Inputs(uint64_t s)
      : seed(s),
        slot_template(msplog::MakePayload(kSessionWriteBytes, Mix(s ^ 0x51))),
        sv_template(msplog::MakePayload(kSharedVarBytes, Mix(s ^ 0x5f))) {}

  Bytes Arg(uint64_t req) const {
    Bytes a = msplog::MakePayload(kPayloadBytes, Mix(seed ^ Mix(req)));
    PutU64(&a, 0, req);
    return a;
  }
  static Bytes Expected(const Bytes& arg, uint64_t seq) {
    Bytes r = arg;
    PutU64(&r, 8, seq);
    PutU64(&r, 16, seq);
    return r;
  }
  Bytes Slot(uint64_t count) const {
    Bytes b = slot_template;
    PutU64(&b, 0, count);
    return b;
  }
  Bytes SharedValue(uint64_t seq, uint64_t req) const {
    Bytes b = sv_template;
    PutU64(&b, 0, seq);
    PutU64(&b, 8, req);
    return b;
  }
};

uint64_t ReqId(int client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << 32) | seq;
}

/// Request ids repeat across rounds (every round is a fresh world), so
/// spans carry the round in the high bits.
std::atomic<uint64_t> g_round{0};
uint64_t SpanReq(uint64_t req) {
  return (g_round.load(std::memory_order_relaxed) << 48) | req;
}

std::string SlotName(uint64_t i) { return "s" + std::to_string(i); }

// ---------------------------------------------------------------------------
// Timed copies of the Figure 13 service methods (harness/paper_workload.cc),
// with spans around each ServiceContext call and exactly-once counters in
// the session state.

/// Materialize the 8 KB session state on the session's first request and
/// return the request count stored by the previous request.
uint64_t PrevCount(ServiceContext* ctx, const Inputs& in, uint64_t seq) {
  if (!ctx->HasSessionVar("s0")) {
    for (size_t i = 0; i < kSessionSlots; ++i) {
      ctx->SetSessionVar(SlotName(i), in.Slot(0));
    }
  }
  return GetU64(ctx->GetSessionVar(SlotName((seq - 1) % kSessionSlots)), 0);
}

// Spans inside a body are recorded for live execution only: during replay
// the context feeds reads and replies from the log, and the body's own
// m*.replay span covers them.
Status ReadWrite(ServiceContext* ctx, const Inputs& in, const char* var,
                 uint64_t seq, uint64_t req) {
  const bool live = !ctx->in_replay();
  Bytes v;
  {
    ScopedSpan s(SpanName::kReadShared, SpanReq(req), live);
    MSPLOG_RETURN_IF_ERROR(ctx->ReadShared(var, &v));
  }
  ScopedSpan s(SpanName::kWriteShared, SpanReq(req), live);
  return ctx->WriteShared(var, in.SharedValue(seq, req));
}

Status ServiceMethod1(const Inputs& in, ServiceContext* ctx, const Bytes& arg,
                      Bytes* result) {
  const uint64_t req = GetU64(arg, 0);
  ScopedSpan span(ctx->in_replay() ? SpanName::kM1Replay : SpanName::kM1Exec,
                  SpanReq(req));
  const uint64_t seq = ctx->request_seqno();
  const uint64_t count = PrevCount(ctx, in, seq) + 1;
  MSPLOG_RETURN_IF_ERROR(ReadWrite(ctx, in, "SV0", seq, req));
  ctx->Compute(kMethodComputeMs);
  Bytes reply;
  {
    ScopedSpan s(SpanName::kNestedCall, SpanReq(req), !ctx->in_replay());
    MSPLOG_RETURN_IF_ERROR(ctx->Call("msp2", "ServiceMethod2", arg, &reply));
  }
  MSPLOG_RETURN_IF_ERROR(ReadWrite(ctx, in, "SV1", seq, req));
  ctx->SetSessionVar(SlotName(seq % kSessionSlots), in.Slot(count));
  *result = arg;
  PutU64(result, 8, count);
  PutU64(result, 16, GetU64(reply, 8));
  return Status::OK();
}

Status ServiceMethod2(const Inputs& in, ServiceContext* ctx, const Bytes& arg,
                      Bytes* result) {
  const uint64_t req = GetU64(arg, 0);
  ScopedSpan span(ctx->in_replay() ? SpanName::kM2Replay : SpanName::kM2Exec,
                  SpanReq(req));
  const uint64_t seq = ctx->request_seqno();
  const uint64_t count = PrevCount(ctx, in, seq) + 1;
  MSPLOG_RETURN_IF_ERROR(ReadWrite(ctx, in, "SV2", seq, req));
  MSPLOG_RETURN_IF_ERROR(ReadWrite(ctx, in, "SV3", seq, req));
  ctx->Compute(kMethodComputeMs);
  ctx->SetSessionVar(SlotName(seq % kSessionSlots), in.Slot(count));
  *result = arg;
  PutU64(result, 8, count);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// World: the PaperWorkload topology built from the public constructors, so
// the disk and network seeds come from the workload seed.

class World {
 public:
  World(const Workload& wl, const Inputs& in)
      : env_(wl.time_scale),
        net_(&env_, Mix(in.seed ^ 3)),
        disk1_(&env_, "disk1", Geometry(), Mix(in.seed ^ 1)),
        disk2_(&env_, "disk2", Geometry(), Mix(in.seed ^ 2)) {
    net_.set_default_one_way_ms(0.5);
    net_.SetLinkLatency("msp1", "msp2", 1.70);  // MSP RTT 3.596 ms
    dir_.Assign("msp1", "domainA");             // LoOptimistic: one domain
    dir_.Assign("msp2", "domainA");
    msp1_ = std::make_unique<Msp>(&env_, &net_, &disk1_, &dir_,
                                  Config(wl, "msp1"));
    msp2_ = std::make_unique<Msp>(&env_, &net_, &disk2_, &dir_,
                                  Config(wl, "msp2"));
    msp1_->RegisterSharedVariable("SV0", in.SharedValue(0, 0));
    msp1_->RegisterSharedVariable("SV1", in.SharedValue(0, 1));
    msp2_->RegisterSharedVariable("SV2", in.SharedValue(0, 2));
    msp2_->RegisterSharedVariable("SV3", in.SharedValue(0, 3));
    msp1_->RegisterMethod("ServiceMethod1",
                          [&in](ServiceContext* c, const Bytes& a, Bytes* r) {
                            return ServiceMethod1(in, c, a, r);
                          });
    msp2_->RegisterMethod("ServiceMethod2",
                          [&in](ServiceContext* c, const Bytes& a, Bytes* r) {
                            return ServiceMethod2(in, c, a, r);
                          });
  }
  ~World() { Shutdown(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Status Start() {
    MSPLOG_RETURN_IF_ERROR(msp2_->Start());
    return msp1_->Start();
  }
  void Shutdown() {
    msp1_->Shutdown();
    msp2_->Shutdown();
  }

  /// An end client with the paper's client link (RTT 3.9 ms) and the
  /// default resend timeout, busy backoff and send budget.
  std::unique_ptr<ClientEndpoint> MakeClient(const std::string& name) {
    net_.SetLinkLatency(name, "msp1", 1.85);
    return std::make_unique<ClientEndpoint>(&env_, &net_, name);
  }

  SimEnvironment& env() { return env_; }
  Msp& msp1() { return *msp1_; }
  msplog::SimDisk& disk(int i) { return i == 0 ? disk1_ : disk2_; }

 private:
  static msplog::DiskGeometry Geometry() {
    msplog::DiskGeometry g;
    g.os_interference_prob = 0.0;  // deterministic TFn flush latency
    return g;
  }
  static MspConfig Config(const Workload& wl, const std::string& id) {
    MspConfig c;
    c.id = id;
    c.thread_pool_size = wl.pool;
    c.session_checkpoint_threshold_bytes = wl.checkpoints ? 1 << 20 : 0;
    c.msp_checkpoint_log_bytes = wl.checkpoints ? 1 << 20 : 0;
    c.checkpoint_daemon = wl.checkpoints;
    return c;
  }

  SimEnvironment env_;
  msplog::SimNetwork net_;
  msplog::SimDisk disk1_;
  msplog::SimDisk disk2_;
  msplog::DomainDirectory dir_;
  std::unique_ptr<Msp> msp1_;
  std::unique_ptr<Msp> msp2_;
};

// ---------------------------------------------------------------------------
// Measurement accumulators

double CpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Div(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Client-side tallies; one per client thread, merged after join.
struct Tally {
  std::vector<double> resp_ms;  ///< model ms per completed call
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< non-OK status or wrong reply
  uint64_t wrong = 0;    ///< wrong reply: an exactly-once violation
  uint64_t sends = 0;
  uint64_t busy = 0;

  void Merge(const Tally& o) {
    resp_ms.insert(resp_ms.end(), o.resp_ms.begin(), o.resp_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    sends += o.sends;
    busy += o.busy;
  }
};

/// One call whose reply is checked against the expected payload.
void CheckedCall(const Inputs& in, int client, ClientEndpoint* ep,
                 ClientSession* sess, Tally* t, double* done_model_ms,
                 SimEnvironment* env) {
  const uint64_t seq = sess->next_seqno;
  const uint64_t req = ReqId(client, seq);
  const Bytes arg = in.Arg(req);
  Bytes reply;
  CallStats cs;
  Status st;
  {
    ScopedSpan s(SpanName::kClientCall, SpanReq(req));
    st = ep->Call(sess, "ServiceMethod1", arg, &reply, &cs);
  }
  if (done_model_ms) *done_model_ms = env->NowModelMs();
  ++t->attempted;
  t->sends += cs.sends;
  t->busy += cs.busy_replies;
  if (!st.ok()) {
    ++t->failed;
    return;
  }
  t->resp_ms.push_back(cs.response_model_ms);
  if (reply != Inputs::Expected(arg, seq)) {
    ++t->failed;
    ++t->wrong;
  }
}

/// Counter deltas over the measured part of a run.
struct Counters {
  double requests = 0;  ///< completed calls the per-request ratios divide by
  double messages = 0, message_bytes = 0, dv_entries = 0;
  double disk_writes = 0, disk_bytes = 0, disk_wasted = 0, disk_payload = 0;
  double log_records = 0, log_bytes = 0;
  double dist_flushes = 0, msp_checkpoints = 0;
  double cpu_us = 0, model_s = 0;

  void Add(const msplog::SimStats::Snapshot& a,
           const msplog::SimStats::Snapshot& b, uint32_t sector_bytes) {
    messages += static_cast<double>(b.messages_sent - a.messages_sent);
    message_bytes += static_cast<double>(b.message_bytes - a.message_bytes);
    dv_entries +=
        static_cast<double>(b.dv_entries_attached - a.dv_entries_attached);
    disk_writes += static_cast<double>(b.disk_flushes - a.disk_flushes);
    disk_bytes += static_cast<double>(b.disk_sectors_written -
                                      a.disk_sectors_written) *
                  sector_bytes;
    disk_wasted +=
        static_cast<double>(b.disk_bytes_wasted - a.disk_bytes_wasted);
    disk_payload +=
        static_cast<double>(b.disk_bytes_written - a.disk_bytes_written);
    log_records +=
        static_cast<double>(b.log_records_appended - a.log_records_appended);
    log_bytes +=
        static_cast<double>(b.log_bytes_appended - a.log_bytes_appended);
    dist_flushes +=
        static_cast<double>(b.distributed_flushes - a.distributed_flushes);
    msp_checkpoints +=
        static_cast<double>(b.checkpoints_msp - a.checkpoints_msp);
  }
};

/// Sizes of completed disk writes, from SimDisk completion hooks.
class WriteSizes {
 public:
  void Attach(World* w) {
    for (int i = 0; i < 2; ++i) {
      ids_[i] = w->disk(i).AddCompletionHook(
          [this](const msplog::DiskCompletion& c) {
            std::lock_guard<std::mutex> lk(mu_);
            sizes_.push_back(static_cast<double>(c.bytes));
          });
    }
    world_ = w;
  }
  void Detach() {
    if (world_ == nullptr) return;
    for (int i = 0; i < 2; ++i) world_->disk(i).RemoveCompletionHook(ids_[i]);
    world_ = nullptr;
  }
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(sizes_);
  }

 private:
  std::mutex mu_;
  std::vector<double> sizes_;
  World* world_ = nullptr;
  int ids_[2] = {0, 0};
};

/// End-to-end figures of one steady round or one crash cycle.
struct RoundStats {
  double p50_ms, p99_ms, rps, cpu_us, disk_bytes;
};

RoundStats Summarize(const std::vector<double>& resp_ms, const Counters& before,
                     const Counters& after) {
  const double n = static_cast<double>(resp_ms.size());
  return {Quantile(resp_ms, 0.50), Quantile(resp_ms, 0.99),
          Div(n, after.model_s - before.model_s),
          Div(after.cpu_us - before.cpu_us, n),
          Div(after.disk_bytes - before.disk_bytes, n)};
}

struct RunState {
  const Workload* wl = nullptr;
  bool trace = false;
  Tally calls;                    ///< every checked call of the run
  Tally traced_calls, untraced_calls;  ///< steady traced run: ABBA halves
  Counters ctr;
  std::vector<RoundStats> rounds;
  std::vector<double> setup_s;
  std::vector<double> tts_ms;     ///< Start → hot reply, model ms
  std::vector<double> drain_ms;   ///< Start → last session replayed
  std::vector<double> crash_ms, start_ms;  ///< model ms
  std::vector<double> scan_bytes;
  std::vector<double> replays_per_cycle;
  WriteSizes write_sizes;
  std::vector<std::string> violations;
  int cycles = 0;
};

// ---------------------------------------------------------------------------
// Crash → restart of MSP1, with `hot` sessions calling right after Start.

struct HotClient {
  int index;
  ClientEndpoint* ep;
  ClientSession* sess;
};

void CrashRestart(World& w, const Inputs& in, std::vector<HotClient> hot,
                  size_t expect_sessions, RunState* rs) {
  auto& stats = w.env().stats();
  const uint64_t recovered_before = stats.sessions_recovered.load();
  const uint64_t replayed_before = stats.requests_replayed.load();
  const double scale = w.env().time_scale() > 0 ? w.env().time_scale() : 1.0;

  // Hot clients wait at the latch, so their calls go out the moment Start
  // returns, without thread start-up in the measurement.
  std::latch go(1);
  std::vector<Tally> tallies(hot.size());
  std::vector<double> done_ms(hot.size(), 0.0);
  std::vector<std::thread> threads;
  for (size_t h = 0; h < hot.size(); ++h) {
    threads.emplace_back([&, h] {
      go.wait();
      CheckedCall(in, hot[h].index, hot[h].ep, hot[h].sess, &tallies[h],
                  &done_ms[h], &w.env());
    });
  }

  uint64_t t0 = NowNs();
  {
    ScopedSpan s(SpanName::kCrash, 0);
    w.msp1().Crash();
  }
  rs->crash_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 / scale);
  const double start_model_ms = w.env().NowModelMs();
  t0 = NowNs();
  Status st;
  {
    ScopedSpan s(SpanName::kStart, 0);
    st = w.msp1().Start();
  }
  rs->start_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 / scale);
  go.count_down();
  for (auto& t : threads) t.join();
  if (!st.ok()) {
    rs->violations.push_back("msp1 restart failed: " + st.ToString());
    return;
  }
  for (size_t h = 0; h < hot.size(); ++h) {
    rs->calls.Merge(tallies[h]);
    if (tallies[h].failed == 0) rs->tts_ms.push_back(done_ms[h] - start_model_ms);
  }

  // Wait for the background drain; time it from the outage report's
  // per-session servable stamps, not from this polling loop.
  const uint64_t target = w.msp1().LastRecoveryTimeline().sessions_to_recover;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
  msplog::obs::OutageReport rep;
  while (true) {
    rep = w.msp1().LastOutageReport();
    if (stats.sessions_recovered.load() >= recovered_before + target &&
        rep.complete) {
      break;
    }
    if (NowNs() > deadline) {
      rs->violations.push_back("recovery drain did not finish");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const msplog::obs::RecoveryTimeline tl = w.msp1().LastRecoveryTimeline();
  if (!rep.valid || rep.sessions.size() != expect_sessions ||
      target != expect_sessions) {
    rs->violations.push_back(
        "outage report incomplete: " + std::to_string(rep.sessions.size()) +
        " fates, " + std::to_string(target) + " sessions to recover, expected " +
        std::to_string(expect_sessions));
    return;
  }
  double last = start_model_ms;
  for (const auto& f : rep.sessions) {
    if (f.fate != "replayed") {
      rs->violations.push_back("session " + f.session_id + " fate " + f.fate);
    }
    last = std::max(last, f.servable_at_ms);
  }
  rs->drain_ms.push_back(last - start_model_ms);
  rs->scan_bytes.push_back(static_cast<double>(tl.analysis_bytes_scanned));
  rs->replays_per_cycle.push_back(
      static_cast<double>(stats.requests_replayed.load() - replayed_before));
  ++rs->cycles;
}

void CheckWorld(World& w, RunState* rs) {
  uint64_t mis = w.env().stats().replay_misalignments.load();
  if (mis != 0) {
    rs->violations.push_back(std::to_string(mis) + " replay misalignments");
  }
}

// ---------------------------------------------------------------------------
// Steady workloads: rounds of {fresh world, warm-up, crash → restart of MSP1
// with every client hot, closed-loop window}.
//
// The warm-up runs one client at a time and the crash comes before the
// concurrent window: a crash after concurrent traffic on a multi-threaded
// MSP currently loses acknowledged requests (a mid-log frame fails its CRC
// and the analysis scan stops there), which would fail every run. See
// README.md, "Known defects".

void SteadyRound(const Inputs& in, int round, double window_s, bool traced,
                 RunState* rs) {
  const Workload& wl = *rs->wl;
  g_round.store(static_cast<uint64_t>(round) + 1);
  const uint64_t setup0 = NowNs();
  World w(wl, in);
  Status st = w.Start();
  if (!st.ok()) {
    rs->violations.push_back("start failed: " + st.ToString());
    return;
  }
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  std::vector<HotClient> hot;
  for (int c = 0; c < wl.clients; ++c) {
    eps.push_back(w.MakeClient("client" + std::to_string(c)));
    sessions.push_back(eps.back()->StartSession("msp1"));
  }
  for (int c = 0; c < wl.clients; ++c) {
    hot.push_back({c, eps[c].get(), &sessions[c]});
    for (int i = 0; i < kWarmupCalls; ++i) {
      CheckedCall(in, c, eps[c].get(), &sessions[c], &rs->calls, nullptr,
                  &w.env());
    }
  }
  rs->setup_s.push_back(static_cast<double>(NowNs() - setup0) / 1e9);

  SetTracing(traced);
  CrashRestart(w, in, hot, static_cast<size_t>(wl.clients), rs);

  if (rs->trace) rs->write_sizes.Attach(&w);
  const uint32_t sector = w.disk(0).geometry().sector_bytes;
  const Counters before = rs->ctr;
  const auto s0 = w.env().stats().Snap();
  const double cpu0 = CpuUs();
  const double m0 = w.env().NowModelMs();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(window_s * 1e9);
  std::vector<Tally> tallies(wl.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < wl.clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < deadline) {
        CheckedCall(in, c, eps[c].get(), &sessions[c], &tallies[c], nullptr,
                    &w.env());
      }
    });
  }
  for (auto& t : threads) t.join();
  rs->ctr.model_s += (w.env().NowModelMs() - m0) / 1e3;
  rs->ctr.cpu_us += CpuUs() - cpu0;
  rs->ctr.Add(s0, w.env().stats().Snap(), sector);
  rs->write_sizes.Detach();
  SetTracing(false);
  Tally window;
  for (auto& t : tallies) window.Merge(t);
  rs->ctr.requests += static_cast<double>(window.resp_ms.size());
  rs->rounds.push_back(Summarize(window.resp_ms, before, rs->ctr));
  (traced ? rs->traced_calls : rs->untraced_calls).Merge(window);
  rs->calls.Merge(window);
  CheckWorld(w, rs);
  w.Shutdown();
}

// ---------------------------------------------------------------------------
// crash_restart: cycles of {fresh world, seed-derived history, crash MSP1,
// restart, hot sessions call, wait for the drain}.

void CrashCycle(const Inputs& in, const std::vector<int>& hot_idx, int cycle,
                RunState* rs) {
  const Workload& wl = *rs->wl;
  g_round.store(static_cast<uint64_t>(cycle) + 1);
  SetTracing(rs->trace);
  const uint64_t setup0 = NowNs();
  World w(wl, in);
  if (rs->trace) rs->write_sizes.Attach(&w);
  const uint32_t sector = w.disk(0).geometry().sector_bytes;
  const Counters before = rs->ctr;
  const size_t calls_before = rs->calls.resp_ms.size();
  const auto s0 = w.env().stats().Snap();
  const double cpu0 = CpuUs();
  Status st = w.Start();
  if (!st.ok()) {
    rs->violations.push_back("start failed: " + st.ToString());
    rs->write_sizes.Detach();
    return;
  }
  // Every session has its own endpoint, so a hot session's post-restart
  // call comes from the endpoint its replies route to. Hot endpoints sort
  // last ("zz-"), which parks them at the back of the SJF drain queue — the
  // worst case on-demand admission is built for.
  std::vector<bool> is_hot(wl.sessions, false);
  for (int h : hot_idx) is_hot[h] = true;
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  for (int s = 0; s < wl.sessions; ++s) {
    eps.push_back(w.MakeClient((is_hot[s] ? "zz-" : "c-") + std::to_string(s)));
    sessions.push_back(eps.back()->StartSession("msp1"));
  }
  const double m0 = w.env().NowModelMs();
  std::vector<Tally> tallies(wl.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < wl.clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < wl.requests_per_session; ++r) {
        for (int s = c; s < wl.sessions; s += wl.clients) {
          CheckedCall(in, s, eps[s].get(), &sessions[s], &tallies[c], nullptr,
                      &w.env());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  rs->setup_s.push_back(static_cast<double>(NowNs() - setup0) / 1e9);
  for (auto& t : tallies) rs->calls.Merge(t);

  std::vector<HotClient> hot;
  for (int h : hot_idx) hot.push_back({h, eps[h].get(), &sessions[h]});
  CrashRestart(w, in, hot, static_cast<size_t>(wl.sessions), rs);
  // Throughput counts the outage: calls per model second from the first
  // history call until every session has replayed.
  rs->ctr.model_s += (w.env().NowModelMs() - m0) / 1e3;
  rs->ctr.cpu_us += CpuUs() - cpu0;
  rs->ctr.Add(s0, w.env().stats().Snap(), sector);
  rs->write_sizes.Detach();
  SetTracing(false);
  rs->rounds.push_back(Summarize(
      std::vector<double>(rs->calls.resp_ms.begin() + calls_before,
                          rs->calls.resp_ms.end()),
      before, rs->ctr));
  CheckWorld(w, rs);
  w.Shutdown();
}

// ---------------------------------------------------------------------------
// Metrics from spans

struct SpanMetrics {
  std::vector<double> m1_exec, m1_self, m2_exec, nested, nested_outside,
      outside, client_call, read, write, replay;
  double linked_frac = 0;
};

SpanMetrics AnalyzeSpans(std::vector<Span>* spans) {
  ResolveParents(spans);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : *spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  auto kids = [&](const Span& s, SpanName n) {
    std::vector<const Span*> out;
    auto it = children.find(s.id);
    if (it == children.end()) return out;
    for (const Span* c : it->second) {
      if (c->name == n) out.push_back(c);
    }
    return out;
  };
  SpanMetrics m;
  uint64_t calls = 0, linked = 0;
  for (const Span& s : *spans) {
    const double us = s.DurUs();
    switch (s.name) {
      case SpanName::kClientCall: {
        ++calls;
        auto exec = kids(s, SpanName::kM1Exec);
        if (exec.empty()) break;
        ++linked;
        m.client_call.push_back(us);
        m.outside.push_back(us - static_cast<double>(CoveredNs(s, exec)) / 1e3);
        break;
      }
      case SpanName::kM1Exec:
        m.m1_exec.push_back(us);
        m.m1_self.push_back(
            us - static_cast<double>(
                     CoveredNs(s, kids(s, SpanName::kNestedCall))) / 1e3);
        break;
      case SpanName::kM2Exec: m.m2_exec.push_back(us); break;
      case SpanName::kNestedCall:
        m.nested.push_back(us);
        m.nested_outside.push_back(
            us - static_cast<double>(CoveredNs(s, kids(s, SpanName::kM2Exec))) /
                     1e3);
        break;
      case SpanName::kReadShared: m.read.push_back(us); break;
      case SpanName::kWriteShared: m.write.push_back(us); break;
      case SpanName::kM1Replay:
      case SpanName::kM2Replay: m.replay.push_back(us); break;
      default: break;
    }
  }
  m.linked_frac = calls ? static_cast<double>(linked) / calls : 0.0;
  return m;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<Metric> EndToEnd(const RunState& rs) {
  // Medians over rounds (steady) or cycles (crash_restart). A crash cycle
  // has too few calls for its own p99, so crash_restart pools the response
  // times of every call of every cycle (history and hot calls).
  auto med = [&rs](double RoundStats::*field) {
    std::vector<double> v;
    for (const RoundStats& r : rs.rounds) v.push_back(r.*field);
    return Median(v);
  };
  const bool pooled = rs.wl->crash_cycles;
  return {
      {"resp_p50_ms",
       pooled ? Quantile(rs.calls.resp_ms, 0.50) : med(&RoundStats::p50_ms),
       "ms"},
      {"resp_p99_ms",
       pooled ? Quantile(rs.calls.resp_ms, 0.99) : med(&RoundStats::p99_ms),
       "ms"},
      {"throughput_rps", med(&RoundStats::rps), "1/s"},
      {"cpu_us_per_req", med(&RoundStats::cpu_us), "us"},
      {"disk_bytes_per_req", med(&RoundStats::disk_bytes), "B"},
      {"success_ratio",
       Div(static_cast<double>(rs.calls.attempted - rs.calls.failed),
           static_cast<double>(rs.calls.attempted)),
       "ratio"},
      {"tts_hot_p50_ms", Median(rs.tts_ms), "ms"},
      {"recovery_drain_ms", Median(rs.drain_ms), "ms"},
      {"setup_s", Median(rs.setup_s), "s"},
  };
}

std::vector<Metric> PerLayer(const RunState& rs, const SpanMetrics& sm,
                             const std::vector<double>& write_sizes) {
  const Counters& c = rs.ctr;
  const double req = c.requests > 0 ? c.requests
                                    : static_cast<double>(rs.calls.resp_ms.size());
  const Tally& t = rs.calls;
  const double kcalls = static_cast<double>(t.attempted) / 1e3;
  const double traced_p50 = Median(rs.traced_calls.resp_ms);
  const double untraced_p50 = Median(rs.untraced_calls.resp_ms);
  return {
      {"rpc.resends_per_kcall",
       Div(static_cast<double>(t.sends - t.attempted), kcalls), "1/kcall"},
      {"rpc.busy_per_kcall", Div(static_cast<double>(t.busy), kcalls),
       "1/kcall"},
      {"sim.msgs_per_req", Div(c.messages, req), "msg/req"},
      {"sim.msg_bytes_per_req", Div(c.message_bytes, req), "B/req"},
      {"sim.disk_writes_per_req", Div(c.disk_writes, req), "write/req"},
      {"sim.disk_bytes_per_write", Median(write_sizes), "B"},
      {"sim.disk_waste_frac", Div(c.disk_wasted, c.disk_wasted + c.disk_payload),
       "frac"},
      {"log.records_per_req", Div(c.log_records, req), "rec/req"},
      {"log.bytes_per_req", Div(c.log_bytes, req), "B/req"},
      {"log.scan_bytes_per_cycle", Median(rs.scan_bytes), "B"},
      {"recovery.dv_entries_per_msg", Div(c.dv_entries, c.messages),
       "entry/msg"},
      {"msp.m1_exec_us", Median(sm.m1_exec), "us"},
      {"msp.m1_self_us", Median(sm.m1_self), "us"},
      {"msp.m2_exec_us", Median(sm.m2_exec), "us"},
      {"msp.nested_call_us", Median(sm.nested), "us"},
      {"msp.nested_outside_us", Median(sm.nested_outside), "us"},
      {"msp.outside_us", Median(sm.outside), "us"},
      {"msp.client_call_us", Median(sm.client_call), "us"},
      {"msp.shared_read_us", Median(sm.read), "us"},
      {"msp.shared_write_us", Median(sm.write), "us"},
      {"msp.dist_flushes_per_req", Div(c.dist_flushes, req), "flush/req"},
      {"msp.checkpoints_per_kreq", Div(c.msp_checkpoints, req / 1e3),
       "cp/kreq"},
      {"msp.crash_ms", Median(rs.crash_ms), "ms"},
      {"msp.start_ms", Median(rs.start_ms), "ms"},
      {"msp.replay_exec_us", Median(sm.replay), "us"},
      {"msp.replays_per_cycle", Median(rs.replays_per_cycle), "req/cycle"},
      {"trace.linked_frac", sm.linked_frac, "frac"},
      {"trace.resp_p50_traced_ms", traced_p50, "ms"},
      {"trace.resp_p50_untraced_ms", untraced_p50, "ms"},
      {"trace.overhead_frac",
       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "frac"},
  };
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = std::stoi(v);
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) throw std::invalid_argument("args");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <csv>]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const Inputs in(args.seed);
  RunState rs;
  rs.wl = wl;
  rs.trace = args.trace == 1;
  if (wl->crash_cycles) {
    // Hot sessions: a seed-derived choice, the same in every cycle.
    std::vector<int> idx(wl->sessions);
    for (int i = 0; i < wl->sessions; ++i) idx[i] = i;
    msplog::Rng rng(Mix(args.seed ^ 0x407));
    for (int i = wl->sessions - 1; i > 0; --i) {
      std::swap(idx[i], idx[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
    idx.resize(wl->hot);
    const uint64_t end = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    for (int cycle = 0; rs.violations.empty() && (cycle < 3 || NowNs() < end);
         ++cycle) {
      CrashCycle(in, idx, cycle, &rs);
    }
  } else {
    // Traced runs alternate untraced and traced rounds (ABBA...) so the
    // tracing overhead is measured in the same run.
    for (int r = 0; r < kSteadyRounds && rs.violations.empty(); ++r) {
      const bool traced = rs.trace && (r % 4 == 1 || r % 4 == 2);
      SteadyRound(in, r, args.seconds / kSteadyRounds, traced, &rs);
    }
  }
  const uint64_t inv = msplog::audit::InvariantRegistry::Instance().total_violations();
  if (inv != 0) rs.violations.push_back(std::to_string(inv) + " invariant violations");
  if (rs.calls.wrong != 0) {
    rs.violations.push_back(std::to_string(rs.calls.wrong) + " wrong replies");
  }

  std::vector<Metric> metrics;
  if (rs.trace) {
    std::vector<Span> spans = CollectSpans();
    const SpanMetrics sm = AnalyzeSpans(&spans);
    metrics = PerLayer(rs, sm, rs.write_sizes.Take());
    if (!args.trace_out.empty() && !WriteSpansCsv(args.trace_out, spans)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
    std::printf("spans: %zu recorded\n", spans.size());
  } else {
    metrics = EndToEnd(rs);
  }

  for (const std::string& v : rs.violations) std::printf("VIOLATION: %s\n", v.c_str());
  std::printf("workload %s seed %llu: %llu calls, %llu failed, %d crash cycles\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(rs.calls.attempted),
              static_cast<unsigned long long>(rs.calls.failed), rs.cycles);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = rs.violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rs.calls.attempted);
  json += ", \"failed\": " + std::to_string(rs.calls.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
