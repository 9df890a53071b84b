// End-to-end integration tests on the paper's Fig. 13 topology: the full
// workload (shared variables at both MSPs, 8 KB session state, m calls per
// request), multi-client concurrency, crash storms, checkpointing daemons,
// and the flush-count arithmetic of §5.2.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "harness/paper_workload.h"

namespace msplog {
namespace {

PaperWorkloadOptions FastOpts(PaperConfig config) {
  PaperWorkloadOptions opts;
  opts.config = config;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;
  return opts;
}

TEST(IntegrationTest, WorkloadIsDeterministicPerSeqno) {
  // The same session must observe the same replies in two separate worlds
  // (prerequisite for replay-based recovery).
  Bytes first, second;
  for (int round = 0; round < 2; ++round) {
    PaperWorkload w(FastOpts(PaperConfig::kLoOptimistic));
    ASSERT_TRUE(w.Start().ok());
    auto client = w.MakeClient("detcli");
    auto session = client->StartSession("msp1");
    Bytes reply;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          client->Call(&session, "ServiceMethod1", MakePayload(100, i), &reply)
              .ok());
    }
    (round == 0 ? first : second) = reply;
    w.Shutdown();
  }
  EXPECT_EQ(first, second);
}

TEST(IntegrationTest, Figure13FlushCounts) {
  // §5.2: per end-client request, pessimistic logging needs 3 log flushes in
  // sequence; locally optimistic logging needs one distributed flush (two
  // local flushes, in parallel).
  for (bool optimistic : {true, false}) {
    PaperWorkload w(FastOpts(optimistic ? PaperConfig::kLoOptimistic
                                        : PaperConfig::kPessimistic));
    ASSERT_TRUE(w.Start().ok());
    auto client = w.MakeClient("fc");
    auto session = client->StartSession("msp1");
    Bytes reply;
    // Warm up (session start records, first-request setup).
    ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
    auto before = w.env()->stats().Snap();
    constexpr int kN = 10;
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
    }
    auto after = w.env()->stats().Snap();
    double flushes_per_req =
        static_cast<double>(after.disk_flushes - before.disk_flushes) / kN;
    if (optimistic) {
      EXPECT_NEAR(flushes_per_req, 2.0, 0.3);
    } else {
      EXPECT_NEAR(flushes_per_req, 3.0, 0.3);
    }
    w.Shutdown();
  }
}

TEST(IntegrationTest, SectorWasteFavorsOptimistic) {
  // §5.2: locally optimistic logging wastes about one sector less per
  // request (2 flushes instead of 3, half a sector wasted per flush).
  uint64_t waste[2];
  int idx = 0;
  for (bool optimistic : {true, false}) {
    PaperWorkload w(FastOpts(optimistic ? PaperConfig::kLoOptimistic
                                        : PaperConfig::kPessimistic));
    ASSERT_TRUE(w.Start().ok());
    auto client = w.MakeClient("sw");
    auto session = client->StartSession("msp1");
    Bytes reply;
    ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
    auto before = w.env()->stats().Snap();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
    }
    auto after = w.env()->stats().Snap();
    waste[idx++] = after.disk_bytes_wasted - before.disk_bytes_wasted;
    w.Shutdown();
  }
  EXPECT_LT(waste[0], waste[1]);
}

TEST(IntegrationTest, MultiClientConcurrentLoad) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunMultiClient(6, 10);
  EXPECT_EQ(r.requests, 60u);
  w.Shutdown();
}

TEST(IntegrationTest, ConcurrentClientsCrashRestartReplaysEveryRequest) {
  // Four concurrent clients on the default pool of 8 make flushes seal
  // arenas at arbitrary offsets, some within a frame header of a sector
  // boundary (the sector-tail rule in log_file.h). A crash after everything
  // is durable must replay every acknowledged request.
  PaperWorkload w(FastOpts(PaperConfig::kLoOptimistic));
  ASSERT_TRUE(w.Start().ok());
  ASSERT_EQ(w.RunMultiClient(4, 400).requests, 1600u);
  ASSERT_TRUE(w.msp1()->log()->FlushAll().ok());
  SimStats& stats = w.env()->stats();
  const uint64_t replayed_before = stats.requests_replayed.load();
  w.msp1()->Crash();
  ASSERT_TRUE(w.msp1()->Start().ok());
  obs::OutageReport report;
  for (int i = 0; i < 60000 && !report.complete; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    report = w.msp1()->LastOutageReport();
  }
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(stats.requests_replayed.load() - replayed_before, 1600u);
  ASSERT_EQ(report.sessions.size(), 4u);
  for (const auto& f : report.sessions) {
    EXPECT_EQ(f.fate, "replayed") << f.session_id;
    EXPECT_EQ(f.requests_replayed, 400u) << f.session_id;
  }

  // Export the image for the offline self-check in CI.
  LogFile* log = w.msp1()->log();
  Bytes image;
  ASSERT_TRUE(log->disk()
                  ->ReadAt(log->file_name(), 0,
                           log->disk()->FileSize(log->file_name()), &image)
                  .ok());
  std::ofstream out("msplog_multiclient_log_image.bin", std::ios::binary);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  w.Shutdown();
}

TEST(IntegrationTest, MultiClientWithCrashes) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunMultiClient(4, 15, /*crash_every=*/20);
  EXPECT_EQ(r.requests, 60u);
  EXPECT_GE(w.crashes_injected(), 2u);
  w.Shutdown();
}

TEST(IntegrationTest, CheckpointDaemonKeepsWorkloadCorrect) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  opts.checkpoint_daemon = true;
  opts.session_checkpoint_threshold_bytes = 4096;  // aggressive
  opts.msp_checkpoint_log_bytes = 16384;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunSingleClient(60);
  EXPECT_EQ(r.requests, 60u);
  EXPECT_GE(w.env()->stats().checkpoints_session.load(), 1u);
  w.Shutdown();
}

TEST(IntegrationTest, CheckpointsPlusCrashes) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  opts.checkpoint_daemon = true;
  opts.session_checkpoint_threshold_bytes = 4096;
  opts.msp_checkpoint_log_bytes = 16384;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunSingleClient(60, /*crash_every=*/15);
  EXPECT_EQ(r.requests, 60u);
  EXPECT_GE(w.crashes_injected(), 3u);
  w.Shutdown();
}

TEST(IntegrationTest, BatchFlushingStaysCorrect) {
  auto opts = FastOpts(PaperConfig::kPessimistic);
  opts.batch_flush = true;
  opts.batch_timeout_ms = 2.0;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunMultiClient(4, 10);
  EXPECT_EQ(r.requests, 40u);
  w.Shutdown();
}

TEST(IntegrationTest, MultipleCallsPerRequest) {
  for (int m : {2, 4}) {
    auto opts = FastOpts(PaperConfig::kLoOptimistic);
    opts.calls_per_request = m;
    PaperWorkload w(opts);
    ASSERT_TRUE(w.Start().ok());
    RunResult r = w.RunSingleClient(8);
    EXPECT_EQ(r.requests, 8u);
    w.Shutdown();
  }
}

TEST(IntegrationTest, SharedVariablesConsistentAfterCrashStorm) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunSingleClient(30, /*crash_every=*/7);
  EXPECT_EQ(r.requests, 30u);
  // SV0 at MSP1 was rewritten every request; after the storm, its value must
  // correspond to the final request's deterministic write.
  auto v = w.msp1()->PeekSharedValue("SV0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, MakePayload(128, 30 * 2 + 1));
  w.Shutdown();
}

TEST(IntegrationTest, UnreliableClientLinkStillExactlyOnce) {
  auto opts = FastOpts(PaperConfig::kLoOptimistic);
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  FaultPlan faults;
  faults.drop_prob = 0.25;
  faults.duplicate_prob = 0.25;
  auto client = w.MakeClient("lossy");
  w.network()->SetFaults("lossy", "msp1", faults);
  w.network()->SetFaults("msp1", "lossy", faults);
  auto session = client->StartSession("msp1");
  Bytes reply;
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(
        client->Call(&session, "ServiceMethod1", MakePayload(100, i), &reply)
            .ok());
  }
  // SV0's final value reflects exactly 15 executions.
  auto v = w.msp1()->PeekSharedValue("SV0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, MakePayload(128, 15 * 2 + 1));
  w.Shutdown();
}

TEST(IntegrationTest, ColdRestartRecoversWholeWorld) {
  // Both MSPs shut down gracefully; a fresh pair over the same disks must
  // recover every session and shared variable from the logs alone.
  PaperWorkloadOptions opts = FastOpts(PaperConfig::kLoOptimistic);
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  auto client = w.MakeClient("cold");
  auto session = client->StartSession("msp1");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
  }
  Bytes sv0_before = *w.msp1()->PeekSharedValue("SV0");

  w.msp1()->Crash();
  w.msp2()->Crash();
  ASSERT_TRUE(w.msp2()->Start().ok());
  ASSERT_TRUE(w.msp1()->Start().ok());

  auto v = w.msp1()->PeekSharedValue("SV0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, sv0_before);
  session.next_seqno = 6;
  ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
  w.Shutdown();
}

}  // namespace
}  // namespace msplog
