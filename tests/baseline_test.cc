// Tests for the §5 baseline configurations: NoLog, Psession (database-backed
// sessions), StateServer (remote in-memory sessions) — including their
// crash-survival characteristics, which motivate log-based recovery.
#include <gtest/gtest.h>

#include "baseline/state_server.h"
#include "harness/paper_workload.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
    if (ss_) ss_->Crash();
  }

  void StartMsp(RecoveryMode mode) {
    MspConfig c;
    c.id = "alpha";
    c.mode = mode;
    c.checkpoint_daemon = false;
    c.state_server = "ss";
    if (mode == RecoveryMode::kStateServer) {
      ss_ = std::make_unique<StateServerNode>(&env_, &net_, "ss");
      ASSERT_TRUE(ss_->Start().ok());
    }
    directory_.Assign("alpha", "domA");
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    msp_->RegisterMethod(
        "counter", [](ServiceContext* ctx, const Bytes&, Bytes* result) {
          Bytes cur = ctx->GetSessionVar("n");
          int n = cur.empty() ? 0 : std::stoi(cur);
          ctx->SetSessionVar("n", std::to_string(n + 1));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp_->RegisterMethod("echo",
                         [](ServiceContext*, const Bytes& a, Bytes* r) {
                           *r = "echo:" + a;
                           return Status::OK();
                         });
    ASSERT_TRUE(msp_->Start().ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
  std::unique_ptr<StateServerNode> ss_;
};

TEST_F(BaselineTest, NoLogServesRequestsWithoutDiskWrites) {
  StartMsp(RecoveryMode::kNoLog);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  auto before = env_.stats().Snap();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));
  }
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.disk_flushes, before.disk_flushes);
  EXPECT_EQ(after.log_records_appended, before.log_records_appended);
}

TEST_F(BaselineTest, NoLogLosesSessionStateOnCrash) {
  StartMsp(RecoveryMode::kNoLog);
  // A baseline builds no log (and so no log writer thread).
  EXPECT_EQ(msp_->log(), nullptr);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_EQ(msp_->log(), nullptr);
  // The count restarts: NoLog provides no recovery.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");
}

TEST_F(BaselineTest, PsessionPersistsSessionStateInDatabase) {
  StartMsp(RecoveryMode::kPsession);
  // A baseline builds no log (and so no log writer thread).
  EXPECT_EQ(msp_->log(), nullptr);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_EQ(msp_->log(), nullptr);
  // Session state survives in the WAL-backed database.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "4");
}

TEST_F(BaselineTest, PsessionPaysTwoTransactionsPerRequest) {
  StartMsp(RecoveryMode::kPsession);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  auto before = env_.stats().Snap();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  auto after = env_.stats().Snap();
  // Read transaction (durable lock) + write transaction per request (§5.2).
  EXPECT_EQ(after.disk_flushes - before.disk_flushes, 10u);
}

TEST_F(BaselineTest, PsessionDedupesAcrossCrash) {
  StartMsp(RecoveryMode::kPsession);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  session.next_seqno = 1;  // duplicate of the already-executed request
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");  // buffered reply from the database, not a re-run
}

TEST_F(BaselineTest, StateServerKeepsSessionAcrossMspCrash) {
  StartMsp(RecoveryMode::kStateServer);
  // A baseline builds no log (and so no log writer thread).
  EXPECT_EQ(msp_->log(), nullptr);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  EXPECT_EQ(ss_->StoredSessions(), 1u);
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_EQ(msp_->log(), nullptr);
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "4");  // state fetched back from the state server
}

TEST_F(BaselineTest, StateServerCrashLosesEverything) {
  StartMsp(RecoveryMode::kStateServer);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  // The paper's critique: the state server is a single point of state loss.
  ss_->Crash();
  ASSERT_TRUE(ss_->Start().ok());
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");  // gone
}

TEST_F(BaselineTest, StateServerNoDiskTraffic) {
  StartMsp(RecoveryMode::kStateServer);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  auto before = env_.stats().Snap();
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.disk_flushes, before.disk_flushes);
  // ...but it does cost extra messages (get + put round trips).
  EXPECT_GE(after.messages_sent - before.messages_sent, 6u);
}

TEST(PaperWorkloadTest, AllFiveConfigurationsServeTheWorkload) {
  for (PaperConfig config :
       {PaperConfig::kLoOptimistic, PaperConfig::kPessimistic,
        PaperConfig::kNoLog, PaperConfig::kPsession,
        PaperConfig::kStateServer}) {
    PaperWorkloadOptions opts;
    opts.config = config;
    opts.time_scale = 0.0;
    opts.checkpoint_daemon = false;
    PaperWorkload w(opts);
    ASSERT_TRUE(w.Start().ok()) << PaperConfigName(config);
    RunResult r = w.RunSingleClient(10);
    EXPECT_EQ(r.requests, 10u) << PaperConfigName(config);
    w.Shutdown();
  }
}

TEST(PaperWorkloadTest, LoOptimisticSurvivesInjectedCrashes) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunSingleClient(40, /*crash_every=*/10);
  EXPECT_EQ(r.requests, 40u);
  EXPECT_GE(w.crashes_injected(), 3u);
  w.Shutdown();
}

TEST(PaperWorkloadTest, PessimisticSurvivesInjectedCrashes) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kPessimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  RunResult r = w.RunSingleClient(30, /*crash_every=*/10);
  EXPECT_EQ(r.requests, 30u);
  EXPECT_GE(w.crashes_injected(), 2u);
  w.Shutdown();
}

}  // namespace
}  // namespace msplog
