// Tests for the checkpoint policies of §3.4: daemon-driven MSP checkpoints,
// forced checkpoints for idle sessions and shared variables, and the
// anchor/scan-start interplay.
#include <gtest/gtest.h>

#include <thread>

#include "log/log_anchor.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"
#include "msp_test_peer.h"

namespace msplog {
namespace {

class CheckpointPolicyTest : public ::testing::Test {
 protected:
  CheckpointPolicyTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
  }

  void StartMsp(MspConfig c) {
    directory_.Assign(c.id, "dom");
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    msp_->RegisterSharedVariable("sv", "0");
    msp_->RegisterMethod("bump", [](ServiceContext* ctx, const Bytes&,
                                    Bytes* r) {
      Bytes cur;
      MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("sv", &cur));
      MSPLOG_RETURN_IF_ERROR(
          ctx->WriteShared("sv", std::to_string(std::stol(cur) + 1)));
      ctx->SetSessionVar("x", MakePayload(256, std::stol(cur)));
      *r = cur;
      return Status::OK();
    });
    ASSERT_TRUE(msp_->Start().ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(CheckpointPolicyTest, SessionCheckpointTriggersAtThreshold) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.session_checkpoint_threshold_bytes = 512;  // every ~3 bump requests
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
  }
  EXPECT_GE(env_.stats().checkpoints_session.load(), 3u);
}

TEST_F(CheckpointPolicyTest, IdleSessionIsForceCheckpointed) {
  // §3.4: "If a session is inactive for a long period ... we force a
  // checkpoint for a session if the number of MSP checkpoints taken since
  // the previous session checkpoint reaches a threshold."
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.session_checkpoint_threshold_bytes = 1 << 30;  // never by size
  c.force_checkpoint_after_msp_cps = 2;
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
  }
  EXPECT_EQ(env_.stats().checkpoints_session.load(), 0u);
  // The session now goes idle while MSP checkpoints keep happening.
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  // The second MSP checkpoint crossed the staleness threshold and armed a
  // forced session checkpoint on the pool.
  for (int spin = 0; spin < 200; ++spin) {
    if (env_.stats().checkpoints_session.load() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(env_.stats().checkpoints_session.load(), 1u);
  // The forced checkpoint advances the analysis-scan start: the position
  // stream is empty again.
  EXPECT_TRUE(
      MspTestPeer::PeekPositionStream(*msp_, session.session_id).empty());
}

TEST_F(CheckpointPolicyTest, UncheckpointedVariableIsCheckpointedByMspCp) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.shared_var_checkpoint_threshold_writes = 0;  // never by count
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
  EXPECT_EQ(env_.stats().checkpoints_shared_var.load(), 0u);
  // The MSP checkpoint's pre-pass gives every variable a checkpoint
  // position so the scan start is bounded.
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  EXPECT_GE(env_.stats().checkpoints_shared_var.load(), 1u);
}

TEST_F(CheckpointPolicyTest, DaemonTakesMspCheckpointsBySize) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = true;
  c.checkpoint_interval_ms = 1.0;
  c.msp_checkpoint_log_bytes = 4096;
  c.session_checkpoint_threshold_bytes = 4096;
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
  }
  for (int spin = 0; spin < 300; ++spin) {
    if (env_.stats().checkpoints_msp.load() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // At least the recovery-time checkpoint plus daemon-driven ones.
  EXPECT_GE(env_.stats().checkpoints_msp.load(), 2u);
  // Anchor tracks the newest MSP checkpoint.
  LogAnchor anchor(&disk_, "alpha.anchor");
  AnchorData ad;
  ASSERT_TRUE(anchor.Read(&ad).ok());
  EXPECT_GT(ad.msp_checkpoint_lsn, 0u);
}

TEST_F(CheckpointPolicyTest, RecoveryAfterForcedCheckpointsIsExact) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.session_checkpoint_threshold_bytes = 1 << 30;
  c.force_checkpoint_after_msp_cps = 1;  // force on every MSP checkpoint
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
    }
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  auto v = msp_->PeekSharedValue("sv");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "12");
  ASSERT_TRUE(client.Call(&session, "bump", "", &reply).ok());
  EXPECT_EQ(reply, "12");
}

}  // namespace
}  // namespace msplog
