// Tests for MSP crash recovery (§4.3): analysis scan, session replay,
// shared-state roll forward, checkpoint-bounded scans, exactly-once
// semantics across crashes, parallel session recovery, and the tear rule:
// a corrupt frame mid-log fails recovery, a corrupt last frame ends it.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "audit/invariants.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"
#include "msp_test_peer.h"

namespace msplog {
namespace {

class MspRecoveryTest : public ::testing::Test {
 protected:
  MspRecoveryTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
  }

  MspConfig BaseConfig() {
    MspConfig c;
    c.id = "alpha";
    c.mode = RecoveryMode::kLogBased;
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 0;
    c.shared_var_checkpoint_threshold_writes = 0;
    return c;
  }

  void StartMsp(MspConfig c) {
    directory_.Assign(c.id, "domA");
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    Register(msp_.get());
    ASSERT_TRUE(msp_->Start().ok());
  }

  static void Register(Msp* msp) {
    msp->RegisterSharedVariable("acc", "0");
    msp->RegisterMethod(
        "counter", [](ServiceContext* ctx, const Bytes&, Bytes* result) {
          Bytes cur = ctx->GetSessionVar("n");
          int n = cur.empty() ? 0 : std::stoi(cur);
          ctx->SetSessionVar("n", std::to_string(n + 1));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp->RegisterMethod(
        "add_shared", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          Bytes cur;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &cur));
          long total = std::stol(cur) + std::stol(Bytes(arg));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("acc", std::to_string(total)));
          *result = std::to_string(total);
          return Status::OK();
        });
    msp->RegisterMethod(
        "mix", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          // Session state += shared state read; shared state updated.
          Bytes shared;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &shared));
          Bytes mine = ctx->GetSessionVar("sum");
          long sum = (mine.empty() ? 0 : std::stol(mine)) + std::stol(shared);
          ctx->SetSessionVar("sum", std::to_string(sum));
          MSPLOG_RETURN_IF_ERROR(ctx->WriteShared(
              "acc", std::to_string(std::stol(shared) + std::stol(Bytes(arg)))));
          *result = std::to_string(sum);
          return Status::OK();
        });
  }

  void CrashAndRestart() {
    msp_->Crash();
    ASSERT_TRUE(msp_->Start().ok());
  }

  /// LSNs of every record in alpha's durable log.
  std::vector<uint64_t> DurableLsns() {
    std::vector<uint64_t> lsns;
    LogScanner scanner(&disk_, "alpha.log", 0, disk_.FileSize("alpha.log"));
    LogRecord r;
    while (scanner.Next(&r).ok()) lsns.push_back(r.lsn);
    return lsns;
  }

  /// Flip one byte inside the body of the frame at `lsn`.
  void CorruptFrameAt(uint64_t lsn) {
    Bytes b;
    ASSERT_TRUE(disk_.ReadAt("alpha.log", lsn + 12, 1, &b).ok());
    b[0] ^= 0x55;
    ASSERT_TRUE(disk_.WriteAt("alpha.log", lsn + 12, b).ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(MspRecoveryTest, SessionStateSurvivesCrash) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  CrashAndRestart();
  // The session's private state was never logged — redo recovery replayed
  // the requests (§3.2). The next request continues the same count.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "6");
  EXPECT_GE(env_.stats().requests_replayed.load(), 5u);
}

TEST_F(MspRecoveryTest, EpochIncrementsPerStart) {
  // Every start — even the first — runs crash recovery and opens a new
  // epoch, because a restarted process cannot prove its previous
  // incarnation never existed.
  StartMsp(BaseConfig());
  EXPECT_EQ(msp_->epoch(), 1u);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  CrashAndRestart();
  EXPECT_EQ(msp_->epoch(), 2u);
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  CrashAndRestart();
  EXPECT_EQ(msp_->epoch(), 3u);
}

TEST_F(MspRecoveryTest, SharedStateRollsForwardFromLog) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "add_shared", "10", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "add_shared", "32", &reply).ok());
  EXPECT_EQ(reply, "42");
  CrashAndRestart();
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "42");
}

TEST_F(MspRecoveryTest, ExactlyOnceAcrossCrash) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "add_shared", "5", &reply).ok());
  CrashAndRestart();
  // Resend of the SAME request after the crash must not re-execute.
  session.next_seqno = 1;
  ASSERT_TRUE(client.Call(&session, "add_shared", "5", &reply).ok());
  EXPECT_EQ(reply, "5");
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "5");  // not 10
}

TEST_F(MspRecoveryTest, UnflushedTailIsLostButClientRetrySucceeds) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  CrashAndRestart();
  // Request 2 again: whether or not its receive record was flushed, the
  // client's retry must end with exactly one execution of request 2.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "2");
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "3");
}

TEST_F(MspRecoveryTest, MultipleSessionsRecoverInParallel) {
  auto cfg = BaseConfig();
  cfg.thread_pool_size = 4;
  StartMsp(cfg);
  constexpr int kSessions = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
      auto s = client.StartSession("alpha");
      Bytes reply;
      for (int r = 0; r < 5; ++r) {
        ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t recovered_before = env_.stats().sessions_recovered.load();
  CrashAndRestart();
  // Wait for all session recovery tasks to finish.
  for (int spin = 0; spin < 500; ++spin) {
    if (env_.stats().sessions_recovered.load() >= recovered_before + kSessions)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(env_.stats().sessions_recovered.load(),
            recovered_before + kSessions);
  // Each session continues with its own count.
  for (int i = 0; i < kSessions; ++i) {
    ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
    // Session ids are deterministic per client name + counter; recreate the
    // handle with the right seqno.
    ClientSession s;
    s.msp = "alpha";
    s.session_id = "cli" + std::to_string(i) + "/se1";
    s.next_seqno = 6;
    Bytes reply;
    ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
    EXPECT_EQ(reply, "6");
  }
}

TEST_F(MspRecoveryTest, CheckpointBoundsReplayWork) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  uint64_t replayed_before = env_.stats().requests_replayed.load();
  CrashAndRestart();
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
  // Nothing (or almost nothing) to replay: the checkpoint captured it all.
  EXPECT_EQ(env_.stats().requests_replayed.load(), replayed_before);
}

TEST_F(MspRecoveryTest, RecoveryWithCheckpointPlusTail) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  uint64_t replayed_before = env_.stats().requests_replayed.load();
  CrashAndRestart();
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
  // Only the post-checkpoint tail (≤4 requests) needed replay.
  EXPECT_LE(env_.stats().requests_replayed.load() - replayed_before, 4u);
}

TEST_F(MspRecoveryTest, SharedVarCheckpointBreaksUndoChain) {
  auto cfg = BaseConfig();
  StartMsp(cfg);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::SharedVar("acc")).ok());
  ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  EXPECT_EQ(reply, "6");
  CrashAndRestart();
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "6");
}

TEST_F(MspRecoveryTest, RepeatedCrashesConverge) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int round = 1; round <= 5; ++round) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(round));
    CrashAndRestart();
  }
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "6");
  EXPECT_EQ(msp_->epoch(), 6u);
}

TEST_F(MspRecoveryTest, FreshStartHasNothingToRecover) {
  StartMsp(BaseConfig());
  EXPECT_EQ(MspTestPeer::SessionCount(*msp_), 0u);
  EXPECT_EQ(msp_->epoch(), 1u);
  EXPECT_EQ(env_.stats().requests_replayed.load(), 0u);
}

TEST_F(MspRecoveryTest, EndedSessionsAreNotResurrected) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "__end_session", "", &reply).ok());
  CrashAndRestart();
  EXPECT_FALSE(MspTestPeer::HasSession(*msp_, session.session_id));
}

TEST_F(MspRecoveryTest, RequestsDuringRecoveryEventuallyServed) {
  // Crash with a populated log; issue a request immediately after Start
  // returns (sessions may still be replaying).
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
}

// A corrupt frame with valid frames after it is a mid-log tear: replaying
// the prefix would silently drop acknowledged requests, so Start() fails
// with a Corruption that names the torn LSN.
TEST_F(MspRecoveryTest, MidLogTearFailsStart) {
  audit::InvariantRegistry::Instance().ResetForTest();
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Crash();
  const std::vector<uint64_t> lsns = DurableLsns();
  ASSERT_GT(lsns.size(), 10u);
  const uint64_t torn = lsns[lsns.size() / 2];
  CorruptFrameAt(torn);

  Status st = msp_->Start();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("mid-log tear"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("lsn " + std::to_string(torn)),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().notes("log.mid-log-tear"), 1u);
  audit::InvariantRegistry::Instance().ResetForTest();
}

// A corrupt last frame is the clean end of the durable log: recovery
// succeeds and replays everything before it.
TEST_F(MspRecoveryTest, TornLastFrameIsACleanEndOfLog) {
  audit::InvariantRegistry::Instance().ResetForTest();
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Crash();
  const std::vector<uint64_t> lsns = DurableLsns();
  ASSERT_FALSE(lsns.empty());
  CorruptFrameAt(lsns.back());

  ASSERT_TRUE(msp_->Start().ok());
  const obs::RecoveryTimeline tl = msp_->LastRecoveryTimeline();
  uint64_t scannable = 0;
  for (uint64_t lsn : lsns) scannable += lsn >= tl.scan_start_lsn ? 1 : 0;
  EXPECT_EQ(tl.analysis_records_scanned, scannable - 1);
  auto& reg = audit::InvariantRegistry::Instance();
  EXPECT_EQ(reg.notes("log.mid-log-tear"), 0u);
  EXPECT_GE(reg.notes("log.crc-reject"), 1u);
  reg.ResetForTest();
}

}  // namespace
}  // namespace msplog
