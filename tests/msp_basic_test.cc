// Tests for normal execution of a recoverable MSP (§2, §3): sessions,
// session variables, shared-variable value logging, duplicate detection,
// inter-MSP calls, locally optimistic vs pessimistic flushing.
#include <gtest/gtest.h>

#include <thread>

#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"
#include "msp_test_peer.h"

namespace msplog {
namespace {

// One MSP ("alpha") optionally joined by a second ("beta"), with a client.
class MspBasicTest : public ::testing::Test {
 protected:
  MspBasicTest() : env_(0.0), net_(&env_), disk_a_(&env_, "da"),
                   disk_b_(&env_, "db") {}

  void TearDown() override {
    if (alpha_) alpha_->Shutdown();
    if (beta_) beta_->Shutdown();
  }

  MspConfig BaseConfig(const std::string& id) {
    MspConfig c;
    c.id = id;
    c.mode = RecoveryMode::kLogBased;
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 0;  // explicit control in tests
    c.shared_var_checkpoint_threshold_writes = 0;
    return c;
  }

  void StartAlpha(MspConfig c) {
    directory_.Assign(c.id, "domA");
    alpha_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_, c);
    RegisterEcho(alpha_.get());
    ASSERT_TRUE(alpha_->Start().ok());
  }

  void StartBeta(MspConfig c, const std::string& domain) {
    directory_.Assign(c.id, domain);
    beta_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_, c);
    RegisterEcho(beta_.get());
    ASSERT_TRUE(beta_->Start().ok());
  }

  static void RegisterEcho(Msp* msp) {
    msp->RegisterMethod("echo", [](ServiceContext* ctx, const Bytes& arg,
                                   Bytes* result) {
      (void)ctx;
      *result = "echo:" + arg;
      return Status::OK();
    });
    msp->RegisterMethod(
        "set_var", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          ctx->SetSessionVar("v", arg);
          *result = "ok";
          return Status::OK();
        });
    msp->RegisterMethod(
        "get_var", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          (void)arg;
          *result = ctx->GetSessionVar("v");
          return Status::OK();
        });
    msp->RegisterMethod(
        "counter", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          (void)arg;
          Bytes cur = ctx->GetSessionVar("n");
          int n = cur.empty() ? 0 : std::stoi(cur);
          ctx->SetSessionVar("n", std::to_string(n + 1));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp->RegisterMethod(
        "shared_rmw", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          Bytes cur;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("counter", &cur));
          int n = cur.empty() ? 0 : std::stoi(cur);
          (void)arg;
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("counter", std::to_string(n + 1)));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp->RegisterMethod(
        "rmw_named",
        [](ServiceContext* ctx, const Bytes& name, Bytes* result) {
          Bytes cur;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared(Bytes(name), &cur));
          int n = cur.empty() ? 0 : std::stoi(cur);
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared(Bytes(name), std::to_string(n + 1)));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp->RegisterMethod(
        "relay", [msp](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          // arg = "<target>|<method>|<payload>"
          auto p1 = arg.find('|');
          auto p2 = arg.find('|', p1 + 1);
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call(arg.substr(0, p1),
                                           arg.substr(p1 + 1, p2 - p1 - 1),
                                           arg.substr(p2 + 1), &reply));
          *result = "relayed:" + reply;
          return Status::OK();
        });
    msp->RegisterMethod("fail", [](ServiceContext*, const Bytes&, Bytes*) {
      return Status::InvalidArgument("deliberate failure");
    });
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_;
  SimDisk disk_b_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> alpha_;
  std::unique_ptr<Msp> beta_;
};

TEST_F(MspBasicTest, EchoRequest) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "echo", "hello", &reply).ok());
  EXPECT_EQ(reply, "echo:hello");
}

TEST_F(MspBasicTest, SessionVariablesPersistAcrossRequests) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "set_var", "payload42", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "get_var", "", &reply).ok());
  EXPECT_EQ(reply, "payload42");
}

TEST_F(MspBasicTest, SessionsAreIsolated) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto s1 = client.StartSession("alpha");
  auto s2 = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&s1, "set_var", "one", &reply).ok());
  ASSERT_TRUE(client.Call(&s2, "set_var", "two", &reply).ok());
  ASSERT_TRUE(client.Call(&s1, "get_var", "", &reply).ok());
  EXPECT_EQ(reply, "one");
  ASSERT_TRUE(client.Call(&s2, "get_var", "", &reply).ok());
  EXPECT_EQ(reply, "two");
}

TEST_F(MspBasicTest, SharedVariableVisibleAcrossSessions) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto s1 = client.StartSession("alpha");
  auto s2 = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&s1, "shared_rmw", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  ASSERT_TRUE(client.Call(&s2, "shared_rmw", "", &reply).ok());
  EXPECT_EQ(reply, "2");
}

TEST_F(MspBasicTest, ConcurrentSharedAccessPerVariableIsSafe) {
  // §2.2: read/write locks are held only for the duration of EACH access —
  // a read-modify-write across two accesses is deliberately NOT atomic
  // (that is application-level concern, as in the paper's model). Each
  // client therefore counts in its own shared variable, where single-access
  // atomicity guarantees exact results under full concurrency.
  auto cfg = BaseConfig("alpha");
  cfg.thread_pool_size = 8;
  StartAlpha(cfg);
  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
      auto s = client.StartSession("alpha");
      Bytes reply;
      for (int r = 0; r < kPerClient; ++r) {
        // relay-free RMW on a per-client variable via session-scoped method
        ASSERT_TRUE(client
                        .Call(&s, "rmw_named", "counter" + std::to_string(i),
                              &reply)
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    auto v = alpha_->PeekSharedValue("counter" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, std::to_string(kPerClient));
  }
}

TEST_F(MspBasicTest, DuplicateRequestGetsBufferedReplyNotReexecution) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  // Replay the same request seqno manually: the MSP must resend the
  // buffered reply ("1") rather than increment again.
  session.next_seqno = 1;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  auto v = MspTestPeer::PeekSessionVar(*alpha_, session.session_id, "n");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
}

TEST_F(MspBasicTest, ExactlyOnceUnderLossyDuplicatingNetwork) {
  StartAlpha(BaseConfig("alpha"));
  FaultPlan faults;
  faults.drop_prob = 0.3;
  faults.duplicate_prob = 0.3;
  net_.SetFaults("cli", "alpha", faults);
  net_.SetFaults("alpha", "cli", faults);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));  // each request counted exactly once
  }
}

TEST_F(MspBasicTest, AppErrorPropagatesButSessionSurvives) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  EXPECT_FALSE(client.Call(&session, "fail", "", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "echo", "still-alive", &reply).ok());
  EXPECT_EQ(reply, "echo:still-alive");
}

TEST_F(MspBasicTest, UnknownMethodIsAppError) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  EXPECT_FALSE(client.Call(&session, "no_such_method", "", &reply).ok());
}

TEST_F(MspBasicTest, CrossMspCallSameDomain) {
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domA");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|ping", &reply).ok());
  EXPECT_EQ(reply, "relayed:echo:ping");
}

TEST_F(MspBasicTest, CrossMspCallCrossDomain) {
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domB");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|ping", &reply).ok());
  EXPECT_EQ(reply, "relayed:echo:ping");
}

TEST_F(MspBasicTest, OptimisticIntraDomainUsesFewerFlushesThanPessimistic) {
  // Same topology twice; count physical log flushes per request.
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domA");  // same domain: optimistic
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|x", &reply).ok());
  auto s0 = env_.stats().Snap();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|x", &reply).ok());
  }
  auto s1 = env_.stats().Snap();
  uint64_t optimistic_flushes = s1.disk_flushes - s0.disk_flushes;

  alpha_->Shutdown();
  beta_->Shutdown();
  disk_a_.Format();
  disk_b_.Format();
  directory_.Assign("beta", "domB");  // split domains: pessimistic
  ASSERT_TRUE(beta_->Start().ok());
  ASSERT_TRUE(alpha_->Start().ok());
  auto session2 = client.StartSession("alpha");
  ASSERT_TRUE(client.Call(&session2, "relay", "beta|echo|x", &reply).ok());
  auto s2 = env_.stats().Snap();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session2, "relay", "beta|echo|x", &reply).ok());
  }
  auto s3 = env_.stats().Snap();
  uint64_t pessimistic_flushes = s3.disk_flushes - s2.disk_flushes;

  // §5.2: pessimistic needs 3 flushes per request; locally optimistic needs
  // one distributed flush (two local flushes in parallel).
  EXPECT_LT(optimistic_flushes, pessimistic_flushes);
}

TEST_F(MspBasicTest, IntraDomainMessagesCarryDvs) {
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domA");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  auto before = env_.stats().Snap();
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|x", &reply).ok());
  auto after = env_.stats().Snap();
  EXPECT_GT(after.dv_entries_attached, before.dv_entries_attached);
}

TEST_F(MspBasicTest, CrossDomainMessagesCarryNoDvs) {
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domB");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  auto before = env_.stats().Snap();
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|x", &reply).ok());
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.dv_entries_attached, before.dv_entries_attached);
}

TEST_F(MspBasicTest, ReplyToEndClientIsFlushedFirst) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "echo", "x", &reply).ok());
  // Everything the session logged must be durable: end clients are outside
  // every service domain, so the reply leg is pessimistic (§3.1).
  EXPECT_GE(alpha_->log()->durable_lsn(), 1u);
  auto positions = MspTestPeer::PeekPositionStream(*alpha_, session.session_id);
  ASSERT_FALSE(positions.empty());
  EXPECT_LT(positions.back(), alpha_->log()->durable_lsn());
}

TEST_F(MspBasicTest, EndSessionWritesEndRecordAndStopsService) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "echo", "x", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "__end_session", "", &reply).ok());
  // Further requests on the ended session get a definitive error (not
  // silence): the client must not retry forever.
  ClientEndpoint client2(&env_, &net_, "cli2");
  ClientSession dead = session;
  Status st = client2.Call(&dead, "echo", "x", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsTimedOut());
  EXPECT_EQ(reply, "session ended");
}

TEST_F(MspBasicTest, EndSessionCascadesToOutgoingSessions) {
  StartAlpha(BaseConfig("alpha"));
  StartBeta(BaseConfig("beta"), "domA");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay", "beta|echo|x", &reply).ok());
  const std::string out_id = "alpha/" + session.session_id + ">beta";
  EXPECT_TRUE(MspTestPeer::HasSession(*beta_, out_id));
  ASSERT_TRUE(client.Call(&session, "__end_session", "", &reply).ok());
  // The outgoing session at beta ended with it (§2.1: sessions are started
  // and ended by client requests — alpha is beta's client here).
  auto seq = MspTestPeer::PeekNextExpectedSeqno(*beta_, out_id);
  // Either fully removed by a later recovery or marked ended; a fresh call
  // on it must fail definitively.
  ClientEndpoint probe(&env_, &net_, "probe");
  ClientSession dead;
  dead.msp = "beta";
  dead.session_id = out_id;
  dead.next_seqno = seq.ok() ? *seq : 99;
  Status st = probe.Call(&dead, "echo", "x", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsTimedOut());
}

TEST_F(MspBasicTest, SessionCheckpointTruncatesPositionStream) {
  auto cfg = BaseConfig("alpha");
  StartAlpha(cfg);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  EXPECT_GE(
      MspTestPeer::PeekPositionStream(*alpha_, session.session_id).size(), 5u);
  ASSERT_TRUE(alpha_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  EXPECT_TRUE(
      MspTestPeer::PeekPositionStream(*alpha_, session.session_id).empty());
  // Service continues normally after the checkpoint.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "6");
}

TEST_F(MspBasicTest, MspCheckpointUpdatesAnchor) {
  StartAlpha(BaseConfig("alpha"));
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "echo", "x", &reply).ok());
  ASSERT_TRUE(alpha_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  LogAnchor anchor(&disk_a_, "alpha.anchor");
  AnchorData ad;
  ASSERT_TRUE(anchor.Read(&ad).ok());
  EXPECT_GT(ad.msp_checkpoint_lsn, 0u);
  EXPECT_EQ(ad.epoch, 1u);
}

}  // namespace
}  // namespace msplog
