// Tests for the runtime correctness auditor (src/audit): lock-order cycle
// detection around audit::Mutex, the invariant registry, and the protocol
// checkers wired into the MSP / log scanner hot paths. Each injected fault
// must fail loudly through the auditor — these are the ISSUE's "the alarm
// actually rings" tests.
#include <gtest/gtest.h>

#include <thread>

#include "audit/invariants.h"
#include "audit/lock_order.h"
#include "audit/mutex.h"
#include "log/log_file.h"
#include "log/log_record.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"
#include "msp_test_peer.h"

// TSan ships its own lock-order-inversion detector, which (correctly) flags
// the deliberate inversions these tests stage to exercise ours. Skip the
// staged-inversion tests under TSan; everything else runs everywhere.
#if defined(__SANITIZE_THREAD__)
#define MSPLOG_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MSPLOG_UNDER_TSAN 1
#endif
#endif
#ifndef MSPLOG_UNDER_TSAN
#define MSPLOG_UNDER_TSAN 0
#endif

#define MSPLOG_SKIP_UNDER_TSAN()                                          \
  do {                                                                    \
    if (MSPLOG_UNDER_TSAN) {                                              \
      GTEST_SKIP() << "staged lock inversion trips TSan's own detector";  \
    }                                                                     \
  } while (0)

namespace msplog {
namespace {

#if MSPLOG_AUDIT_ENABLED

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override { audit::LockOrderRegistry::Instance().ResetForTest(); }
  void TearDown() override {
    audit::LockOrderRegistry::Instance().ResetForTest();
  }
};

TEST_F(LockOrderTest, ConsistentOrderIsClean) {
  audit::Mutex a("test.a");
  audit::Mutex b("test.b");
  for (int i = 0; i < 3; ++i) {
    audit::LockGuard la(a);
    audit::LockGuard lb(b);
  }
  EXPECT_EQ(audit::LockOrderRegistry::Instance().cycles_detected(), 0u);
}

TEST_F(LockOrderTest, TwoMutexCycleIsDetected) {
  MSPLOG_SKIP_UNDER_TSAN();
  audit::Mutex a("test.a");
  audit::Mutex b("test.b");
  {
    audit::LockGuard la(a);
    audit::LockGuard lb(b);  // edge a -> b
  }
  {
    audit::LockGuard lb(b);
    audit::LockGuard la(a);  // edge b -> a: cycle, single-threaded and
                             // deterministic — no deadlock needed to trip it
  }
  auto& reg = audit::LockOrderRegistry::Instance();
  EXPECT_GE(reg.cycles_detected(), 1u);
  ASSERT_FALSE(reg.reports().empty());
  EXPECT_NE(reg.reports()[0].find("test."), std::string::npos);
}

TEST_F(LockOrderTest, ThreeMutexCycleAcrossThreadsIsDetected) {
  MSPLOG_SKIP_UNDER_TSAN();
  audit::Mutex a("test.a");
  audit::Mutex b("test.b");
  audit::Mutex c("test.c");
  // Build a -> b and b -> c on one thread, then close the cycle c -> a on
  // another; detection is at edge insertion, not at deadlock time.
  {
    audit::LockGuard la(a);
    audit::LockGuard lb(b);
  }
  {
    audit::LockGuard lb(b);
    audit::LockGuard lc(c);
  }
  std::thread t([&] {
    audit::LockGuard lc(c);
    audit::LockGuard la(a);
  });
  t.join();
  EXPECT_GE(audit::LockOrderRegistry::Instance().cycles_detected(), 1u);
}

TEST_F(LockOrderTest, SharedMutexParticipatesInOrdering) {
  MSPLOG_SKIP_UNDER_TSAN();
  audit::SharedMutex a("test.rw_a");
  audit::Mutex b("test.b");
  {
    audit::SharedLock la(a);
    audit::LockGuard lb(b);
  }
  {
    audit::LockGuard lb(b);
    audit::SharedUniqueLock la(a);
  }
  EXPECT_GE(audit::LockOrderRegistry::Instance().cycles_detected(), 1u);
}

TEST_F(LockOrderTest, UnregisterPrunesGraph) {
  // TSan keys its own inversion detector on addresses; tmp and tmp2 reuse a
  // stack slot and look like one mutex to it, while our registry correctly
  // treats them as distinct instances.
  MSPLOG_SKIP_UNDER_TSAN();
  audit::Mutex a("test.a");
  {
    audit::Mutex tmp("test.tmp");
    audit::LockGuard la(a);
    audit::LockGuard lt(tmp);
  }  // tmp destroyed: its node and edges must go with it
  {
    audit::Mutex tmp2("test.tmp2");
    audit::LockGuard lt(tmp2);
    audit::LockGuard la(a);
  }
  // tmp2 is a fresh id; no cycle exists unless stale edges survived.
  EXPECT_EQ(audit::LockOrderRegistry::Instance().cycles_detected(), 0u);
}

class InvariantTest : public ::testing::Test {
 protected:
  void SetUp() override { audit::InvariantRegistry::Instance().ResetForTest(); }
  void TearDown() override {
    audit::InvariantRegistry::Instance().ResetForTest();
  }
};

TEST_F(InvariantTest, CheckersAcceptLegalTransitions) {
  DependencyVector before, after;
  before.Set("m1", {1, 100});
  after.Set("m1", {1, 200});
  after.Set("m2", {0, 50});
  audit::CheckDvMonotonic("t", before, after);
  audit::CheckDvSelfMonotonic("t", "m1", before, StateId{1, 101});
  audit::CheckLsnAdvance("t", 512, 512);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

TEST_F(InvariantTest, DvRegressionIsViolation) {
  DependencyVector before, after;
  before.Set("m1", {1, 200});
  after.Set("m1", {1, 100});  // went backwards
  audit::CheckDvMonotonic("t", before, after);
  EXPECT_EQ(audit::InvariantRegistry::Instance().violations("dv-monotonic"),
            1u);
}

TEST_F(InvariantTest, DroppedEntryIsViolation) {
  DependencyVector before, after;
  before.Set("m1", {1, 200});
  before.Set("m2", {3, 10});
  after.Set("m1", {1, 300});  // m2 entry silently vanished
  audit::CheckDvMonotonic("t", before, after);
  EXPECT_GE(audit::InvariantRegistry::Instance().violations("dv-monotonic"),
            1u);
}

TEST_F(InvariantTest, WalBeforeSendCatchesUndurableSelfEntry) {
  DependencyVector dv;
  dv.Set("m1", {2, 4096});
  // LSNs are frame-start offsets: durable means strictly below durable_lsn.
  audit::CheckWalBeforeSend("t", "m1", 2, dv, /*durable_lsn=*/8192);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
  audit::CheckWalBeforeSend("t", "m1", 2, dv, /*durable_lsn=*/1024);
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("wal-before-send"), 1u);
}

TEST_F(InvariantTest, RecoveredTableMustDominateOldEpochs) {
  RecoveredStateTable table;
  table.Record("m1", /*epoch=*/0, /*sn=*/1000);
  DependencyVector ok_dv, bad_dv;
  ok_dv.Set("m1", {0, 900});   // covered by the table
  bad_dv.Set("m1", {0, 1500}); // depends on a state the table proves lost
  audit::CheckRecoveredDominates("t", table, "m1", /*current_epoch=*/1, ok_dv);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
  audit::CheckRecoveredDominates("t", table, "m1", /*current_epoch=*/1,
                                 bad_dv);
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("recovery-dominates"),
      1u);
}

// ---------------------------------------------------------------------------
// AssertHeld / AssertSharedHeld — the runtime twin of the clang REQUIRES
// annotations. Violations report through the invariant sink as
// "lock-assert-held".
// ---------------------------------------------------------------------------

TEST_F(InvariantTest, AssertHeldPassesWhileHeld) {
  audit::Mutex m("test.assert");
  {
    audit::LockGuard lk(m);
    m.AssertHeld();
  }
  {
    audit::UniqueLock lk(m);
    m.AssertHeld();
  }
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("lock-assert-held"),
      0u);
}

TEST_F(InvariantTest, AssertHeldRingsWhenNotHeld) {
  audit::Mutex m("test.assert");
  m.AssertHeld();  // nothing held at all
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("lock-assert-held"),
      1u);
  // An unlock window (the DoFlushLocked I/O pattern) drops the held-set
  // entry too: asserting inside the window must ring.
  audit::UniqueLock lk(m);
  lk.unlock();
  m.AssertHeld();
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("lock-assert-held"),
      2u);
  lk.lock();  // dtor expects ownership state to match
}

TEST_F(InvariantTest, AssertHeldIsPerThread) {
  // Ownership by SOME thread is not enough: the contract is about the
  // calling thread.
  audit::Mutex m("test.assert");
  audit::LockGuard lk(m);
  std::thread t([&] { m.AssertHeld(); });
  t.join();
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("lock-assert-held"),
      1u);
}

TEST_F(InvariantTest, SharedAssertDistinguishesReaderFromWriter) {
  audit::SharedMutex rw("test.assert_rw");
  {
    audit::SharedLock lk(rw);
    rw.AssertSharedHeld();  // a reader satisfies the shared contract
    EXPECT_EQ(
        audit::InvariantRegistry::Instance().violations("lock-assert-held"),
        0u);
    rw.AssertHeld();  // ... but not the exclusive one
    EXPECT_EQ(
        audit::InvariantRegistry::Instance().violations("lock-assert-held"),
        1u);
  }
  {
    audit::SharedUniqueLock lk(rw);
    rw.AssertHeld();        // a writer satisfies the exclusive contract
    rw.AssertSharedHeld();  // ... and subsumes the shared one
  }
  EXPECT_EQ(
      audit::InvariantRegistry::Instance().violations("lock-assert-held"),
      1u);
}

// ---------------------------------------------------------------------------
// End-to-end: injected faults must ring through the wired-in checkers.
// ---------------------------------------------------------------------------

TEST_F(InvariantTest, ScannerRejectsFlippedCrcByteAndNotes) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  uint64_t l1 = log.Append([] {
    LogRecord r;
    r.type = LogRecordType::kRequestReceive;
    r.session_id = "s";
    r.seqno = 1;
    r.payload = "good";
    return r;
  }());
  uint64_t l2 = log.Append([] {
    LogRecord r;
    r.type = LogRecordType::kRequestReceive;
    r.session_id = "s";
    r.seqno = 2;
    r.payload = "to-corrupt";
    return r;
  }());
  ASSERT_TRUE(log.FlushAll().ok());

  // Flip one byte inside the second record's body ([len][crc] is 8 bytes).
  Bytes raw;
  ASSERT_TRUE(disk.ReadAt("log", l2 + 10, 1, &raw).ok());
  raw[0] ^= 0x01;
  ASSERT_TRUE(disk.WriteAt("log", l2 + 10, raw).ok());

  LogScanner scanner(&disk, "log", 0, disk.FileSize("log"));
  LogRecord r;
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.lsn, l1);
  EXPECT_TRUE(scanner.Next(&r).IsCorruption());
  EXPECT_GE(audit::InvariantRegistry::Instance().notes("log.crc-reject"), 1u);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

TEST_F(InvariantTest, InjectedDvRegressionTripsAuditorOnNextRequest) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "da");
  DomainDirectory directory;
  MspConfig c;
  c.id = "alpha";
  c.mode = RecoveryMode::kLogBased;
  c.checkpoint_daemon = false;
  directory.Assign("alpha", "domA");
  Msp msp(&env, &net, &disk, &directory, c);
  msp.RegisterMethod("echo",
                     [](ServiceContext*, const Bytes& arg, Bytes* result) {
                       *result = "echo:" + arg;
                       return Status::OK();
                     });
  ASSERT_TRUE(msp.Start().ok());

  ClientEndpoint client(&env, &net, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "echo", "one", &reply).ok());
  EXPECT_EQ(audit::InvariantRegistry::Instance().violations("dv-monotonic"),
            0u);

  // Simulate a dependency-dropping bug between requests; the next request's
  // entry check must see the session DV below its shadow and ring.
  MspTestPeer::InjectDvRegression(msp, session.session_id);
  ASSERT_TRUE(client.Call(&session, "echo", "two", &reply).ok());
  EXPECT_GE(audit::InvariantRegistry::Instance().violations("dv-monotonic"),
            1u);
  msp.Shutdown();
}

TEST_F(InvariantTest, CleanRunStaysSilent) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "da");
  DomainDirectory directory;
  MspConfig c;
  c.id = "alpha";
  c.mode = RecoveryMode::kLogBased;
  c.checkpoint_daemon = false;
  directory.Assign("alpha", "domA");
  Msp msp(&env, &net, &disk, &directory, c);
  msp.RegisterMethod("echo",
                     [](ServiceContext*, const Bytes& arg, Bytes* result) {
                       *result = "echo:" + arg;
                       return Status::OK();
                     });
  ASSERT_TRUE(msp.Start().ok());
  ClientEndpoint client(&env, &net, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "echo", std::to_string(i), &reply).ok());
  }
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
  msp.Shutdown();
}

#else  // !MSPLOG_AUDIT_ENABLED

// The MSPLOG_AUDIT=OFF shells must stay zero-cost: exactly the wrapped std
// lock, no auditor id, no extra state. (The thread-safety annotations are
// attributes and cost nothing either way.)
static_assert(sizeof(audit::Mutex) == sizeof(std::mutex),
              "audit-off Mutex shell must add no state");
static_assert(sizeof(audit::SharedMutex) == sizeof(std::shared_mutex),
              "audit-off SharedMutex shell must add no state");

TEST(AuditDisabled, WrappersStillLock) {
  audit::Mutex m("noop");
  audit::LockGuard lk(m);
  audit::CheckLsnAdvance("t", 100, 0);  // no-op, must not fire anything
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

TEST(AuditDisabled, AssertHeldIsANoOp) {
  audit::Mutex m("noop");
  m.AssertHeld();  // not held; the disabled twin must not ring or crash
  audit::SharedMutex rw("noop.rw");
  rw.AssertHeld();
  rw.AssertSharedHeld();
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

#endif  // MSPLOG_AUDIT_ENABLED

}  // namespace
}  // namespace msplog
