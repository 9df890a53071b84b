// Crash demo — a guided tour of the recovery machinery, with log dumps.
//
// Shows what actually lands in the single physical log (§3): session starts,
// request receives, value-logged shared reads/writes with their dependency
// vectors and backward chains, checkpoints, the ARIES-style anchor — then
// crashes the MSP and narrates crash recovery (§4.3), and finally provokes
// an orphan (§4.1) to show the EOS record.
//
//   build/examples/crash_demo
#include <atomic>
#include <cstdio>
#include <sstream>
#include <thread>

#include "log/log_anchor.h"
#include "msp/log_inspect.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

using namespace msplog;

namespace {

/// Print the first 40 records of `file` and the offline inspector's
/// invariant verdict (msp/log_inspect.h: the same walk `msplog` does, with
/// its mid-log-tear rule). Returns whether the invariants hold.
bool DumpLog(SimDisk* disk, const std::string& file, const char* title) {
  printf("\n--- %s (%llu durable bytes) ---\n", title,
         (unsigned long long)disk->FileSize(file));
  LogInspectOptions opts;
  opts.dump_records = true;
  LogInspectReport report;
  std::string dump;
  if (!InspectLogImage(disk, file, opts, &report, &dump).ok()) {
    printf("  cannot read %s\n", file.c_str());
    return false;
  }
  std::istringstream lines(dump);
  std::string line;
  for (int shown = 0; std::getline(lines, line); ++shown) {
    if (shown == 40) {
      printf("  ... (truncated)\n");
      break;
    }
    printf("  %s\n", line.c_str());
  }
  const std::string summary = report.Summary();
  printf("%s", summary.substr(summary.find("invariants:")).c_str());
  return report.invariant_violations.empty();
}

}  // namespace

int main() {
  SimEnvironment env(0.0);
  SimNetwork network(&env);
  SimDisk disk_a(&env, "disk-a");
  SimDisk disk_b(&env, "disk-b");
  DomainDirectory domains;
  domains.Assign("alpha", "demo-domain");
  domains.Assign("beta", "demo-domain");  // same domain: optimistic logging

  MspConfig ca, cb;
  ca.id = "alpha";
  cb.id = "beta";
  Msp alpha(&env, &network, &disk_a, &domains, ca);
  Msp beta(&env, &network, &disk_b, &domains, cb);

  // `hold` parks the method after the audit call (normal execution only),
  // so the demo can crash beta while alpha still holds an unflushed
  // dependency on it — the deterministic way to manufacture an orphan.
  static std::atomic<bool> hold{false};
  static std::atomic<bool> held{false};
  alpha.RegisterSharedVariable("balance", "1000");
  alpha.RegisterMethod(
      "transfer", [](ServiceContext* ctx, const Bytes& amount, Bytes* r) {
        Bytes bal;
        MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("balance", &bal));
        long b = std::stol(bal) - std::stol(Bytes(amount));
        MSPLOG_RETURN_IF_ERROR(ctx->WriteShared("balance", std::to_string(b)));
        Bytes audit;
        MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "audit", amount, &audit));
        if (!ctx->in_replay()) {
          held.store(true);
          while (hold.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        ctx->SetSessionVar("last_transfer", amount);
        *r = "balance=" + std::to_string(b) + " " + audit;
        return Status::OK();
      });
  beta.RegisterMethod("audit", [](ServiceContext*, const Bytes& a, Bytes* r) {
    *r = "(audited " + a + ")";
    return Status::OK();
  });

  if (!beta.Start().ok() || !alpha.Start().ok()) return 1;

  ClientEndpoint client(&env, &network, "teller");
  ClientSession session = client.StartSession("alpha");
  Bytes reply;
  printf("== normal execution: every nondeterministic event is logged ==\n");
  for (int i = 0; i < 2; ++i) {
    client.Call(&session, "transfer", "50", &reply);
    printf("transfer -> %s\n", reply.c_str());
  }
  alpha.log()->FlushAll();
  bool healthy = DumpLog(&disk_a, "alpha.log", "alpha's physical log");
  printf("\nnote: SharedRead records carry the value AND the variable's DV "
         "(value logging, §3.3);\nSharedWrite records carry prev_lsn= back-"
         "pointers (the undo chain); ReplyReceive\nrecords carry the "
         "callee's DV (optimistic intra-domain message, §3.1).\n");

  printf("\n== checkpoints bound the recovery scan (§3.4) ==\n");
  alpha.ForceCheckpoint(msplog::CheckpointTarget::Session(session.session_id));
  alpha.ForceCheckpoint(msplog::CheckpointTarget::Msp());
  LogAnchor anchor(&disk_a, "alpha.anchor");
  AnchorData ad;
  anchor.Read(&ad);
  printf("anchor: MSP checkpoint at LSN %llu, epoch %u\n",
         (unsigned long long)ad.msp_checkpoint_lsn, ad.epoch);

  printf("\n== crash & recovery (§4.3) ==\n");
  alpha.Crash();
  printf("alpha crashed. restarting...\n");
  if (!alpha.Start().ok()) return 1;
  printf("alpha recovered: epoch %u, analysis scan %.2f model ms, "
         "balance=%s\n", alpha.epoch(),
         alpha.LastRecoveryTimeline().analysis_scan_ms,
         alpha.PeekSharedValue("balance")->c_str());
  client.Call(&session, "transfer", "50", &reply);
  printf("transfer after recovery -> %s\n", reply.c_str());

  printf("\n== orphan recovery (§4.1): beta dies holding unflushed state ==\n");
  // beta's records for the next audit call are only in its volatile buffer
  // (optimistic intra-domain exchange, never flushed). We park alpha's
  // method right after the audit reply, kill beta, and release: alpha's
  // reply flush fails, its session is an orphan, recovery cuts at the
  // orphan ReplyReceive record (writing an EOS record) and re-executes the
  // request live against the recovered beta.
  hold.store(true);
  held.store(false);
  std::thread killer([&] {
    while (!held.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    beta.Crash();
    beta.Start();
    hold.store(false);
  });
  client.Call(&session, "transfer", "50", &reply);
  killer.join();
  printf("transfer during beta's crash -> %s\n", reply.c_str());
  printf("orphans detected so far: %llu\n",
         (unsigned long long)env.stats().orphans_detected.load());
  alpha.log()->FlushAll();
  healthy &= DumpLog(&disk_a, "alpha.log", "alpha's log after orphan recovery");
  printf("\n(an Eos record pointing back at the orphan record means this "
         "session's skipped\nsuffix stays invisible to every future "
         "recovery, §4.1)\n");

  printf("\nfinal balance: %s (started at 1000, 4 transfers of 50)\n",
         alpha.PeekSharedValue("balance")->c_str());

  alpha.Shutdown();
  beta.Shutdown();
  return healthy ? 0 : 1;
}
