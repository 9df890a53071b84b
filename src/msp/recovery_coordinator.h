// RecoveryCoordinator — the phased crash recovery that a log-based
// Msp::Start runs (§4.3, restructured for instant restart following the
// on-demand REDO design of Sauer & Härder):
//
//   1. RunAnalysis()          — epoch bump persisted to the anchor, state
//                               re-initialization from the MSP checkpoint,
//                               and ONE bounded analysis scan that builds
//                               every session's replay work-list (position
//                               stream). No session is replayed here.
//                               The chunks the scan reads stay behind as
//                               this recovery's log image (log_image.h).
//   2. PrepareOpen()          — recovery broadcast to the service domain and
//                               a fresh MSP checkpoint; after this the
//                               server is ready to accept traffic even
//                               though no session has replayed yet.
//   3. BeginBackgroundDrain() — invoked by Msp::Start once the mailbox is
//                               live: replays the remaining sessions in
//                               background priority order (smallest replay
//                               work-list first). The drain deliberately
//                               yields the pool between sessions so an
//                               on-demand replay — triggered by a request
//                               arriving for a not-yet-replayed session
//                               (Msp::HandleRequestMsg admission gate) —
//                               waits behind at most one background replay.
//                               Every replay takes its frames from the log
//                               image; the image is dropped once the drain
//                               empties (or the MSP crashes).
//
// A coordinator instance drives exactly one recovery; Msp::Start creates a
// fresh one per boot. Pool tasks capture the coordinator raw: Crash/Shutdown
// join the pool before the next Start can replace the instance.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "audit/mutex.h"
#include "common/status.h"
#include "log/log_image.h"

namespace msplog {

class Msp;

class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(Msp* msp) : msp_(msp) {}

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Phase 1 — the bounded analysis pass. On return every surviving session
  /// exists (marked recovering) with its replay positions reconstructed,
  /// shared variables are rolled forward, and the outage report is joined
  /// with the flight recorder's frozen pre-crash bundle.
  Status RunAnalysis();

  /// Phase 2 — recovery broadcast + fresh MSP checkpoint (Fig. 12). After
  /// this returns, accepting traffic is safe: replay happens per session,
  /// on demand or in the background.
  Status PrepareOpen();

  /// Phase 3 — stamp the open-for-traffic moment and start draining the
  /// not-yet-replayed sessions in the background, smallest work-list first.
  void BeginBackgroundDrain();

  /// The log image the analysis scan built, or null once dropped. Readers
  /// keep the returned pointer for as long as they read from it.
  std::shared_ptr<const LogImage> image() const;
  /// Release the image (drain empty, or the MSP crashed).
  void DropImage();

 private:
  /// One background drain step: claim and replay the next pending session
  /// from the priority queue, then resubmit itself while work remains.
  void DrainStep();

  Msp* msp_;
  uint32_t old_epoch_ = 0;     ///< epoch of the failure-free period that ended
  uint64_t msp_cp_lsn_ = 0;    ///< anchor's MSP checkpoint at boot
  uint64_t sessions_to_recover_ = 0;

  audit::Mutex queue_mu_{"recovery_coordinator.queue"};
  /// Session ids still awaiting a background replay, priority order.
  std::deque<std::string> drain_queue_ GUARDED_BY(queue_mu_);

  mutable audit::Mutex image_mu_{"recovery_coordinator.image"};
  std::shared_ptr<const LogImage> image_ GUARDED_BY(image_mu_);
};

}  // namespace msplog
