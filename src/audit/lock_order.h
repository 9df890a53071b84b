// LockOrderRegistry — runtime lock-order (deadlock-potential) detection.
//
// Every audit::Mutex / audit::SharedMutex registers itself here with a name.
// Each thread keeps a stack of the lock instances it currently holds; when a
// thread that holds A blocks on B, the directed edge A→B ("A held while
// acquiring B") is added to a global graph. A cycle in that graph is a
// potential deadlock — two call paths acquire the same locks in opposite
// orders — and is reported immediately with the full cycle path, BEFORE the
// acquisition blocks, so even a real deadlock produces a diagnostic instead
// of a silent hang.
//
// Edges are per lock *instance*, not per lock class, so two different
// SharedVariable locks acquired in a fixed order never alias. Detection is
// edge-triggered: a cycle is reported once per offending edge insertion and
// counted every time. By default detection reports to stderr and keeps
// going; tests (and paranoid callers) can make it abort via set_fatal().
//
// Cost model: acquiring a lock while holding NO other lock is the common
// case and touches only a thread-local vector. Nested acquisitions take one
// internal mutex and do set lookups; the DFS runs only when a brand-new
// edge appears (bounded by the number of distinct lock pairs).
//
// This file intentionally uses std::mutex internally — the tracker cannot
// be built out of the wrappers it implements. scripts/lint_msplog.py
// exempts src/audit from the no-std::mutex rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msplog {
namespace audit {

using LockId = uint32_t;

class LockOrderRegistry {
 public:
  static LockOrderRegistry& Instance();

  /// Register a lock instance; returns its id (never reused).
  LockId Register(const char* name);
  /// Remove a destroyed lock instance and every edge touching it.
  void Unregister(LockId id);

  /// Called BEFORE blocking on the native mutex: records held→id edges and
  /// runs cycle detection on any new edge.
  void OnAcquire(LockId id);
  /// Called after the native mutex is owned: pushes onto the thread stack.
  /// `shared` records the ownership mode for AssertHeldByThisThread.
  void OnAcquired(LockId id, bool shared = false);
  /// Called before the native unlock: removes from the thread stack (the
  /// release order need not be LIFO).
  void OnRelease(LockId id);

  /// Runtime twin of a static REQUIRES / REQUIRES_SHARED contract
  /// (audit/annotations.h): true iff the calling thread holds `id` —
  /// exclusively, or in either mode when `shared_ok`. A failed assert is
  /// reported as a "lock-assert-held" violation through the invariant sink
  /// (audit/invariants.h) with the lock's name; like every auditor check it
  /// is non-fatal by default. The success path is one scan of the
  /// thread-local held-set — no locking, no allocation.
  bool AssertHeldByThisThread(LockId id, bool shared_ok) const;

  /// Number of cycle detections so far (every occurrence counts).
  uint64_t cycles_detected() const;
  /// Human-readable reports, most recent first capped at kMaxReports.
  std::vector<std::string> reports() const;
  /// Abort the process on detection (default: report and continue).
  void set_fatal(bool v);

  /// Drop the accumulated graph, counters and reports. Live registrations
  /// survive. Test-only: concurrent lock traffic during the reset races.
  void ResetForTest();

  /// Names of the locks held by the calling thread, in acquisition order —
  /// the held-lock summary a flight-recorder bundle carries.
  std::vector<std::string> HeldNamesByThisThread() const;

 private:
  LockOrderRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace audit
}  // namespace msplog
