// audit::Mutex / audit::SharedMutex — drop-in lock wrappers that feed the
// LockOrderRegistry (lock_order.h). These are THE lock types of this
// codebase: scripts/lint_msplog.py rejects naked std::mutex /
// std::shared_mutex / std::condition_variable anywhere outside src/audit.
//
// With MSPLOG_AUDIT=ON (the default) every acquisition is tracked: held-set
// per thread, lock-order edge graph, cycle detection with an immediate
// diagnostic. With MSPLOG_AUDIT=OFF the wrappers are inline forwarding
// shells around std::mutex / std::shared_mutex — zero added state, zero
// added calls — so release builds pay nothing.
//
// The wrappers are also the tree's thread-safety CAPABILITIES
// (audit/annotations.h): clang's -Werror=thread-safety build proves
// statically that every GUARDED_BY member is touched under its lock, and
// AssertHeld() / AssertSharedHeld() are the runtime twins of that proof —
// they check the LockOrderRegistry's per-thread held-set and report a
// "lock-assert-held" violation through the invariant sink when the calling
// thread does not hold the lock. REQUIRES-annotated helpers call them at
// the top, so GCC-only builds and the audit CI job enforce the same
// discipline the clang job proves at compile time. With MSPLOG_AUDIT=OFF
// the asserts are empty inlines (the static annotation still applies).
//
// Naming a lock (`audit::Mutex mu_{"msp.sessions"}`) makes cycle reports
// readable; the name defaults to "mutex"/"shared_mutex" otherwise.
//
// audit::CondVar is std::condition_variable_any so it can wait on the
// RAII guards directly; waits release and reacquire through the wrapper,
// which keeps the per-thread held-set accurate across the wait. Condvar
// predicate lambdas are separate functions to the static analysis: start
// them with `mu.AssertHeld();` so the analysis (and the auditor) know the
// lock is held inside the predicate.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "audit/annotations.h"
#include "audit/lock_order.h"

namespace msplog {
namespace audit {

#if MSPLOG_AUDIT_ENABLED

class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "mutex")
      : id_(LockOrderRegistry::Instance().Register(name)) {}
  ~Mutex() { LockOrderRegistry::Instance().Unregister(id_); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    LockOrderRegistry::Instance().OnAcquire(id_);
    mu_.lock();
    LockOrderRegistry::Instance().OnAcquired(id_);
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // try_lock cannot deadlock, so no edge is recorded; the held-set entry
    // still matters for edges of later blocking acquisitions.
    LockOrderRegistry::Instance().OnAcquired(id_);
    return true;
  }
  void unlock() RELEASE() {
    LockOrderRegistry::Instance().OnRelease(id_);
    mu_.unlock();
  }

  /// Runtime twin of a REQUIRES(this) contract: reports through the
  /// invariant sink ("lock-assert-held") unless the calling thread holds
  /// this mutex. One thread-local scan; no locking on the success path.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    LockOrderRegistry::Instance().AssertHeldByThisThread(
        id_, /*shared_ok=*/false);
  }

 private:
  std::mutex mu_;
  LockId id_;
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "shared_mutex")
      : id_(LockOrderRegistry::Instance().Register(name)) {}
  ~SharedMutex() { LockOrderRegistry::Instance().Unregister(id_); }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    LockOrderRegistry::Instance().OnAcquire(id_);
    mu_.lock();
    LockOrderRegistry::Instance().OnAcquired(id_);
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    LockOrderRegistry::Instance().OnAcquired(id_);
    return true;
  }
  void unlock() RELEASE() {
    LockOrderRegistry::Instance().OnRelease(id_);
    mu_.unlock();
  }

  // Shared acquisitions participate in ordering exactly like exclusive
  // ones: reader/writer cycles deadlock just the same.
  void lock_shared() ACQUIRE_SHARED() {
    LockOrderRegistry::Instance().OnAcquire(id_);
    mu_.lock_shared();
    LockOrderRegistry::Instance().OnAcquired(id_, /*shared=*/true);
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    LockOrderRegistry::Instance().OnAcquired(id_, /*shared=*/true);
    return true;
  }
  void unlock_shared() RELEASE_SHARED() {
    LockOrderRegistry::Instance().OnRelease(id_);
    mu_.unlock_shared();
  }

  /// The calling thread must hold this lock EXCLUSIVELY (a writer).
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    LockOrderRegistry::Instance().AssertHeldByThisThread(
        id_, /*shared_ok=*/false);
  }
  /// The calling thread must hold this lock in either mode (exclusive
  /// ownership subsumes a reader's access rights).
  void AssertSharedHeld() const ASSERT_SHARED_CAPABILITY(this) {
    LockOrderRegistry::Instance().AssertHeldByThisThread(
        id_, /*shared_ok=*/true);
  }

 private:
  std::shared_mutex mu_;
  LockId id_;
};

#else  // !MSPLOG_AUDIT_ENABLED

class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* /*name*/ = nullptr) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  void lock() ACQUIRE() { mu_.lock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  /// Zero-cost shell: the static ASSERT_CAPABILITY annotation still
  /// satisfies the clang analysis; the runtime check needs the auditor.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* /*name*/ = nullptr) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;
  void lock() ACQUIRE() { mu_.lock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertSharedHeld() const ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

#endif  // MSPLOG_AUDIT_ENABLED

// ---------------------------------------------------------------------------
// RAII guards. These used to be aliases of std::lock_guard / std::unique_lock
// / std::shared_lock; they are hand-rolled now because libstdc++'s lock types
// carry no thread-safety annotations, so the clang analysis cannot see
// through them. Only the operations the tree actually uses are provided
// (construction, and lock()/unlock() on the relockable ones — which is also
// exactly what std::condition_variable_any::wait needs).
// ---------------------------------------------------------------------------

/// Scoped exclusive lock; not relockable (use UniqueLock to wait on a CV or
/// to drop the lock around I/O).
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock, relockable: BasicLockable for CondVar::wait, and
/// unlock()/lock() for blocking-I/O windows. Destruction releases the lock
/// if currently owned.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.lock();
  }
  ~UniqueLock() RELEASE() {
    if (owned_) mu_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() RELEASE() {
    owned_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool owned_;
};

/// Scoped shared (reader) lock on a SharedMutex. unlock() supports the
/// read-then-upgrade pattern (drop the shared lock, take an exclusive one).
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) ACQUIRE_SHARED(mu)
      : mu_(mu), owned_(true) {
    mu_.lock_shared();
  }
  ~SharedLock() RELEASE_GENERIC() {
    if (owned_) mu_.unlock_shared();
  }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

  void unlock() RELEASE_GENERIC() {
    owned_ = false;
    mu_.unlock_shared();
  }

 private:
  SharedMutex& mu_;
  bool owned_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY SharedUniqueLock {
 public:
  explicit SharedUniqueLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SharedUniqueLock() RELEASE() { mu_.unlock(); }

  SharedUniqueLock(const SharedUniqueLock&) = delete;
  SharedUniqueLock& operator=(const SharedUniqueLock&) = delete;

 private:
  SharedMutex& mu_;
};

using CondVar = std::condition_variable_any;

}  // namespace audit
}  // namespace msplog
