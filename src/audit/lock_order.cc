#include "audit/lock_order.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>

#include "audit/invariants.h"

namespace msplog {
namespace audit {

namespace {
constexpr size_t kMaxReports = 64;

/// One held lock: its id and the mode it was acquired in.
struct HeldLock {
  LockId id;
  bool shared;
};

/// Stack of locks held by this thread, in acquisition order.
thread_local std::vector<HeldLock> tls_held;
}  // namespace

struct LockOrderRegistry::Impl {
  mutable std::mutex mu;
  LockId next_id = 1;
  std::map<LockId, std::string> names;
  /// a → {b}: a was held while b was acquired.
  std::map<LockId, std::set<LockId>> edges;
  uint64_t cycles = 0;
  std::vector<std::string> reports;
  bool fatal = false;

  /// DFS: is `to` reachable from `from` through `edges`? Fills `path` with
  /// the node sequence from→…→to when found.
  bool Reaches(LockId from, LockId to, std::set<LockId>* seen,
               std::vector<LockId>* path) {
    if (from == to) {
      path->push_back(from);
      return true;
    }
    if (!seen->insert(from).second) return false;
    auto it = edges.find(from);
    if (it == edges.end()) return false;
    for (LockId next : it->second) {
      if (Reaches(next, to, seen, path)) {
        path->push_back(from);
        return true;
      }
    }
    return false;
  }

  std::string NameOf(LockId id) {
    auto it = names.find(id);
    return it == names.end() ? "<dead lock #" + std::to_string(id) + ">"
                             : it->second + " #" + std::to_string(id);
  }
};

LockOrderRegistry::Impl& LockOrderRegistry::impl() const {
  // Leaked on purpose: mutexes may be destroyed during static teardown
  // after a non-leaked registry would already be gone.
  static Impl* imp = new Impl;  // audit:allow(naked-new)
  return *imp;
}

LockOrderRegistry& LockOrderRegistry::Instance() {
  static LockOrderRegistry* r = new LockOrderRegistry;  // audit:allow(naked-new)
  return *r;
}

LockId LockOrderRegistry::Register(const char* name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  LockId id = im.next_id++;
  im.names[id] = name ? name : "mutex";
  return id;
}

void LockOrderRegistry::Unregister(LockId id) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  im.names.erase(id);
  im.edges.erase(id);
  for (auto& [from, tos] : im.edges) tos.erase(id);
}

void LockOrderRegistry::OnAcquire(LockId id) {
  if (tls_held.empty()) return;  // fast path: no edges possible
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (const HeldLock& h : tls_held) {
    LockId held = h.id;
    if (held == id) continue;  // re-entrant CV reacquire of the same lock
    auto& tos = im.edges[held];
    if (!tos.insert(id).second) continue;  // edge known → already checked
    // New edge held→id. A path id→…→held means a cycle through this edge.
    std::set<LockId> seen;
    std::vector<LockId> path;
    if (im.Reaches(id, held, &seen, &path)) {
      ++im.cycles;
      std::string msg = "lock-order cycle: acquiring " + im.NameOf(id) +
                        " while holding " + im.NameOf(held) +
                        ", but the reverse order exists:";
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        msg += " -> " + im.NameOf(*it);
      }
      if (im.reports.size() < kMaxReports) im.reports.push_back(msg);
      std::fprintf(stderr, "[msplog audit] %s\n", msg.c_str());
      if (im.fatal) std::abort();
      // Keep the graph acyclic so later detections stay meaningful.
      tos.erase(id);
    }
  }
}

void LockOrderRegistry::OnAcquired(LockId id, bool shared) {
  tls_held.push_back({id, shared});
}

void LockOrderRegistry::OnRelease(LockId id) {
  // Usually LIFO, but scoped locks may be released in any order.
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (it->id == id) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

bool LockOrderRegistry::AssertHeldByThisThread(LockId id,
                                               bool shared_ok) const {
  bool held_shared = false;
  for (const HeldLock& h : tls_held) {
    if (h.id != id) continue;
    if (!h.shared) return true;  // exclusive ownership satisfies both modes
    held_shared = true;
  }
  if (held_shared && shared_ok) return true;
  Impl& im = impl();
  std::string name;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    name = im.NameOf(id);
  }
  InvariantRegistry::Instance().Violation(
      "lock-assert-held",
      std::string(shared_ok ? "AssertSharedHeld" : "AssertHeld") + " on " +
          name + ": calling thread holds it " +
          (held_shared ? "only shared (exclusive required)" : "not at all"));
  return false;
}

uint64_t LockOrderRegistry::cycles_detected() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  return im.cycles;
}

std::vector<std::string> LockOrderRegistry::reports() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  return im.reports;
}

void LockOrderRegistry::set_fatal(bool v) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  im.fatal = v;
}

void LockOrderRegistry::ResetForTest() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  im.edges.clear();
  im.cycles = 0;
  im.reports.clear();
}

std::vector<std::string> LockOrderRegistry::HeldNamesByThisThread() const {
  std::vector<std::string> out;
  if (tls_held.empty()) return out;
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  out.reserve(tls_held.size());
  for (const HeldLock& h : tls_held) {
    out.push_back(im.NameOf(h.id) + (h.shared ? " (shared)" : ""));
  }
  return out;
}

}  // namespace audit
}  // namespace msplog
