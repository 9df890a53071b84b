#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};

/// Owns every thread's buffer; a thread registers once, on its first span.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& Reg() {
  static Registry r;
  return r;
}

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local uint64_t t_current = 0;

std::vector<Span>* ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 14);
    std::lock_guard<std::mutex> lk(Reg().mu);
    t_buffer = buf.get();
    Reg().buffers.push_back(std::move(buf));
  }
  return t_buffer;
}

}  // namespace

const char* SpanNameStr(SpanName n) {
  switch (n) {
    case SpanName::kClientCall: return "client.call";
    case SpanName::kM1Exec: return "m1.exec";
    case SpanName::kM2Exec: return "m2.exec";
    case SpanName::kM1Replay: return "m1.replay";
    case SpanName::kM2Replay: return "m2.replay";
    case SpanName::kNestedCall: return "ctx.call";
    case SpanName::kReadShared: return "ctx.read_shared";
    case SpanName::kWriteShared: return "ctx.write_shared";
    case SpanName::kCrash: return "msp.crash";
    case SpanName::kStart: return "msp.start";
    case SpanName::kCount: break;
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(SpanName name, uint64_t req, bool record) {
  if (!record || !Tracing()) return;
  on_ = true;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current;
  span_.req = req;
  span_.name = name;
  t_current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  t_current = span_.parent;
  ThreadBuffer()->push_back(span_);
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lk(Reg().mu);
  size_t n = 0;
  for (const auto& b : Reg().buffers) n += b->size();
  std::vector<Span> out;
  out.reserve(n);
  for (const auto& b : Reg().buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

void ResolveParents(std::vector<Span>* spans) {
  // Request ids are unique per client call, so the first client.call /
  // ctx.call span of a request is its only one.
  std::unordered_map<uint64_t, uint64_t> call_of, nested_of;
  for (const Span& s : *spans) {
    if (s.req == 0) continue;
    if (s.name == SpanName::kClientCall) call_of.emplace(s.req, s.id);
    if (s.name == SpanName::kNestedCall) nested_of.emplace(s.req, s.id);
  }
  // Replays stay roots: they are caused by recovery, not by a live call.
  for (Span& s : *spans) {
    if (s.parent != 0 || s.req == 0) continue;
    const std::unordered_map<uint64_t, uint64_t>* index = nullptr;
    if (s.name == SpanName::kM1Exec) index = &call_of;
    if (s.name == SpanName::kM2Exec) index = &nested_of;
    if (index == nullptr) continue;
    auto it = index->find(s.req);
    if (it != index->end()) s.parent = it->second;
  }
}

uint64_t CoveredNs(const Span& outer, std::vector<const Span*> inner) {
  std::sort(inner.begin(), inner.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  uint64_t covered = 0;
  uint64_t cursor = outer.start_ns;
  for (const Span* s : inner) {
    uint64_t lo = std::max(s->start_ns, cursor);
    uint64_t hi = std::min(s->end_ns, outer.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,req,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), SpanNameStr(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
