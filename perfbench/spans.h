// Benchmark-owned span recorder.
//
// Spans are recorded only from the benchmark's own code, around the public
// calls it makes into each layer of msplog (ClientEndpoint::Call, the
// service-method bodies, ServiceContext::{Call,ReadShared,WriteShared},
// Msp::{Crash,Start}). Each thread appends to its own buffer, so recording
// takes no lock; buffers are owned by a process-wide registry and outlive
// the threads that filled them (MSP workers die with every Crash/Shutdown).
//
// A span carries its name, start and end (steady_clock ns), the id of the
// span that caused it, and the request id shared by every span of one
// client request. Parents on the same thread are linked at record time;
// the hop from a client call to the server-side method body, and from a
// nested call to the callee's body, crosses threads and is linked by
// request id in ResolveParents().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kClientCall,   ///< ClientEndpoint::Call, as the end client sees it
  kM1Exec,       ///< ServiceMethod1 body at MSP1 (normal execution)
  kM2Exec,       ///< ServiceMethod2 body at MSP2 (normal execution)
  kM1Replay,     ///< ServiceMethod1 body with ctx->in_replay() set
  kM2Replay,     ///< ServiceMethod2 body with ctx->in_replay() set
  kNestedCall,   ///< ServiceContext::Call from ServiceMethod1 to MSP2
  kReadShared,   ///< ServiceContext::ReadShared
  kWriteShared,  ///< ServiceContext::WriteShared
  kCrash,        ///< Msp::Crash
  kStart,        ///< Msp::Start (analysis scan + open after a crash)
  kCount,
};

const char* SpanNameStr(SpanName n);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (or not yet resolved)
  uint64_t req = 0;     ///< request id; 0 = not tied to a client request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanName name = SpanName::kCount;

  double DurUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// Tracing switch. Off: ScopedSpan costs one relaxed load and a branch.
void SetTracing(bool on);
bool Tracing();

/// RAII span: opens at construction, records at destruction (if tracing
/// was on when it opened and `record` is set). Nests with enclosing spans on
/// the same thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t req, bool record = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_ = false;
};

/// Every span recorded so far, across all threads. Call only while no
/// thread is recording (after the world that recorded them shut down).
std::vector<Span> CollectSpans();

/// Link cross-thread parents by request id: a method body's parent becomes
/// the client call (M1) or nested call (M2) of the same request.
void ResolveParents(std::vector<Span>* spans);

/// Length of [start, end) of `outer` covered by the union of `inner`
/// intervals (clipped to `outer`).
uint64_t CoveredNs(const Span& outer, std::vector<const Span*> inner);

/// Write spans as CSV (id,parent,req,name,start_ns,end_ns). Returns false
/// if the file could not be written.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
