// EventTracer — a bounded, lock-striped ring buffer of structured
// request-lifecycle events.
//
// Every interesting transition on the request path (enqueue, dequeue,
// execute, local and distributed log flush, reply) and on the recovery path
// (analysis scan, per-session replay, checkpoints, orphan cuts) records one
// event stamped with model time, the acting component, the session and the
// request seqno. The buffer is bounded (oldest events are overwritten), so
// tracing can stay on during long benchmarks; recording is one short
// critical section on one of N stripes, so concurrent sessions do not
// serialize on the tracer. Overwrites are counted (dropped()) and mirrored
// into an optional Counter so truncated traces are detectable.
//
// Causal tracing: events may carry a SpanContext — a (trace_id, span_id,
// parent_span_id) triple propagated on the wire (rpc/message.h) from the
// client endpoint through every nested MSP→MSP call. The obs layer never
// generates ids on its own behalf; callers allocate them with NextSpanId()
// and pass them in, which keeps this layer free of any dependency on the
// simulation or server layers.
//
// Dump formats:
//   * DumpJson()           — a JSON array of event objects, schema in
//                            docs/OBSERVABILITY.md;
//   * DumpChromeTracing()  — the chrome://tracing / Perfetto "traceEvents"
//                            format: paired Start/End events become duration
//                            spans (ph B/E), everything else instants, and
//                            each trace_id additionally emits a chain of
//                            flow events (ph s/t/f) that draws the causal
//                            arrows across actors.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/mutex.h"

namespace msplog {
namespace obs {

class Counter;

enum class TraceEventType : uint8_t {
  kEnqueue,           ///< request queued for its session worker
  kExecStart,         ///< service method invocation begins
  kExecEnd,           ///< service method invocation returns
  kLocalFlushStart,   ///< LogFile flush wait begins
  kLocalFlushEnd,     ///< flushed (or failed)
  kDistFlushStart,    ///< distributed flush (§3.1) begins
  kDistFlushEnd,      ///< all legs settled
  kReplySent,         ///< reply handed to the network
  kCheckpointBegin,   ///< session / shared-var / MSP checkpoint begins
  kCheckpointEnd,
  kRecoveryStart,     ///< crash recovery begins (analysis scan)
  kAnalysisScanEnd,   ///< single-threaded log scan done
  kRecoveryEnd,       ///< crash recovery returns (replays may continue)
  kReplayStart,       ///< one session's replay begins
  kReplayEnd,
  kOrphanDetected,    ///< an orphan dependency was proven
  kOrphanCut,         ///< EOS written, positions truncated (§4.1)
  kDequeue,           ///< session worker picked the request up
  kClientCallStart,   ///< client endpoint begins a synchronous call
  kClientCallEnd,     ///< matching reply accepted (or the call gave up)
  kFlushFlightLaunch, ///< distributed-flush flight (kFlushRequest) sent
  kFlushLegJoin,      ///< a flush leg joined an in-flight request
  kCrash,             ///< a server crashed (simulated fault or injected)
  kInvariant,         ///< an audit invariant violation fired
};

const char* TraceEventTypeName(TraceEventType t);

/// Process-wide unique id for spans and traces. A plain atomic counter: the
/// whole simulation runs in one process, and the determinism lint bans
/// unseeded randomness anyway.
uint64_t NextSpanId();

/// Causal-tracing context carried alongside an event. trace_id identifies
/// the whole client-rooted request tree; span_id the node this event belongs
/// to; parent_span_id its parent in the tree. All zero = untraced.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
  /// A fresh span under this one; invalid (untraced) when this one is.
  SpanContext Child() const {
    return valid() ? SpanContext{trace_id, NextSpanId(), span_id}
                   : SpanContext{};
  }
};

struct TraceEvent {
  TraceEventType type = TraceEventType::kEnqueue;
  double model_ms = 0;   ///< SimEnvironment::NowModelMs at record time
  uint64_t seq = 0;      ///< global record order (total order across threads)
  uint64_t seqno = 0;    ///< request sequence number (0 = not applicable)
  std::string actor;     ///< component id: MSP id, "<id>.log", client name
  std::string session;   ///< session id ("" = not applicable)
  std::string detail;    ///< free-form (variable name, peer, byte count, ...)
  SpanContext span;      ///< causal-tracing ids (trace_id 0 = untraced)
};

/// The one event serializer: a JSON array of `events`, schema in
/// docs/OBSERVABILITY.md. Used by EventTracer::DumpJson and by frozen
/// flight-recorder bundles.
std::string TraceEventsJson(const std::vector<TraceEvent>& events);

class EventTracer {
 public:
  explicit EventTracer(size_t capacity = 1 << 16, size_t stripes = 8);

  /// Mirror ring overwrites into `c` (e.g. the registry's
  /// "obs.trace_dropped"), so benches can surface truncation. May be null.
  void set_drop_counter(Counter* c) { drop_counter_ = c; }

  void Record(TraceEventType type, double model_ms, std::string actor,
              std::string session = "", uint64_t seqno = 0,
              std::string detail = "", SpanContext span = SpanContext());

  /// Retained events in global record order (by seq). `newest` > 0 keeps
  /// only that many of the newest events (the slice a flight-recorder
  /// bundle freezes) and copies no more than that from each stripe.
  std::vector<TraceEvent> Events(size_t newest = 0) const;

  /// Number of events overwritten because the ring was full.
  uint64_t dropped() const;

  void Clear();

  /// JSON array of retained events (TraceEventsJson).
  std::string DumpJson() const;
  std::string DumpChromeTracing() const;

 private:
  struct Stripe {
    /// A class's own constructor is exempt from the analysis, so the
    /// capacity reservation lives here rather than in EventTracer's ctor.
    explicit Stripe(size_t capacity) { ring.reserve(capacity); }

    mutable audit::Mutex mu{"obs.trace_stripe"};
    /// Ring buffer, capacity per_stripe_.
    std::vector<TraceEvent> ring GUARDED_BY(mu);
    size_t next GUARDED_BY(mu) = 0;   ///< overwrite cursor once full
    uint64_t total GUARDED_BY(mu) = 0;  ///< events ever recorded here
  };

  size_t per_stripe_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> seq_{0};
  Counter* drop_counter_ = nullptr;
};

}  // namespace obs
}  // namespace msplog
