// The one timing primitive of the serving stack: obs::Span.
//
// A Span brackets one phase with a single pair of clock reads and hands the
// same measured interval to up to three consumers:
//
//  * a Histogram (optional) — the aggregate view, e.g. sp_phase_latency_ms;
//  * a request CostLedger (optional) — the paper's Fig. 10 local-time
//    accounting. It is charged whether or not metrics or tracing are on;
//  * the span-tree tracer — only when the parent context is sampled:
//    128-bit trace ids, parent/child spans with attributes/status/links, a
//    request-scoped TraceContext propagated explicitly through
//    Session/ThreadPool/VerifyQueue/WAL, and a lock-free per-thread ring
//    collector with head-based sampling plus tail-based keep rules (errored
//    and slowest-p99 traces survive even when the recent ring wraps).
//
// Because all three read the same interval, the ledger's local ms, the
// phase histograms and the trace tree agree by construction.
// docs/OBSERVABILITY.md has the span catalog; DESIGN.md §12 the
// architecture.
//
// Cost model, in order of importance:
//
//  * Nothing attached (no histogram or a disabled registry, no ledger,
//    unsampled parent): a few null checks — no clock read, no allocation.
//    Tracer::start_trace with tracing disabled is one relaxed load.
//  * Histogram and/or ledger on an unsampled request (the 99% at 1%
//    sampling): two steady-clock reads plus the histogram's relaxed
//    fetch_adds — the serving path's metrics cost.
//  * Sampled request: spans append to a per-request buffer under its own
//    mutex (uncontended except when VerifyQueue workers finish jobs for the
//    same request); the finished trace is published to a per-thread ring
//    with a single atomic exchange — the collector itself never locks on
//    the producer side.
//
// Secret hygiene: span names and attribute keys/values are code-path
// identifiers and small numbers, NEVER payload data — same contract as
// metric labels (docs/OBSERVABILITY.md), enforced by review + sp_lint's
// secret-ident rules over this directory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::obs {

// ======================================================================
// Span-tree tracer
// ======================================================================

/// 128-bit trace identifier. {0,0} is the reserved invalid id.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool valid() const { return (hi | lo) != 0; }
  /// 32 lowercase hex digits (OpenTelemetry-style).
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const TraceId&, const TraceId&) = default;
};

/// Span outcome, mirroring the fault model's transient/terminal split
/// (net::is_transient): kTransientFault spans are retried by the layer
/// above, kTerminal spans end the request.
enum class SpanStatus : std::uint8_t {
  kOk = 0,
  kTransientFault = 1,
  kTerminal = 2,
};

[[nodiscard]] const char* to_string(SpanStatus status);

/// Causal reference to a span in this or another trace (a WAL group-commit
/// batch links every contributing request's span; a help-drained verify job
/// links the foreign runner's span).
struct SpanLink {
  TraceId trace;
  std::uint64_t span = 0;

  friend bool operator==(const SpanLink&, const SpanLink&) = default;
};

/// One finished span. Timestamps are steady-clock nanoseconds (a process-
/// local monotonic timeline; dumps are self-consistent, not wall-clock).
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< hashed thread id (grouping key, not a TID)
  SpanStatus status = SpanStatus::kOk;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<SpanLink> links;

  [[nodiscard]] double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// One completed trace as drained from the collector.
struct TraceData {
  TraceId id;
  std::string root_name;
  double duration_ms = 0;
  bool errored = false;  ///< any span ended with a non-kOk status
  std::vector<SpanRecord> spans;  ///< finish order (roots last)
};

namespace detail {

/// Shared per-request span sink. Spans of one trace may finish on several
/// threads (VerifyQueue workers), so appends take the buffer mutex — scoped
/// to one request, it is uncontended in the common case.
struct TraceBuffer {
  TraceId id;
  std::atomic<std::uint64_t> next_span{2};  ///< 1 is the root span
  std::atomic<bool> errored{false};
  std::atomic<bool> finished{false};  ///< root ended; stragglers are dropped
  sp::Mutex mutex;
  std::vector<SpanRecord> spans SP_GUARDED_BY(mutex);
};

}  // namespace detail

/// Cheap, copyable handle identifying "the span children attach to" within a
/// sampled request — or nothing at all (default-constructed / unsampled),
/// in which case every operation derived from it no-ops.
class TraceContext {
 public:
  TraceContext() = default;

  [[nodiscard]] bool sampled() const { return buf_ != nullptr; }
  [[nodiscard]] TraceId trace_id() const { return buf_ ? buf_->id : TraceId{}; }
  [[nodiscard]] std::uint64_t span_id() const { return span_; }

 private:
  friend class Span;
  friend class Tracer;
  friend class ContextGuard;
  friend std::uint64_t reserve_span_id(const TraceContext&);

  TraceContext(std::shared_ptr<detail::TraceBuffer> buf, std::uint64_t span)
      : buf_(std::move(buf)), span_(span) {}

  std::shared_ptr<detail::TraceBuffer> buf_;
  std::uint64_t span_ = 0;
};

/// Pre-allocates a span id under `ctx` (0 when unsampled) so a later worker
/// can materialize the span while earlier spans already link to it — the
/// VerifyQueue batch-link mechanism.
[[nodiscard]] std::uint64_t reserve_span_id(const TraceContext& ctx);

/// RAII phase timer and trace span. Move-only; ends on destruction or an
/// explicit end(). The attribute/status/link mutators no-op unless the span
/// is recording (its parent context was sampled).
///
/// A span ended by stack unwinding (an exception escaped its scope) records
/// SpanStatus::kTerminal, so a request that throws exports an errored trace,
/// and observes no histogram sample: an interrupted phase is not a latency.
class Span {
 public:
  Span() = default;
  /// Trace-only child span under `parent`, started now.
  Span(const TraceContext& parent, std::string_view name) { start(parent, name, 0, 0); }
  /// Phase span that also observes `hist` (when its registry is enabled).
  Span(const TraceContext& parent, std::string_view name, Histogram& hist) : hist_(&hist) {
    start(parent, name, 0, 0);
  }
  /// Phase span that also charges `ledger` — a CostLedger-like type with
  /// add_local_measured(double ms), or a plain double accumulating ms. The
  /// ledger is protocol accounting, not metrics: it is charged whether or
  /// not the registry or the tracer is enabled.
  template <typename Ledger>
  Span(const TraceContext& parent, std::string_view name, Histogram& hist, Ledger& ledger)
      : hist_(&hist), ledger_(&ledger), charge_(&charge<Ledger>) {
    start(parent, name, 0, 0);
  }
  /// Trace-only child span with an explicit start timestamp (queue-wait
  /// spans measured from enqueue time) and optionally a pre-reserved id
  /// (0 = allocate).
  Span(const TraceContext& parent, std::string_view name, std::uint64_t start_ns,
       std::uint64_t reserved_id = 0) {
    start(parent, name, start_ns, reserved_id);
  }

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  [[nodiscard]] bool recording() const { return buf_ != nullptr; }
  /// Context for children of THIS span.
  [[nodiscard]] TraceContext context() const;
  [[nodiscard]] std::uint64_t span_id() const { return rec_.span_id; }

  /// Sets the histogram end() observes, for a series known only once the
  /// phase finished (the access outcome). Starts the clock if the span was
  /// not timing yet; call it before end().
  void set_histogram(Histogram& hist);

  void set_status(SpanStatus status);
  void add_attr(std::string_view key, std::string_view value);
  void add_attr(std::string_view key, std::int64_t value);
  void add_attr(std::string_view key, double value);
  void add_link(TraceId trace, std::uint64_t span);
  void add_link(const SpanLink& link) { add_link(link.trace, link.span); }

  /// Ends the span (idempotent): reads the clock once, observes the
  /// histogram, charges the ledger and, when recording, appends the record
  /// to the trace buffer — all with the same interval. Ending a root span
  /// finishes the whole trace and publishes it to the collector. Returns the
  /// measured ms, 0 when the span was not timing.
  double end();

 private:
  friend class Tracer;

  template <typename Ledger>
  static void charge(void* ledger, double ms) {
    if constexpr (std::is_arithmetic_v<Ledger>) {
      *static_cast<Ledger*>(ledger) += ms;
    } else {
      static_cast<Ledger*>(ledger)->add_local_measured(ms);
    }
  }

  /// Joins the trace when `parent` is sampled, then starts the clock unless
  /// nothing would consume the interval.
  void start(const TraceContext& parent, std::string_view name, std::uint64_t start_ns,
             std::uint64_t reserved_id);

  std::shared_ptr<detail::TraceBuffer> buf_;  ///< null unless recording
  SpanRecord rec_;                            ///< start_ns is the clock start
  Histogram* hist_ = nullptr;
  void* ledger_ = nullptr;
  void (*charge_)(void*, double) = nullptr;
  bool timing_ = false;
  int uncaught_ = 0;  ///< std::uncaught_exceptions() when timing started
};

/// Installs `ctx` as the calling thread's current context for the guard's
/// scope (restores the previous one on destruction). This is the async
/// propagation glue: ThreadPool workers install the submitter's context,
/// VerifyQueue jobs the origin request's, so layers that never see a
/// TraceContext parameter (SP/DH ops, the WAL wait path) still attach to
/// the right trace via Tracer::current().
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
};

/// Collector + sampling configuration. Ring sizes are per producer thread
/// and rounded up to powers of two.
struct TracerConfig {
  /// Head sampling probability for start_trace (0..1).
  double sample_probability = 1.0;
  /// Recent ring: every finished sampled trace lands here (newest wins).
  std::size_t ring_slots = 256;
  /// Kept ring: errored and slow traces, retained preferentially.
  std::size_t kept_slots = 64;
  /// A trace is "slow" when its root duration reaches this percentile of
  /// the sp_trace_root_ms histogram...
  double keep_slow_percentile = 0.99;
  /// ...once at least this many roots have been observed (before that the
  /// estimate is noise and only errored traces hit the kept ring).
  std::uint64_t keep_slow_min_count = 64;
};

/// Process-wide tracer: head-sampling root-span factory, thread-local
/// current-context slot, and the lock-free per-thread ring collector.
/// Disabled by default — enabling is an explicit operator/bench decision.
class Tracer {
 public:
  /// Intentionally leaked, like MetricsRegistry::global(): spans may finish
  /// on shutdown paths.
  static Tracer& global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Applies sampling/ring settings. Ring sizing affects rings created
  /// after the call; call before producing traffic (tests, bench arms).
  void configure(const TracerConfig& config);
  [[nodiscard]] TracerConfig config() const;

  /// Starts a new trace: makes the head-sampling decision and returns its
  /// root span (non-recording when disabled or not sampled).
  [[nodiscard]] Span start_trace(std::string_view name);
  /// Starts a new trace bypassing the sampling draw (WAL group-commit spans
  /// triggered by an already-sampled origin). Still a no-op when disabled.
  [[nodiscard]] Span start_trace_forced(std::string_view name);

  /// The calling thread's current context (invalid when none installed).
  [[nodiscard]] static TraceContext current();

  /// Steady-clock nanoseconds on the tracer's timeline.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Removes and returns every collected trace from every thread's rings
  /// (kept first). Safe to run concurrently with producers: each slot is
  /// claimed with one atomic exchange.
  [[nodiscard]] std::vector<TraceData> drain();

 private:
  friend class Span;

  struct Ring;
  struct ThreadRings;

  /// Called by the root Span's end(): seals the buffer, applies the
  /// tail-based keep rules and publishes to the calling thread's rings.
  void finish(const std::shared_ptr<detail::TraceBuffer>& buf);
  ThreadRings& rings_for_this_thread();
  /// Root span (id 1) of a new, sampled trace.
  static Span new_root(std::string_view name, TraceId id);

  std::atomic<bool> enabled_{false};
  /// Head-sampling threshold over the uniform low word of the trace id;
  /// UINT64_MAX means "always".
  std::atomic<std::uint64_t> sample_threshold_{~0ull};
  std::atomic<double> keep_slow_percentile_{0.99};
  std::atomic<std::uint64_t> keep_slow_min_count_{64};
  std::atomic<std::size_t> ring_slots_{256};
  std::atomic<std::size_t> kept_slots_{64};

  mutable sp::Mutex rings_mutex_;  ///< guards the ring registry, not the slots
  std::vector<std::unique_ptr<ThreadRings>> rings_ SP_GUARDED_BY(rings_mutex_);
};

}  // namespace sp::obs
