// Unit tests for the span-tree tracer (src/obs/trace.hpp): sampling, span
// tree shape, attribute/status/link recording, the root-ends-last sealing
// rule, ring overwrite and the tail-based keep rules, plus the export and
// aggregation helpers in trace_sink.hpp.
//
// The tracer is process-global (like MetricsRegistry::global()), so every
// test that enables it drains and disables in TearDown — ordering between
// suites in this binary must not matter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"

namespace {

using sp::obs::ContextGuard;
using sp::obs::Span;
using sp::obs::SpanRecord;
using sp::obs::SpanStatus;
using sp::obs::TraceContext;
using sp::obs::TraceData;
using sp::obs::Tracer;
using sp::obs::TracerConfig;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tracer = Tracer::global();
    tracer.configure(TracerConfig{});  // sample everything, default rings
    tracer.set_enabled(true);
    (void)tracer.drain();
  }
  void TearDown() override {
    auto& tracer = Tracer::global();
    tracer.set_enabled(false);
    (void)tracer.drain();
  }

  static const SpanRecord* find(const TraceData& trace, const std::string& name) {
    for (const auto& s : trace.spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  static bool has_attr(const SpanRecord& span, const std::string& key,
                       const std::string& value) {
    for (const auto& [k, v] : span.attrs) {
      if (k == key && v == value) return true;
    }
    return false;
  }
};

TEST_F(TraceTest, DisabledTracerIsInert) {
  auto& tracer = Tracer::global();
  tracer.set_enabled(false);
  Span root = tracer.start_trace("noop");
  EXPECT_FALSE(root.recording());
  EXPECT_FALSE(root.context().sampled());
  EXPECT_EQ(sp::obs::reserve_span_id(root.context()), 0u);
  // Every mutator must be a safe no-op on a non-recording span.
  root.set_status(SpanStatus::kTerminal);
  root.add_attr("k", "v");
  root.end();
  Span forced = tracer.start_trace_forced("noop");
  EXPECT_FALSE(forced.recording());
  tracer.set_enabled(true);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST_F(TraceTest, SpanTreeRecordsParentsAttrsAndStatus) {
  auto& tracer = Tracer::global();
  Span root = tracer.start_trace("request");
  ASSERT_TRUE(root.recording());
  root.add_attr("receiver", static_cast<std::int64_t>(7));
  {
    Span phase_a(root.context(), "phase.a");
    phase_a.add_attr("fault", "timeout");
    phase_a.set_status(SpanStatus::kTransientFault);
    Span leaf(phase_a.context(), "phase.a.leaf");
    leaf.add_attr("ratio", 0.5);
    leaf.end();
    phase_a.end();
  }
  Span phase_b(root.context(), "phase.b");
  phase_b.add_link(sp::obs::TraceId{1, 2}, 3);
  phase_b.end();
  root.end();

  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  const TraceData& t = traces.front();
  EXPECT_TRUE(t.id.valid());
  EXPECT_EQ(t.root_name, "request");
  EXPECT_TRUE(t.errored);  // phase.a ended transient-fault
  ASSERT_EQ(t.spans.size(), 4u);
  // Spans land in finish order, root last (the sealing rule).
  EXPECT_EQ(t.spans.back().name, "request");
  EXPECT_EQ(t.spans.back().parent_id, 0u);

  const SpanRecord* root_rec = find(t, "request");
  const SpanRecord* a = find(t, "phase.a");
  const SpanRecord* leaf = find(t, "phase.a.leaf");
  const SpanRecord* b = find(t, "phase.b");
  ASSERT_TRUE(root_rec != nullptr && a != nullptr && leaf != nullptr && b != nullptr);
  EXPECT_EQ(a->parent_id, root_rec->span_id);
  EXPECT_EQ(b->parent_id, root_rec->span_id);
  EXPECT_EQ(leaf->parent_id, a->span_id);
  EXPECT_EQ(a->status, SpanStatus::kTransientFault);
  EXPECT_TRUE(has_attr(*root_rec, "receiver", "7"));
  EXPECT_TRUE(has_attr(*a, "fault", "timeout"));
  ASSERT_EQ(b->links.size(), 1u);
  EXPECT_EQ(b->links[0].trace, (sp::obs::TraceId{1, 2}));
  EXPECT_EQ(b->links[0].span, 3u);
  for (const auto& s : t.spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST_F(TraceTest, HeadSamplingZeroRecordsNothingButForcedBypasses) {
  auto& tracer = Tracer::global();
  TracerConfig cfg;
  cfg.sample_probability = 0.0;
  tracer.configure(cfg);
  for (int i = 0; i < 32; ++i) {
    Span s = tracer.start_trace("sampled-out");
    EXPECT_FALSE(s.recording());
    s.end();
  }
  Span forced = tracer.start_trace_forced("forced");
  EXPECT_TRUE(forced.recording());
  forced.end();
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces.front().root_name, "forced");
}

TEST_F(TraceTest, RootEndSealsTheTraceAndDropsStragglers) {
  auto& tracer = Tracer::global();
  Span root = tracer.start_trace("request");
  Span straggler(root.context(), "late");
  root.end();      // publishes the trace
  straggler.end();  // after the seal: dropped, not appended
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces.front().spans.size(), 1u);
  EXPECT_EQ(traces.front().spans.front().name, "request");
}

TEST_F(TraceTest, ReservedSpanIdMaterializesWithThatId) {
  auto& tracer = Tracer::global();
  Span root = tracer.start_trace("request");
  const TraceContext ctx = root.context();
  const std::uint64_t reserved = sp::obs::reserve_span_id(ctx);
  EXPECT_GT(reserved, 1u);
  const std::uint64_t start = Tracer::now_ns();
  Span job(ctx, "job", start, reserved);
  EXPECT_EQ(job.span_id(), reserved);
  job.end();
  root.end();
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  const SpanRecord* rec = find(traces.front(), "job");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->span_id, reserved);
  EXPECT_EQ(rec->start_ns, start);
}

TEST_F(TraceTest, ContextGuardInstallsAndRestores) {
  auto& tracer = Tracer::global();
  EXPECT_FALSE(Tracer::current().sampled());
  Span root = tracer.start_trace("request");
  {
    const ContextGuard outer(root.context());
    EXPECT_TRUE(Tracer::current().sampled());
    EXPECT_EQ(Tracer::current().span_id(), root.span_id());
    Span child(Tracer::current(), "child");
    {
      const ContextGuard inner(child.context());
      EXPECT_EQ(Tracer::current().span_id(), child.span_id());
    }
    EXPECT_EQ(Tracer::current().span_id(), root.span_id());
    child.end();
  }
  EXPECT_FALSE(Tracer::current().sampled());
  root.end();
  (void)tracer.drain();
}

TEST_F(TraceTest, ContextPropagatesAcrossThreads) {
  auto& tracer = Tracer::global();
  Span root = tracer.start_trace("request");
  const TraceContext ctx = root.context();
  std::thread worker([ctx] {
    const ContextGuard guard(ctx);
    Span remote(Tracer::current(), "remote");
    remote.end();
  });
  worker.join();
  root.end();
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  const SpanRecord* remote = find(traces.front(), "remote");
  const SpanRecord* root_rec = find(traces.front(), "request");
  ASSERT_TRUE(remote != nullptr && root_rec != nullptr);
  EXPECT_EQ(remote->parent_id, root_rec->span_id);
  EXPECT_NE(remote->thread, root_rec->thread);
}

TEST_F(TraceTest, DrainIsDestructive) {
  auto& tracer = Tracer::global();
  tracer.start_trace("one").end();
  EXPECT_EQ(tracer.drain().size(), 1u);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST_F(TraceTest, RecentRingKeepsNewestWhenWrapping) {
  auto& tracer = Tracer::global();
  TracerConfig cfg;
  cfg.ring_slots = 2;
  cfg.kept_slots = 2;
  cfg.keep_slow_min_count = 0;  // no slow-keeps: this test wants pure wrap
  tracer.configure(cfg);
  // Ring sizes bind at a thread's first publish, so produce from a fresh
  // thread — the main thread's rings were sized by earlier tests.
  std::thread producer([&tracer] {
    for (int i = 0; i < 6; ++i) {
      Span s = tracer.start_trace("t" + std::to_string(i));
      s.end();
    }
  });
  producer.join();
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 2u);
  std::vector<std::string> names;
  for (const auto& t : traces) names.push_back(t.root_name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"t4", "t5"}));
}

TEST_F(TraceTest, ErroredTraceSurvivesRingWrapInKeptRing) {
  auto& tracer = Tracer::global();
  TracerConfig cfg;
  cfg.ring_slots = 2;
  cfg.kept_slots = 2;
  cfg.keep_slow_min_count = 0;
  tracer.configure(cfg);
  std::thread producer([&tracer] {
    {
      Span bad = tracer.start_trace("errored");
      bad.set_status(SpanStatus::kTerminal);
      bad.end();
    }
    for (int i = 0; i < 8; ++i) {
      Span ok = tracer.start_trace("ok" + std::to_string(i));
      ok.end();
    }
  });
  producer.join();
  const auto traces = tracer.drain();
  const auto it = std::find_if(traces.begin(), traces.end(),
                               [](const TraceData& t) { return t.root_name == "errored"; });
  ASSERT_NE(it, traces.end()) << "errored trace evicted despite the kept ring";
  EXPECT_TRUE(it->errored);
}

TEST_F(TraceTest, SlowTraceTriggersTheKeepRule) {
  auto& tracer = Tracer::global();
  TracerConfig cfg;
  cfg.keep_slow_percentile = 0.5;
  cfg.keep_slow_min_count = 1;
  tracer.configure(cfg);
  // Seed the root-latency estimate with fast traces, then finish one that
  // is orders of magnitude above their p50.
  for (int i = 0; i < 8; ++i) tracer.start_trace("fast").end();
  auto& kept_slow = sp::obs::MetricsRegistry::global().counter("sp_traces_kept_total", "",
                                                               {{"reason", "slow"}});
  const std::uint64_t before = kept_slow.value();
  {
    Span slow = tracer.start_trace("slow");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    slow.end();
  }
  EXPECT_GT(kept_slow.value(), before);
}

TEST_F(TraceTest, SampledSpanFeedsHistogramLedgerAndTraceOneInterval) {
  sp::obs::MetricsRegistry reg;
  auto& h = reg.histogram("phase_ms", "", {1000});
  double ledger_ms = 0;
  sp::obs::TraceId id;
  {
    Span root = Tracer::global().start_trace("request");
    id = root.context().trace_id();
    Span phase(root.context(), "phase", h, ledger_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(phase.end(), ledger_ms);
  }
  const auto traces = Tracer::global().drain();
  ASSERT_EQ(traces.size(), 1u);
  const SpanRecord* phase = find(traces.front(), "phase");
  ASSERT_NE(phase, nullptr);
  // One pair of clock reads: the ledger charge IS the span's duration.
  EXPECT_EQ(phase->duration_ms(), ledger_ms);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.sum_ms(), ledger_ms, 1e-3);
  // A traced sample names its trace as the histogram's exemplar.
  const auto ex = h.exemplar();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->trace_hi, id.hi);
  EXPECT_EQ(ex->trace_lo, id.lo);
}

TEST_F(TraceTest, SpanUnwoundByAnExceptionIsTerminalAndSkipsItsHistogram) {
  sp::obs::MetricsRegistry reg;
  auto& h = reg.histogram("phase_ms", "", {1000});
  double ledger_ms = 0;
  {
    Span root = Tracer::global().start_trace("request");
    try {
      Span phase(root.context(), "phase", h, ledger_ms);
      throw std::runtime_error("phase failed");
    } catch (const std::runtime_error&) {
    }
  }
  const auto traces = Tracer::global().drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces.front().errored);
  const SpanRecord* phase = find(traces.front(), "phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->status, SpanStatus::kTerminal);
  const SpanRecord* root = find(traces.front(), "request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, SpanStatus::kOk);  // caught below the root
  EXPECT_EQ(h.count(), 0u);  // an interrupted phase is not a latency sample
  EXPECT_EQ(ledger_ms, phase->duration_ms());  // the ledger still paid for it
}

TEST_F(TraceTest, TraceIdHexIs32LowercaseDigits) {
  const sp::obs::TraceId id{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string hex = id.hex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  for (const char c : hex) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) != 0 &&
                std::isupper(static_cast<unsigned char>(c)) == 0);
  }
}

// ---------------------------------------------------------------------------
// trace_sink: export + aggregation
// ---------------------------------------------------------------------------

class TraceSinkTest : public TraceTest {
 protected:
  /// One two-level trace with a known slow child, drained to TraceData.
  std::vector<TraceData> make_traces() {
    auto& tracer = Tracer::global();
    Span root = tracer.start_trace("request");
    {
      Span child(root.context(), "work");
      child.add_attr("fault", "timeout");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      child.end();
    }
    root.end();
    return tracer.drain();
  }
};

TEST_F(TraceSinkTest, ChromeJsonHasCompleteEventsPerSpan) {
  const auto traces = make_traces();
  ASSERT_EQ(traces.size(), 1u);
  const std::string json = sp::obs::to_chrome_json(traces);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"timeout\""), std::string::npos);
}

TEST_F(TraceSinkTest, FoldedStacksAttributeSelfTime) {
  const auto traces = make_traces();
  const std::string folded = sp::obs::to_folded_stacks(traces);
  EXPECT_NE(folded.find("request;work "), std::string::npos);
  EXPECT_NE(folded.find("request "), std::string::npos);
}

TEST_F(TraceSinkTest, PhaseBreakdownSubtractsChildTimeFromSelf) {
  const auto traces = make_traces();
  const auto phases = sp::obs::phase_breakdown(traces);
  ASSERT_EQ(phases.size(), 2u);
  const auto* request = &phases[0];
  const auto* work = &phases[1];
  if (request->name != "request") std::swap(request, work);
  ASSERT_EQ(request->name, "request");
  ASSERT_EQ(work->name, "work");
  EXPECT_EQ(request->count, 1u);
  // The child slept ~2 ms; the root's self time excludes it.
  EXPECT_GE(work->self_ms, 1.0);
  EXPECT_LT(request->self_ms, request->total_ms);
  EXPECT_GE(request->total_ms, work->total_ms);
}

TEST_F(TraceSinkTest, SlowestTracesRanksByRootDuration) {
  auto& tracer = Tracer::global();
  {
    Span fast = tracer.start_trace("fast");
    fast.end();
  }
  {
    Span slow = tracer.start_trace("slow");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    slow.end();
  }
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 2u);
  const auto order = sp::obs::slowest_traces(traces, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(traces[order[0]].root_name, "slow");
  EXPECT_GE(traces[order[0]].duration_ms, traces[order[1]].duration_ms);
}

TEST_F(TraceSinkTest, FormatTraceTreeIndentsChildren) {
  const auto traces = make_traces();
  const std::string tree = sp::obs::format_trace_tree(traces.front());
  EXPECT_NE(tree.find("request"), std::string::npos);
  EXPECT_NE(tree.find("  work"), std::string::npos);
  EXPECT_NE(tree.find("fault=timeout"), std::string::npos);
}

}  // namespace
