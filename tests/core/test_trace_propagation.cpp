// Chaos trace-propagation tests (PR 9): the span-tree tracer must follow a
// request through the retry loop, the access-parallel thread pool, the
// cross-request verify queue and the WAL writer — under seeded fault
// injection, and deterministically enough that a same-seed replay produces
// the same protocol-layer span tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/trace_records.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fixtures.hpp"

namespace {

using sp::core::Knowledge;
using sp::obs::SpanRecord;
using sp::obs::SpanStatus;
using sp::obs::TraceData;
using sp::obs::Tracer;
using sp::obs::TracerConfig;
using sp::testsupport::FanoutRig;
using sp::testsupport::toy_config;

/// RAII: tracer on at full sampling for one test, drained and off after.
class TracerOn {
 public:
  TracerOn() {
    auto& tracer = Tracer::global();
    tracer.configure(TracerConfig{});
    tracer.set_enabled(true);
    (void)tracer.drain();
  }
  ~TracerOn() {
    auto& tracer = Tracer::global();
    tracer.set_enabled(false);
    (void)tracer.drain();
  }
  TracerOn(const TracerOn&) = delete;
  TracerOn& operator=(const TracerOn&) = delete;
};

std::vector<const SpanRecord*> spans_named(const TraceData& trace, const std::string& name) {
  std::vector<const SpanRecord*> out;
  for (const auto& s : trace.spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

const SpanRecord* span_by_id(const TraceData& trace, std::uint64_t id) {
  for (const auto& s : trace.spans) {
    if (s.span_id == id) return &s;
  }
  return nullptr;
}

std::optional<std::string> attr(const SpanRecord& span, const std::string& name) {
  for (const auto& [k, v] : span.attrs) {
    if (k == name) return v;
  }
  return std::nullopt;
}

/// The deterministic protocol-layer shape of a trace: sorted (name,
/// parent-name) pairs, excluding pool.* spans — which worker picked a task
/// up (and therefore how many pool hops a batch took) is scheduling, not
/// protocol, and legitimately varies between same-seed runs.
std::vector<std::pair<std::string, std::string>> tree_shape(const TraceData& trace) {
  std::map<std::uint64_t, std::string> names;
  for (const auto& s : trace.spans) names[s.span_id] = s.name;
  std::vector<std::pair<std::string, std::string>> shape;
  for (const auto& s : trace.spans) {
    if (s.name.rfind("pool.", 0) == 0) continue;
    shape.emplace_back(s.name, s.parent_id == 0 ? "" : names[s.parent_id]);
  }
  std::sort(shape.begin(), shape.end());
  return shape;
}

TEST(TracePropagation, EveryRetryAttemptIsAChildSpanWithItsFaultAttr) {
  sp::core::SessionConfig cfg = toy_config("trace-retry");
  sp::net::FaultPlan plan;  // transient-only schedule: timeouts, no corruption
  plan.p_transfer_timeout = 0.5;
  plan.seed = "trace-retry-faults";
  cfg.faults = plan;
  FanoutRig rig(cfg, 2);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();

  bool saw_retry = false;
  for (int i = 0; i < 12 && !saw_retry; ++i) {
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[i % 2], rig.c1_post_, Knowledge::full(rig.ctx_), sp::net::pc_profile());
    const auto traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u) << "one sequential request must yield one trace";
    const TraceData& t = traces.front();
    EXPECT_EQ(t.root_name, "sp.request");

    const auto attempts = spans_named(t, "sp.attempt");
    ASSERT_EQ(attempts.size(), static_cast<std::size_t>(result.attempts));
    const SpanRecord* root = span_by_id(t, 1);
    ASSERT_NE(root, nullptr);
    for (const SpanRecord* a : attempts) {
      EXPECT_EQ(a->parent_id, root->span_id);
      EXPECT_TRUE(attr(*a, "attempt").has_value());
      // Each attempt carries exactly one sp.access child.
      std::size_t accesses = 0;
      for (const auto& s : t.spans) {
        if (s.name == "sp.access" && s.parent_id == a->span_id) ++accesses;
      }
      EXPECT_EQ(accesses, 1u);
      if (a->status == SpanStatus::kTransientFault) {
        const auto fault = attr(*a, "fault");
        ASSERT_TRUE(fault.has_value());
        EXPECT_EQ(*fault, "timeout");  // the plan only schedules timeouts
      }
    }
    if (result.attempts > 1) {
      saw_retry = true;
      EXPECT_TRUE(t.errored);  // a transient attempt marks the trace
    }
  }
  EXPECT_TRUE(saw_retry) << "fault plan never fired across 12 requests";
}

TEST(TracePropagation, ErroredRequestExportsItsFullRetryChain) {
  sp::core::SessionConfig cfg = toy_config("trace-errored");
  sp::net::FaultPlan plan;
  plan.p_transfer_timeout = 0.98;  // nearly every exchange times out
  plan.seed = "trace-errored-faults";
  cfg.faults = plan;
  cfg.retry.max_attempts = 3;
  FanoutRig rig(cfg, 1);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();

  std::optional<TraceData> errored;
  int attempts_spent = 0;
  for (int i = 0; i < 8 && !errored; ++i) {
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[0], rig.c1_post_, Knowledge::full(rig.ctx_), sp::net::pc_profile());
    auto traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u);
    if (result.error) {
      errored = std::move(traces.front());
      attempts_spent = result.attempts;
    }
  }
  ASSERT_TRUE(errored.has_value()) << "0.98 timeout rate never exhausted the retry budget";

  // The acceptance bar checks the chain on the *exported* trace: encode the
  // dump, decode it back, and walk the decoded tree.
  const std::vector<TraceData> dumped = {*errored};
  const auto decoded = sp::codec::decode_trace_dump(sp::codec::encode_trace_dump(dumped));
  ASSERT_EQ(decoded.size(), 1u);
  const TraceData& t = decoded.front();
  EXPECT_TRUE(t.errored);
  EXPECT_EQ(t.root_name, "sp.request");
  EXPECT_EQ(t.spans, errored->spans);

  const SpanRecord* root = span_by_id(t, 1);
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->status, SpanStatus::kOk);
  const auto attempts = spans_named(t, "sp.attempt");
  ASSERT_EQ(attempts.size(), static_cast<std::size_t>(attempts_spent));
  ASSERT_GE(attempts.size(), 2u);
  for (const SpanRecord* a : attempts) {
    EXPECT_EQ(a->parent_id, root->span_id);
    EXPECT_NE(a->status, SpanStatus::kOk);
    EXPECT_TRUE(attr(*a, "fault").has_value() || attr(*a, "deadline").has_value());
  }
}

TEST(TracePropagation, SameSeedReplayYieldsIdenticalSpanTreeShape) {
  auto run = [](const std::string& tag) {
    sp::core::SessionConfig cfg = toy_config("trace-replay");
    cfg.faults = sp::net::FaultPlan::uniform(0.3, "trace-replay-faults");
    FanoutRig rig(cfg, 2);
    auto& tracer = Tracer::global();
    std::vector<std::vector<std::pair<std::string, std::string>>> shapes;
    sp::crypto::Drbg krng("trace-replay-knowledge-" + tag);
    // Same single-threaded request series: the fault layer's determinism
    // contract (per-(receiver, post) streams in program order) must make
    // every retry/redraw decision — and so every span — replay identically.
    for (int i = 0; i < 6; ++i) {
      const auto& post = (i % 2 == 0) ? rig.c1_post_ : rig.c2_post_;
      const Knowledge knowledge = (i == 4)
                                      ? Knowledge::partial(rig.ctx_, 1, krng)
                                      : Knowledge::full(rig.ctx_);
      (void)rig.session_.access_with_retries(rig.receivers_[i % 2], post, knowledge,
                                             sp::net::pc_profile());
      auto traces = tracer.drain();
      EXPECT_EQ(traces.size(), 1u);
      for (const auto& t : traces) shapes.push_back(tree_shape(t));
    }
    return shapes;
  };

  const TracerOn tracer_on;
  // The knowledge DRBG is re-seeded identically for both runs; everything
  // else (session seed, fault schedule) comes from the config.
  const auto first = run("x");
  const auto second = run("x");
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i << " replayed a different tree";
  }
}

TEST(TracePropagation, ParallelAccessPropagatesThroughPoolAndVerifyQueue) {
  sp::core::SessionConfig cfg = toy_config("trace-parallel");
  FanoutRig rig(cfg, 3);
  const TracerOn tracer_on;
  auto& tracer = Tracer::global();

  std::vector<sp::core::Session::AccessRequest> batch;
  for (int i = 0; i < 6; ++i) {
    sp::core::Session::AccessRequest req;
    req.receiver = rig.receivers_[i % 3];
    req.post_id = (i % 2 == 0) ? rig.c1_post_ : rig.c2_post_;
    req.knowledge = Knowledge::full(rig.ctx_);
    batch.push_back(std::move(req));
  }
  const auto results = rig.session_.access_parallel(batch, 3);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) EXPECT_TRUE(r.success());

  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 6u);
  for (const TraceData& t : traces) {
    EXPECT_EQ(t.root_name, "sp.request");
    // Submit-time roots: the pool's queue wait lands inside the request.
    EXPECT_FALSE(spans_named(t, "pool.wait").empty());
    EXPECT_FALSE(spans_named(t, "pool.task").empty());
    EXPECT_FALSE(spans_named(t, "sp.access").empty());
    EXPECT_FALSE(spans_named(t, "verify.job").empty());
    const auto waits = spans_named(t, "verify.wait");
    ASSERT_FALSE(waits.empty());
    bool some_wait_links = false;
    for (const SpanRecord* w : waits) {
      some_wait_links = some_wait_links || !w->links.empty();
    }
    EXPECT_TRUE(some_wait_links) << "verify.wait never linked its batch jobs";
    // Tree integrity: every parent id resolves inside the same trace.
    for (const auto& s : t.spans) {
      if (s.parent_id != 0) {
        EXPECT_NE(span_by_id(t, s.parent_id), nullptr)
            << s.name << " has a dangling parent";
      }
    }
    EXPECT_EQ(t.spans.back().parent_id, 0u) << "root must finish last";
  }
}

TEST(TracePropagation, WalGroupCommitLinksBackToTheOriginRequest) {
  sp::core::SessionConfig cfg = toy_config("trace-wal");
  sp::core::PersistenceConfig persist;
  persist.dir = ::testing::TempDir() + "/sp-trace-wal";
  cfg.persistence = persist;
  sp::core::Session session(cfg);
  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);

  const TracerOn tracer_on;
  auto& tracer = Tracer::global();
  const sp::core::Context ctx = sp::testsupport::party_context();
  sp::obs::TraceId origin_trace_id;
  {
    sp::obs::Span root = Tracer::global().start_trace("test.share");
    ASSERT_TRUE(root.recording());
    origin_trace_id = root.context().trace_id();
    const sp::obs::ContextGuard guard(root.context());
    (void)session.share_c1(sharer, sp::crypto::to_bytes("durable object"), ctx, 2, 4,
                           sp::net::pc_profile());
  }

  // The group-commit span finishes on the WAL writer thread shortly after
  // the durable wait unblocks — poll the collector briefly.
  std::vector<TraceData> collected;
  const TraceData* origin = nullptr;
  const TraceData* commit = nullptr;
  for (int i = 0; i < 100 && (origin == nullptr || commit == nullptr); ++i) {
    auto drained = tracer.drain();
    for (auto& t : drained) collected.push_back(std::move(t));
    for (const auto& t : collected) {
      if (t.root_name == "test.share") origin = &t;
      if (t.root_name == "wal.group_commit") commit = &t;
    }
    if (origin == nullptr || commit == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(origin, nullptr);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(origin->id, origin_trace_id);

  const auto enqueues = spans_named(*origin, "wal.enqueue");
  ASSERT_FALSE(enqueues.empty()) << "share never tagged a WAL record with its trace";
  const SpanRecord* commit_root = span_by_id(*commit, 1);
  ASSERT_NE(commit_root, nullptr);
  ASSERT_FALSE(commit_root->links.empty());
  bool linked_to_origin = false;
  for (const auto& link : commit_root->links) {
    if (link.trace == origin_trace_id) {
      linked_to_origin = true;
      const bool matches_enqueue =
          std::any_of(enqueues.begin(), enqueues.end(),
                      [&](const SpanRecord* e) { return e->span_id == link.span; });
      EXPECT_TRUE(matches_enqueue) << "batch link does not point at a wal.enqueue span";
    }
  }
  EXPECT_TRUE(linked_to_origin);
}

/// Every sp_phase_latency_ms series the serving path observes.
const std::vector<std::string>& phase_names() {
  static const std::vector<std::string> names = {
      "c1.display", "c1.answer_hashes", "c1.sig_verify", "c1.interpolate",
      "c2.display", "c2.answer_hashes", "c2.access",     "c2.reconstruct",
      "c2.keygen",  "c2.decrypt",       "sp.verify",     "dh.fetch",
      "verify.wait"};
  return names;
}

std::map<std::string, std::uint64_t> phase_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const std::string& name : phase_names()) {
    counts[name] = sp::obs::MetricsRegistry::global()
                       .histogram("sp_phase_latency_ms", "",
                                  sp::obs::Histogram::default_latency_bounds_ms(),
                                  {{"phase", name}})
                       .count();
  }
  return counts;
}

TEST(TracePropagation, LedgerMetricsAndTraceAgreeOnEveryPhase) {
  sp::core::SessionConfig cfg = toy_config("trace-agreement");
  cfg.cache = sp::core::CacheConfig{};  // second accesses take the cache-hit intervals
  FanoutRig rig(cfg, 1);
  const TracerOn tracer_on;
  // The spans that charge the receiver's ledger with local time.
  const std::vector<std::string> ledger_phases = {"c1.answer_hashes", "c1.sig_verify",
                                                  "c1.interpolate", "c2.answer_hashes",
                                                  "c2.access"};
  std::optional<TraceData> c2_miss;

  for (const std::string& post : {rig.c1_post_, rig.c2_post_, rig.c1_post_, rig.c2_post_}) {
    const auto before = phase_counts();
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[0], post, Knowledge::full(rig.ctx_), sp::net::pc_profile());
    ASSERT_TRUE(result.success());
    const auto after = phase_counts();
    const auto traces = Tracer::global().drain();
    ASSERT_EQ(traces.size(), 1u);
    const TraceData& t = traces.front();
    if (post == rig.c2_post_ && !c2_miss) c2_miss = t;

    double ledger_spans_ms = 0;
    for (const std::string& name : ledger_phases) {
      for (const SpanRecord* s : spans_named(t, name)) ledger_spans_ms += s->duration_ms();
    }
    EXPECT_NEAR(ledger_spans_ms, result.cost.local_ms(), 1e-6) << post;
    for (const std::string& name : phase_names()) {
      EXPECT_EQ(after.at(name) - before.at(name), spans_named(t, name).size())
          << post << " phase " << name;
    }
  }

  // The full C2 path (the first C2 access missed the cache) is explained
  // below c2.access by its three receiver-side phases.
  ASSERT_TRUE(c2_miss.has_value());
  const auto access = spans_named(*c2_miss, "c2.access");
  ASSERT_EQ(access.size(), 1u);
  EXPECT_EQ(attr(*access.front(), "cache"), "miss");
  for (const std::string name : {"c2.reconstruct", "c2.keygen", "c2.decrypt"}) {
    const auto phase = spans_named(*c2_miss, name);
    ASSERT_EQ(phase.size(), 1u) << name;
    EXPECT_EQ(phase.front()->parent_id, access.front()->span_id) << name;
  }
}

TEST(TracePropagation, RequestThatThrowsExportsAnErroredTrace) {
  FanoutRig rig(toy_config("trace-throw"), 1);
  const sp::osn::UserId stranger = rig.session_.register_user("stranger");
  const TracerOn tracer_on;
  struct Case {
    sp::osn::UserId receiver;
    std::string post;
  };
  const std::vector<Case> cases = {{rig.receivers_[0], "no-such-post"},
                                   {stranger, rig.c1_post_}};
  for (const Case& c : cases) {
    EXPECT_ANY_THROW((void)rig.session_.access_with_retries(
        c.receiver, c.post, Knowledge::full(rig.ctx_), sp::net::pc_profile()));
    auto traces = Tracer::global().drain();
    ASSERT_EQ(traces.size(), 1u) << c.post;
    EXPECT_TRUE(traces.front().errored) << c.post;
    const SpanRecord* root = span_by_id(traces.front(), 1);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->status, SpanStatus::kTerminal);
    const auto access = spans_named(traces.front(), "sp.access");
    ASSERT_EQ(access.size(), 1u);
    EXPECT_EQ(access.front()->status, SpanStatus::kTerminal);

    sp::core::Session::AccessRequest req;
    req.receiver = c.receiver;
    req.post_id = c.post;
    req.knowledge = Knowledge::full(rig.ctx_);
    const std::vector<sp::core::Session::AccessRequest> batch = {req};
    EXPECT_ANY_THROW((void)rig.session_.access_parallel(batch, 1));
    traces = Tracer::global().drain();
    ASSERT_EQ(traces.size(), 1u) << c.post;
    EXPECT_TRUE(traces.front().errored) << c.post;
  }
}

}  // namespace
