#include "core/session.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.hpp"
#include "crypto/secret.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

namespace {

/// Serving-stack instruments (docs/OBSERVABILITY.md catalog). Phase series
/// mirror the paper's Fig. 10 decomposition; end-to-end series split by
/// scheme and result so denied requests never land in success latencies.
struct SessionMetrics {
  // Per-phase latency (shared family with construction2.cpp's c2.* phases).
  obs::Histogram& c1_upload;
  obs::Histogram& c1_sign;
  obs::Histogram& c2_upload;
  obs::Histogram& c1_display;
  obs::Histogram& c1_answer_hashes;
  obs::Histogram& c1_sig_verify;
  obs::Histogram& c1_interpolate;
  obs::Histogram& c2_display;
  obs::Histogram& c2_answer_hashes;
  obs::Histogram& c2_access;
  obs::Histogram& sp_verify;
  obs::Histogram& dh_fetch;

  // End-to-end serving outcome, split {scheme} x {result}.
  obs::Counter& c1_granted;
  obs::Counter& c1_denied;
  obs::Counter& c2_granted;
  obs::Counter& c2_denied;
  obs::Histogram& c1_granted_ms;
  obs::Histogram& c1_denied_ms;
  obs::Histogram& c2_granted_ms;
  obs::Histogram& c2_denied_ms;

  // Sharer-side traffic and the retry loop of access_with_retries.
  obs::Counter& shares_c1;
  obs::Counter& shares_c2;
  obs::Counter& refreshes;
  obs::Counter& revokes;
  obs::Counter& access_retried;
  obs::Counter& access_denied;
  obs::Counter& access_granted;

  // Fault-retry layer (DESIGN.md "Fault model & retry semantics").
  obs::Counter& retries_draw;
  obs::Counter& retries_fault;
  obs::Counter& deadline_exceeded;

  static obs::Histogram& phase(const char* name) {
    return obs::MetricsRegistry::global().histogram(
        "sp_phase_latency_ms", "Per-phase serving latency",
        obs::Histogram::default_latency_bounds_ms(), {{"phase", name}});
  }
  static obs::Counter& outcome(const char* scheme, const char* result) {
    return obs::MetricsRegistry::global().counter(
        "sp_access_requests_total", "Access requests by scheme and outcome",
        {{"result", result}, {"scheme", scheme}});
  }
  static obs::Histogram& outcome_ms(const char* scheme, const char* result) {
    return obs::MetricsRegistry::global().histogram(
        "sp_access_latency_ms", "End-to-end access wall time (local work only)",
        obs::Histogram::default_latency_bounds_ms(),
        {{"result", result}, {"scheme", scheme}});
  }

  static SessionMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static SessionMetrics m{
        phase("c1.upload"),
        phase("c1.sign"),
        phase("c2.upload"),
        phase("c1.display"),
        phase("c1.answer_hashes"),
        phase("c1.sig_verify"),
        phase("c1.interpolate"),
        phase("c2.display"),
        phase("c2.answer_hashes"),
        phase("c2.access"),
        phase("sp.verify"),
        phase("dh.fetch"),
        outcome("c1", "granted"),
        outcome("c1", "denied"),
        outcome("c2", "granted"),
        outcome("c2", "denied"),
        outcome_ms("c1", "granted"),
        outcome_ms("c1", "denied"),
        outcome_ms("c2", "granted"),
        outcome_ms("c2", "denied"),
        reg.counter("sp_share_requests_total", "Share (upload) operations by scheme",
                    {{"scheme", "c1"}}),
        reg.counter("sp_share_requests_total", "", {{"scheme", "c2"}}),
        reg.counter("sp_refresh_requests_total", "Puzzle refresh operations"),
        reg.counter("sp_revoke_requests_total",
                    "Puzzle revocations (object pulled from the DH pending refresh)"),
        reg.counter("sp_access_retried_total",
                    "Extra challenge draws taken by access_with_retries"),
        reg.counter("sp_access_denied_total",
                    "access_with_retries calls that exhausted every draw denied"),
        reg.counter("sp_access_granted_total",
                    "access_with_retries calls that ended in a grant"),
        reg.counter("sp_retries_total", "Serving retries by phase", {{"phase", "draw"}}),
        reg.counter("sp_retries_total", "", {{"phase", "fault"}}),
        reg.counter("sp_deadline_exceeded_total",
                    "Requests whose retry budget ran out against the modeled deadline"),
    };
    return m;
  }
};

}  // namespace

namespace {

/// Each C2 file moves over a separately spawned cURL HTTPS request (cold
/// connection: DNS + TCP + TLS ≈ 3 round trips) — the "additional overhead
/// caused by the cURL library" the paper blames for I2's network delay.
/// C1's single warm-browser XHR pays 1.
constexpr int kColdCurlRoundTrips = 3;

storage::DurableStore::Options host_store_options(const PersistenceConfig& p, const char* sub) {
  storage::DurableStore::Options opts;
  opts.dir = p.dir + "/" + sub;
  opts.wal.fsync = p.fsync;
  opts.checkpoint_wal_bytes = p.checkpoint_wal_bytes;
  return opts;
}

// Both factories rely on guaranteed copy elision: the hosts are pinned
// (shard mutexes), so the conditional construction must happen directly in
// the member's storage.
osn::ServiceProvider make_sp(const std::optional<PersistenceConfig>& p) {
  if (p) return osn::ServiceProvider(host_store_options(*p, "sp"));
  return osn::ServiceProvider();
}

osn::StorageHost make_dh(const std::optional<PersistenceConfig>& p) {
  if (p) return osn::StorageHost(host_store_options(*p, "dh"));
  return osn::StorageHost();
}

}  // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      curve_(ec::preset_params(config_.pairing_preset)),
      c1_(std::make_unique<Construction1>(
          // Shamir field = the pairing base field: one parameter set drives
          // both constructions, as one security level should.
          curve_.fp(), curve_)),
      c2_(std::make_unique<Construction2>(curve_)),
      sp_(make_sp(config_.persistence)),
      dh_(make_dh(config_.persistence)),
      network_(config_.link, crypto::Drbg(config_.seed + "-net")),
      injector_(config_.faults ? std::make_unique<net::FaultInjector>(*config_.faults) : nullptr),
      rng_(config_.seed + "-session"),
      cache_(config_.cache ? std::make_unique<ServeCache>(*config_.cache) : nullptr),
      verify_queue_(std::make_unique<VerifyQueue>()) {}

crypto::Drbg Session::fork_rng(const std::string& label) const {
  const sp::MutexLock lock(rng_mutex_);
  return rng_.fork(label);
}

std::optional<net::ServeError> Session::exchange(net::CostLedger& ledger,
                                                net::FaultStream* faults, std::size_t bytes,
                                                int round_trips) const {
  const net::Expected<double> delay = network_.try_transfer_ms(bytes, round_trips, faults);
  if (!delay.ok()) {
    ledger.add_wait(injector_->plan().transfer_timeout_ms);
    return delay.error();
  }
  ledger.add_network(delay.value());
  ledger.add_bytes(bytes);
  return std::nullopt;
}

osn::UserId Session::register_user(const std::string& name) {
  const osn::UserId id = graph_.add_user(name);
  crypto::Drbg key_rng = fork_rng("user-keys-" + std::to_string(id));
  // Emplace straight into the map (no intermediate KeyPair copy that would
  // leave an unwiped secret on the stack); keygen under the lock is fine —
  // registration is rare compared to serving.
  const sp::MutexLock lock(keys_mutex_);
  user_keys_.emplace(id, sig::Schnorr(curve_, curve_.hash_to_group(crypto::to_bytes("sp-schnorr-g")))
                             .keygen(key_rng));
  return id;
}

void Session::befriend(osn::UserId a, osn::UserId b) { graph_.befriend(a, b); }

const sig::KeyPair& Session::keys_of(osn::UserId user) {
  // Map nodes are stable and keys are never erased, so the reference stays
  // valid after the lookup lock drops.
  const sp::MutexLock lock(keys_mutex_);
  return user_keys_.at(user);
}

Session::C1Upload Session::upload_c1(std::span<const std::uint8_t> object, const Context& ctx,
                                     std::size_t k, std::size_t n, const sig::KeyPair& keys,
                                     crypto::Drbg& rng, net::CostLedger& ledger) {
  SessionMetrics& metrics = SessionMetrics::get();
  const obs::TraceContext trace = obs::Tracer::current();

  // -- local: Upload subroutine (crypto) --------------------------------
  obs::Span upload_span(trace, "c1.upload", metrics.c1_upload, ledger);
  auto result = c1_->upload(object, ctx, k, n, keys, rng);
  upload_span.end();

  // -- network: store O_{K_O} at the DH ---------------------------------
  ledger.add_network(network_.transfer_ms(result.encrypted_object.size()));
  ledger.add_bytes(result.encrypted_object.size());
  std::string url = dh_.store(std::move(result.encrypted_object));

  // -- local: patch URL_O and re-sign (DoS countermeasure) --------------
  obs::Span sign_span(trace, "c1.sign", metrics.c1_sign, ledger);
  result.puzzle.url = url;
  c1_->sign_puzzle(result.puzzle, keys);
  Bytes record = result.puzzle.serialize();
  sign_span.end();

  // -- network: upload Z_O to the SP ------------------------------------
  ledger.add_network(network_.transfer_ms(record.size()));
  ledger.add_bytes(record.size());
  return C1Upload{std::move(result.puzzle), std::move(url), std::move(record)};
}

Session::C2Upload Session::upload_c2(std::span<const std::uint8_t> object, const Context& ctx,
                                     std::size_t k, crypto::Drbg& rng,
                                     net::CostLedger& ledger) {
  // -- local: Setup + Encrypt + Perturb (the heavy CP-ABE work) ----------
  obs::Span upload_span(obs::Tracer::current(), "c2.upload", SessionMetrics::get().c2_upload,
                        ledger);
  auto files = c2_->upload(object, ctx, k, rng);
  upload_span.end();

  // -- network: the paper's four cURL uploads (details, pub, master -> SP;
  //    ciphertext -> DH).
  Bytes details = files.perturbed_tree.serialize();
  for (const std::size_t bytes :
       {details.size(), files.public_key.size(), files.master_key.size()}) {
    ledger.add_network(network_.transfer_ms(bytes, kColdCurlRoundTrips));
    ledger.add_bytes(bytes);
  }
  ledger.add_network(network_.transfer_ms(files.ciphertext.size(), kColdCurlRoundTrips));
  ledger.add_bytes(files.ciphertext.size());
  // The DH holds the only copy: access fetches it from there, so the
  // session's file set keeps just what the SP holds.
  std::string url = dh_.store(std::move(files.ciphertext));

  // SP view: τ' + PK + MK (it never sees τ or the object).
  sp_.observe("c2-details", details);
  sp_.observe("c2-public-key", files.public_key);
  sp_.observe("c2-master-key", files.master_key);
  return C2Upload{std::move(files), std::move(url), std::move(details)};
}

ShareReceipt Session::share_c1(osn::UserId sharer, std::span<const std::uint8_t> object,
                               const Context& ctx, std::size_t k, std::size_t n,
                               const net::DeviceProfile& device, osn::Visibility visibility) {
  const sig::KeyPair& keys = keys_of(sharer);
  crypto::Drbg op_rng = fork_rng("share-c1");
  net::CostLedger ledger(device);
  SessionMetrics::get().shares_c1.inc();

  C1Upload up = upload_c1(object, ctx, k, n, keys, op_rng, ledger);
  const std::string post_id = sp_.store_record(up.record);

  StoredPuzzle stored;
  stored.kind = SchemeKind::kConstruction1;
  stored.sharer = sharer;
  stored.visibility = visibility;
  stored.puzzle = std::move(up.puzzle);
  stored.url = std::move(up.url);
  {
    const sp::UniqueLock lock(puzzles_mutex_);
    puzzles_.emplace(post_id, std::move(stored));
  }

  graph_.post(osn::Post{sharer, post_id, "shared a social puzzle", visibility});
  return ShareReceipt{post_id, ledger, object.size()};
}

ShareReceipt Session::share_c2(osn::UserId sharer, std::span<const std::uint8_t> object,
                               const Context& ctx, std::size_t k,
                               const net::DeviceProfile& device, osn::Visibility visibility) {
  crypto::Drbg op_rng = fork_rng("share-c2");
  net::CostLedger ledger(device);
  SessionMetrics::get().shares_c2.inc();

  C2Upload up = upload_c2(object, ctx, k, op_rng, ledger);

  StoredPuzzle stored;
  stored.kind = SchemeKind::kConstruction2;
  stored.sharer = sharer;
  stored.visibility = visibility;
  stored.c2_files = std::move(up.files);
  stored.url = std::move(up.url);

  const std::string post_id = sp_.store_record(up.details);
  {
    const sp::UniqueLock lock(puzzles_mutex_);
    puzzles_.emplace(post_id, std::move(stored));
  }
  graph_.post(osn::Post{sharer, post_id, "shared a social puzzle (ABE)", visibility});
  return ShareReceipt{post_id, ledger, object.size()};
}

ShareReceipt Session::refresh(osn::UserId sharer, const std::string& post_id,
                              std::span<const std::uint8_t> object, const Context& ctx,
                              const net::DeviceProfile& device) {
  // Single-writer path: exclusive for the whole body so concurrent accesses
  // see the old puzzle until the new one (record, blob, registry entry) is
  // complete. See DESIGN.md for the lock order.
  const sp::UniqueLock registry_lock(puzzles_mutex_);
  auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::refresh: unknown post " + post_id);
  StoredPuzzle& stored = it->second;
  if (stored.sharer != sharer) {
    throw std::logic_error("Session::refresh: only the original sharer can refresh");
  }

  const std::string old_url = stored.url;
  net::CostLedger ledger(device);
  crypto::Drbg op_rng = fork_rng("refresh-" + post_id);
  SessionMetrics::get().refreshes.inc();

  if (stored.kind == SchemeKind::kConstruction1) {
    const Puzzle& old = *stored.puzzle;
    C1Upload up = upload_c1(object, ctx, old.threshold, old.n(), keys_of(sharer), op_rng, ledger);
    sp_.replace_record(post_id, up.record);
    stored.puzzle = std::move(up.puzzle);
    stored.url = std::move(up.url);
  } else {
    C2Upload up = upload_c2(object, ctx, stored.c2_files->threshold, op_rng, ledger);
    sp_.replace_record(post_id, up.details);
    stored.c2_files = std::move(up.files);
    stored.url = std::move(up.url);
  }

  // Retire the stale ciphertext so leaked keys can't fetch it later (a
  // revoked post already pulled it). The epoch bump plus the cache sweep
  // guarantee no memoized state from the old puzzle generation can satisfy
  // a request against the new one — and clear any DH-miss markers, so a
  // revoked post resumes serving the moment its refresh lands.
  if (stored.revoked) {
    stored.revoked = false;
  } else {
    dh_.remove(old_url);
  }
  ++stored.epoch;
  if (cache_) cache_->invalidate_post(post_id);
  return ShareReceipt{post_id, ledger, object.size()};
}

void Session::revoke(osn::UserId sharer, const std::string& post_id) {
  // Same single-writer discipline as refresh: exclusive for the whole body,
  // so a concurrent access either completed against the live object or
  // starts against the revoked state — never a cached half of each.
  const sp::UniqueLock registry_lock(puzzles_mutex_);
  auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::revoke: unknown post " + post_id);
  StoredPuzzle& stored = it->second;
  if (stored.sharer != sharer) {
    throw std::logic_error("Session::revoke: only the original sharer can revoke");
  }
  if (stored.revoked) return;  // idempotent
  SessionMetrics::get().revokes.inc();
  dh_.remove(stored.url);
  stored.revoked = true;
  ++stored.epoch;
  if (cache_) cache_->invalidate_post(post_id);
}

std::uint64_t Session::puzzle_epoch(const std::string& post_id) const {
  const sp::SharedLock registry_lock(puzzles_mutex_);
  return puzzles_.at(post_id).epoch;
}

AccessResult Session::access(osn::UserId receiver, const std::string& post_id,
                             const Knowledge& knowledge, const net::DeviceProfile& device) const {
  // Root-or-child: a direct access() call roots its own trace; one made
  // inside access_with_retries' attempt context nests under that attempt.
  const obs::TraceContext enclosing = obs::Tracer::current();
  obs::Span root = enclosing.sampled() ? obs::Span(enclosing, "sp.access")
                                       : obs::Tracer::global().start_trace("sp.access");
  // The root span also times the end-to-end outcome series; any series arms
  // its clock here. The series — split by success(), granted AND object
  // recovered, so a granted-but-tampered request counts as denied — is
  // picked at the end. A request that throws observes none.
  SessionMetrics& metrics = SessionMetrics::get();
  root.set_histogram(metrics.c1_granted_ms);
  const obs::TraceContext trace = root.context();
  const obs::ContextGuard trace_guard(trace);
  if (root.recording()) root.add_attr("receiver", static_cast<std::int64_t>(receiver));
  // Shared for the whole request: many accesses proceed in parallel, while
  // refresh (exclusive) waits for in-flight requests and blocks new ones.
  const sp::SharedLock registry_lock(puzzles_mutex_);
  const auto it = puzzles_.find(post_id);
  if (it == puzzles_.end()) throw std::out_of_range("Session::access: unknown post " + post_id);
  const StoredPuzzle& stored = it->second;
  // OSN-level ACL for friends-only posts; public (Twitter-style) posts rely
  // on the puzzle alone — "the context-based access mechanism will add a
  // layer of privacy protection" (§I).
  if (stored.visibility == osn::Visibility::kFriends && receiver != stored.sharer &&
      !graph_.are_friends(receiver, stored.sharer)) {
    throw std::logic_error("Session::access: receiver is not in the sharer's network");
  }
  net::CostLedger ledger(device);
  crypto::Drbg op_rng = fork_rng("access-" + post_id);
  // Each attempt gets its own fault tape: decisions depend only on (plan
  // seed, receiver, post, per-(receiver, post) ordinal), never on thread
  // scheduling. See faults.hpp's determinism contract.
  std::optional<net::FaultStream> fault_tape;
  if (injector_) fault_tape = injector_->stream(receiver, post_id);
  net::FaultStream* faults = fault_tape ? &*fault_tape : nullptr;
  const bool is_c1 = stored.kind == SchemeKind::kConstruction1;
  if (root.recording()) root.add_attr("scheme", is_c1 ? "c1" : "c2");
  AccessResult result =
      is_c1 ? access_c1(post_id, stored, knowledge, ledger, op_rng, faults, trace)
            : access_c2(post_id, stored, knowledge, ledger, op_rng, faults, trace);
  result.cost = ledger;
  const bool ok = result.success();
  if (is_c1) {
    (ok ? metrics.c1_granted : metrics.c1_denied).inc();
    root.set_histogram(ok ? metrics.c1_granted_ms : metrics.c1_denied_ms);
  } else {
    (ok ? metrics.c2_granted : metrics.c2_denied).inc();
    root.set_histogram(ok ? metrics.c2_granted_ms : metrics.c2_denied_ms);
  }
  if (root.recording()) {
    root.add_attr("granted", result.granted ? "true" : "false");
    if (result.error) {
      root.add_attr("error", net::to_string(*result.error));
      root.set_status(net::is_transient(*result.error) ? obs::SpanStatus::kTransientFault
                                                       : obs::SpanStatus::kTerminal);
    }
  }
  return result;
}

AccessResult Session::access_with_retries(osn::UserId receiver, const std::string& post_id,
                                          const Knowledge& knowledge,
                                          const net::DeviceProfile& device, int max_draws) const {
  obs::Span root = obs::Tracer::global().start_trace("sp.request");
  return access_with_retries_impl(receiver, post_id, knowledge, device, max_draws, root);
}

AccessResult Session::access_with_retries_impl(osn::UserId receiver, const std::string& post_id,
                                               const Knowledge& knowledge,
                                               const net::DeviceProfile& device, int max_draws,
                                               obs::Span& root) const {
  if (max_draws < 1) throw std::invalid_argument("access_with_retries: max_draws >= 1");
  if (root.recording()) root.add_attr("receiver", static_cast<std::int64_t>(receiver));
  const obs::TraceContext root_ctx = root.context();
  SessionMetrics& metrics = SessionMetrics::get();
  const net::RetryPolicy& policy = config_.retry;
  // Backoff jitter replays with the fault schedule (seeded, per-request),
  // so a retried chaos run costs the same modeled time every run.
  std::optional<net::FaultStream> jitter_tape;
  if (injector_) {
    jitter_tape = injector_->stream_for_label("retry-" + std::to_string(receiver) + "-" + post_id);
  }

  net::CostLedger total(device);
  AccessResult result;
  int attempts = 0;
  int draws = 1;          // challenge draws spent (first attempt included)
  int fault_retries = 0;  // transient-fault retries spent
  for (;;) {
    ++attempts;
    // One child span per attempt: the full retry/fault chain is readable off
    // the exported trace (chaos tests pin this shape).
    obs::Span attempt(root_ctx, "sp.attempt");
    if (attempt.recording()) attempt.add_attr("attempt", static_cast<std::int64_t>(attempts));
    const obs::ContextGuard attempt_guard(attempt.context());
    result = access(receiver, post_id, knowledge, device);
    total.merge(result.cost);
    if (result.success()) break;

    if (result.error && net::is_transient(*result.error)) {
      attempt.set_status(obs::SpanStatus::kTransientFault);
      attempt.add_attr("fault", net::to_string(*result.error));
      // Infrastructure blip: retry under the policy's attempt/deadline budget.
      if (attempts >= policy.max_attempts) break;
      const double unit = jitter_tape ? jitter_tape->jitter_unit(
                                            static_cast<std::uint64_t>(fault_retries))
                                      : 0.0;
      const double wait = policy.backoff_ms(fault_retries, unit);
      if (total.total_ms() + wait > policy.deadline_ms) {
        result.error = net::ServeError::kDeadlineExceeded;
        metrics.deadline_exceeded.inc();
        attempt.set_status(obs::SpanStatus::kTerminal);
        attempt.add_attr("deadline", "exceeded");
        break;
      }
      attempt.add_attr("backoff_ms", wait);
      total.add_wait(wait);
      ++fault_retries;
      metrics.retries_fault.inc();
      continue;
    }
    if (result.error) {
      attempt.set_status(obs::SpanStatus::kTerminal);
      attempt.add_attr("fault", net::to_string(*result.error));
      break;  // terminal fault — retrying cannot help
    }

    // Clean denial: C1's DisplayPuzzle drew an unlucky question subset; a
    // fresh draw may cover the receiver's knowledge.
    if (draws >= max_draws) break;
    ++draws;
    attempt.add_attr("redraw", "true");
    metrics.access_retried.inc();
    metrics.retries_draw.inc();
  }
  result.cost = total;
  result.attempts = attempts;
  if (root.recording()) {
    root.add_attr("attempts", static_cast<std::int64_t>(attempts));
    if (!result.success() && result.error) {
      root.set_status(net::is_transient(*result.error) ? obs::SpanStatus::kTransientFault
                                                       : obs::SpanStatus::kTerminal);
    }
  }
  (result.success() ? metrics.access_granted : metrics.access_denied).inc();
  return result;
}

std::vector<AccessResult> Session::access_parallel(std::span<const AccessRequest> requests,
                                                   std::size_t num_threads) const {
  std::vector<AccessResult> results(requests.size());
  if (requests.empty()) return results;
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, requests.size());
  std::vector<std::exception_ptr> errors(requests.size());
  {
    // Queue bound = 2x workers: enough to keep every worker fed while the
    // submitting thread applies back-pressure instead of buffering the
    // whole batch.
    ThreadPool pool(num_threads, 2 * num_threads);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // The request's trace roots HERE, at submit time, and the root context
      // is installed around submit() so the pool's queue-wait and execution
      // spans land inside this request's trace. The worker lambda owns the
      // root via shared_ptr: it ends when the lambda is destroyed, which the
      // pool guarantees happens after its pool.task span ended — the root
      // finishes last, so no child is sealed out as a straggler.
      auto root = std::make_shared<obs::Span>(obs::Tracer::global().start_trace("sp.request"));
      const obs::ContextGuard guard(root->context());
      pool.submit([this, &requests, &results, &errors, i, root] {
        try {
          const AccessRequest& req = requests[i];
          // Through the retry loop, so batch serving survives transient
          // faults the same way sequential serving does.
          results[i] = access_with_retries_impl(req.receiver, req.post_id, req.knowledge,
                                                req.device, req.max_draws, *root);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return results;
}

AccessResult Session::access_c1(const std::string& post_id, const StoredPuzzle& stored,
                                const Knowledge& knowledge, net::CostLedger& ledger,
                                crypto::Drbg& rng, net::FaultStream* faults,
                                const obs::TraceContext& trace) const {
  const Puzzle& puzzle = *stored.puzzle;
  SessionMetrics& metrics = SessionMetrics::get();
  AccessResult result;

  // -- SP: DisplayPuzzle; network: challenge download -------------------
  obs::Span display_span(trace, "c1.display", metrics.c1_display);
  const auto challenge = Construction1::display_puzzle(puzzle, rng);
  display_span.end();
  if (const auto err = exchange(ledger, faults, challenge.wire_size(), 1)) {
    result.error = err;
    return result;
  }

  // -- receiver local: AnswerPuzzle (hashing) ----------------------------
  obs::Span answer_span(trace, "c1.answer_hashes", metrics.c1_answer_hashes, ledger);
  const auto response = Construction1::answer_puzzle(challenge, knowledge);
  answer_span.end();

  // -- SP availability: a transient outage drops the Verify exchange; the
  //    receiver still paid for the response upload it sent into the void.
  if (!sp_.serve_ok(faults)) {
    ledger.add_network(network_.transfer_ms(response.wire_size()));
    ledger.add_bytes(response.wire_size());
    result.error = net::ServeError::kSpUnavailable;
    return result;
  }

  // -- network: response up, reply down (one exchange) -------------------
  // The SP's observation log gets everything the receiver sends.
  for (const Bytes& h : response.hashes) sp_.observe("c1-response-hash", h);
  obs::Span verify_span(trace, "sp.verify", metrics.sp_verify);
  // Verify batches its check set through the shared queue; the guard makes
  // this span the parent of the batch's verify.wait/verify.job spans.
  auto reply = [&] {
    const obs::ContextGuard verify_guard(verify_span.context());
    return Construction1::verify(puzzle, challenge, response.hashes, verify_queue_.get());
  }();
  verify_span.end();
  if (const auto err = exchange(ledger, faults, response.wire_size() + reply.wire_size(), 1)) {
    result.error = err;
    return result;
  }

  result.granted = reply.granted;
  if (!reply.granted) return result;

  // -- partial SP reply: some granted shares are lost in delivery. While
  //    >= k survive the request degrades gracefully (Access only needs
  //    threshold shares); below k the reply is unserviceable.
  if (const std::size_t dropped = sp_.partial_drop(reply.shares.size(), faults); dropped > 0) {
    reply.shares.resize(reply.shares.size() - dropped);
    if (reply.shares.size() < puzzle.threshold) {
      result.granted = false;
      result.error = net::ServeError::kSpUnavailable;
      return result;
    }
  }

  // -- receiver local: verify the sharer's signature on (URL, k, K_Z) ----
  // Memoized per (post, epoch, URL): the signature covers immutable puzzle
  // state, so a hot post pays the two scalar multiplications once. Cache
  // consulted only after the grant — it can shortcut work, never decisions.
  // One interval for trace, histogram and ledger: the lookup plus, on a
  // miss, the verification (docs/OBSERVABILITY.md).
  obs::Span sig_span(trace, "c1.sig_verify", metrics.c1_sig_verify, ledger);
  bool sig_ok = false;
  bool sig_cached = false;
  const std::string sig_entry_id =
      cache_ ? ServeCache::key(post_id, stored.epoch, ServeCache::Kind::kC1Sig, reply.url)
             : std::string();
  if (cache_) {
    sig_cached = cache_->get(sig_entry_id, ServeCache::Kind::kC1Sig).has_value();
    sig_ok = sig_cached;  // only verified signatures are ever inserted
    sig_span.add_attr("cache", sig_cached ? "hit" : "miss");
  }
  if (!sig_cached) {
    Puzzle verified_view = puzzle;  // fields as received from the SP
    verified_view.url = reply.url;
    sig_ok = c1_->verify_puzzle_signature(verified_view);
    if (sig_ok && cache_) cache_->put(sig_entry_id, ServeCache::Kind::kC1Sig, Bytes{1});
  }
  sig_span.end();
  if (!sig_ok) {
    result.granted = false;
    return result;
  }

  // -- network: download O_{K_O} from the DH -----------------------------
  // A negative-cache hit means this URL was authoritatively absent (e.g.
  // the post is revoked): fail fast without paying the round trip. The
  // refreshing re-upload bumps the epoch, making the marker unreachable.
  const std::string neg_entry_id =
      cache_ ? ServeCache::key(post_id, stored.epoch, ServeCache::Kind::kDhNegative, reply.url)
             : std::string();
  if (cache_ && cache_->negative_hit(neg_entry_id)) {
    result.error = net::ServeError::kDhMiss;
    return result;
  }
  Bytes encrypted;
  {
    obs::Span fetch_span(trace, "dh.fetch", metrics.dh_fetch);
    net::Expected<Bytes> fetched = dh_.try_fetch(reply.url, faults);
    if (!fetched.ok()) {
      // Injected miss, or a malicious SP pointing at a missing object.
      fetch_span.set_status(obs::SpanStatus::kTransientFault);
      // Only an authoritative absence is worth remembering: an injected
      // fault on a live blob must not poison the negative cache.
      if (cache_ && fetched.error() == net::ServeError::kDhMiss && !dh_.exists(reply.url)) {
        cache_->negative_put(neg_entry_id);
      }
      result.error = fetched.error();
      return result;
    }
    encrypted = std::move(fetched).value();
  }
  if (const auto err = exchange(ledger, faults, encrypted.size(), 1)) {
    result.error = err;
    return result;
  }

  // -- receiver local: Access (unblind, Lagrange, decrypt) --------------
  obs::Span access_span(trace, "c1.interpolate", metrics.c1_interpolate, ledger);
  try {
    result.object = c1_->access(puzzle, challenge, reply, knowledge, encrypted);
  } catch (const std::exception&) {
    result.object = std::nullopt;  // delivered bytes too mangled to parse
  }
  access_span.end();
  // Granted but undecryptable = the delivered bytes are bad (injected
  // corruption or a tampering host), never a silent empty object.
  if (!result.object) result.error = net::ServeError::kCorruptedBlob;
  return result;
}

AccessResult Session::access_c2(const std::string& post_id, const StoredPuzzle& stored,
                                const Knowledge& knowledge, net::CostLedger& ledger,
                                crypto::Drbg& rng, net::FaultStream* faults,
                                const obs::TraceContext& trace) const {
  const auto& files = *stored.c2_files;
  SessionMetrics& metrics = SessionMetrics::get();
  AccessResult result;

  // -- network: download details (τ' questions) --------------------------
  obs::Span display_span(trace, "c2.display", metrics.c2_display);
  const auto challenge = Construction2::display_puzzle(files.perturbed_tree, files.threshold);
  display_span.end();
  if (const auto err = exchange(ledger, faults, challenge.wire_size(), 1)) {
    result.error = err;
    return result;
  }

  // -- receiver local: hash answers --------------------------------------
  obs::Span answer_span(trace, "c2.answer_hashes", metrics.c2_answer_hashes, ledger);
  const auto response = Construction2::answer_puzzle(challenge, knowledge);
  answer_span.end();

  // -- SP availability (same semantics as C1's Verify exchange) ----------
  if (!sp_.serve_ok(faults)) {
    ledger.add_network(network_.transfer_ms(response.wire_size()));
    ledger.add_bytes(response.wire_size());
    result.error = net::ServeError::kSpUnavailable;
    return result;
  }

  for (const std::string& h : response.answer_hashes) {
    sp_.observe("c2-response-hash", crypto::to_bytes(h));
  }
  obs::Span verify_span(trace, "sp.verify", metrics.sp_verify);
  const auto reply = [&] {
    const obs::ContextGuard verify_guard(verify_span.context());
    return Construction2::verify(files.perturbed_tree, files.threshold, challenge, response,
                                 stored.url, verify_queue_.get());
  }();
  verify_span.end();
  if (const auto err = exchange(ledger, faults, response.wire_size() + reply.wire_size(files), 1)) {
    result.error = err;
    return result;
  }

  result.granted = reply.granted;
  if (!reply.granted) return result;

  // -- network: three file downloads (CT' from DH; PK, MK from SP), again
  //    one cold cURL connection each in the paper's Qt receiver -----------
  const std::string neg_entry_id =
      cache_ ? ServeCache::key(post_id, stored.epoch, ServeCache::Kind::kDhNegative, reply.url)
             : std::string();
  if (cache_ && cache_->negative_hit(neg_entry_id)) {
    result.error = net::ServeError::kDhMiss;  // known-absent: skip the round trip
    return result;
  }
  Bytes ciphertext;
  {
    obs::Span fetch_span(trace, "dh.fetch", metrics.dh_fetch);
    net::Expected<Bytes> fetched = dh_.try_fetch(reply.url, faults);
    if (!fetched.ok()) {
      fetch_span.set_status(obs::SpanStatus::kTransientFault);
      if (cache_ && fetched.error() == net::ServeError::kDhMiss && !dh_.exists(reply.url)) {
        cache_->negative_put(neg_entry_id);
      }
      result.error = fetched.error();
      return result;
    }
    ciphertext = std::move(fetched).value();
  }
  if (const auto err = exchange(ledger, faults, ciphertext.size(), kColdCurlRoundTrips)) {
    result.error = err;
    return result;
  }

  // -- receiver local: Reconstruct + KeyGen + Decrypt --------------------
  // Memoized per (post, epoch): a successful access proved (via the
  // envelope's HMAC-SHA256 tag) which DEM key seals this epoch's envelope,
  // so hot posts skip the pairing-heavy phases AND the PK/MK downloads. The
  // lookup happens only after Verify granted and the ciphertext arrived: a
  // hit can never widen access, only cut the cost of access already granted.
  const std::string dem_entry_id =
      cache_ ? ServeCache::key(post_id, stored.epoch, ServeCache::Kind::kC2Dem) : std::string();
  if (cache_) {
    if (std::optional<Bytes> dem = cache_->get(dem_entry_id, ServeCache::Kind::kC2Dem)) {
      obs::Span access_span(trace, "c2.access", metrics.c2_access, ledger);
      access_span.add_attr("cache", "hit");
      result.object = Construction2::open_sealed(ciphertext, *dem);
      crypto::secure_wipe(*dem);
      access_span.end();
      // A delivered-copy corruption fails the envelope tag exactly like the
      // full path; the cached key itself stays valid for this epoch.
      if (!result.object) result.error = net::ServeError::kCorruptedBlob;
      return result;
    }
  }
  if (const auto err = exchange(ledger, faults, files.public_key.size(), kColdCurlRoundTrips)) {
    result.error = err;
    return result;
  }
  if (const auto err = exchange(ledger, faults, files.master_key.size(), kColdCurlRoundTrips)) {
    result.error = err;
    return result;
  }

  obs::Span access_span(trace, "c2.access", metrics.c2_access, ledger);
  if (cache_) access_span.add_attr("cache", "miss");
  Bytes dem_key;
  try {
    // Batched CP-ABE leaf pairings run through the queue; parent them here.
    const obs::ContextGuard access_guard(access_span.context());
    result.object = c2_->access(ciphertext, files.public_key, files.master_key, knowledge, rng,
                                verify_queue_->runner(), cache_ ? &dem_key : nullptr);
  } catch (const std::exception&) {
    result.object = std::nullopt;  // delivered bytes too mangled to parse
  }
  access_span.end();
  if (!result.object) result.error = net::ServeError::kCorruptedBlob;
  // Fill only from a fully successful access: access() hands the key out
  // only after the envelope authenticated, so a fault mid-pipeline (partial
  // delivery, corrupted blob, wrong key) can never cache a poisoned entry.
  if (cache_ && result.object && !dem_key.empty()) {
    cache_->put(dem_entry_id, ServeCache::Kind::kC2Dem, std::move(dem_key));
  } else {
    crypto::secure_wipe(dem_key);
  }
  return result;
}

}  // namespace sp::core
