// End-to-end orchestration: runs Construction 1 / Construction 2 over the
// simulated OSN (SocialGraph + ServiceProvider + StorageHost) with the
// network/device cost model, producing exactly the local-vs-network delay
// decomposition of the paper's Figure 10.
//
// The session is the library's top-level convenience API — the examples and
// the benchmark harness both drive it — but every protocol step is also
// reachable individually through Construction1/Construction2 for callers
// that bring their own transport.
//
// Concurrency model (DESIGN.md §"Concurrent serving core" has the full
// story): the receiver-side path — access / access_with_retries /
// access_parallel — is const and reentrant; any number of threads may serve
// accesses concurrently, including while sharer-side writers (register_user,
// befriend, share_*, refresh) run. Writers are individually thread-safe but
// serialize against each other and against readers on the puzzle registry's
// shared_mutex where they must.
#pragma once

#include <map>
#include <memory>
#include <span>

#include "core/construction1.hpp"
#include "core/construction2.hpp"
#include "core/serve_cache.hpp"
#include "core/verify_queue.hpp"
#include "net/faults.hpp"
#include "net/simnet.hpp"
#include "obs/trace.hpp"
#include "osn/service_provider.hpp"
#include "osn/social_graph.hpp"
#include "osn/storage_host.hpp"
#include "storage/wal.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::core {

/// Which construction a share used (recorded per post).
enum class SchemeKind { kConstruction1, kConstruction2 };

struct ShareReceipt {
  std::string post_id;       ///< puzzle id hyperlinked on the sharer's feed
  net::CostLedger cost;      ///< sharer-side Fig. 10 decomposition
  std::size_t object_bytes = 0;
};

struct AccessResult {
  bool granted = false;      ///< SP-side Verify outcome
  std::optional<Bytes> object;  ///< decrypted object on full success
  net::CostLedger cost;      ///< receiver-side Fig. 10 decomposition
  /// Why the serving path failed, when it failed on infrastructure rather
  /// than knowledge (DESIGN.md "Fault model"). Never set on a clean denial.
  std::optional<net::ServeError> error;
  /// Serving attempts access_with_retries spent (fault retries + challenge
  /// draws; plain access() always reports 1).
  int attempts = 1;

  [[nodiscard]] bool success() const { return granted && object.has_value(); }
};

/// Durable SP/DH state rooted at `dir` (the SP persists under dir/sp, the
/// DH under dir/dh). Reopening a session on the same directory rebuilds
/// both hosts' stores from their WAL/segment pairs.
struct PersistenceConfig {
  std::string dir;
  storage::WalWriter::Fsync fsync = storage::WalWriter::Fsync::kBatch;
  std::uint64_t checkpoint_wal_bytes = 64ull << 20;
};

struct SessionConfig {
  ec::ParamPreset pairing_preset = ec::ParamPreset::kTest;
  net::LinkProfile link = net::wlan_80211n_to_ec2();
  std::string seed = "sp-session";
  /// Fault schedule for the serving stack; nullopt = fault-free (the
  /// pre-chaos behavior, bit for bit).
  std::optional<net::FaultPlan> faults;
  /// Retry/backoff/deadline policy applied by access_with_retries and
  /// access_parallel to transient faults.
  net::RetryPolicy retry;
  /// nullopt = in-memory hosts (the pre-persistence behavior, bit for bit).
  std::optional<PersistenceConfig> persistence;
  /// Hot-path serving cache (serve_cache.hpp): memoized C1 signature checks,
  /// C2 DEM keys, and DH-miss markers, keyed by post + epoch. nullopt = no
  /// cache tier (the pre-cache serving path, bit for bit). Refresh and
  /// revoke invalidate — a stale grant is a correctness bug.
  std::optional<CacheConfig> cache;
};

class Session {
 public:
  explicit Session(SessionConfig config);

  // ---- OSN management -------------------------------------------------
  [[nodiscard]] osn::UserId register_user(const std::string& name);
  void befriend(osn::UserId a, osn::UserId b);
  /// Twitter-style directed follow (see osn::Visibility::kPublic).
  void follow(osn::UserId follower, osn::UserId followee) { graph_.follow(follower, followee); }
  [[nodiscard]] const osn::SocialGraph& graph() const { return graph_; }
  [[nodiscard]] osn::ServiceProvider& service_provider() { return sp_; }
  [[nodiscard]] osn::StorageHost& storage_host() { return dh_; }

  // ---- sharing ---------------------------------------------------------
  /// Construction 1 share: Upload + DH store + SP record + feed post.
  /// `visibility` = kPublic posts the hyperlink Twitter-style: any registered
  /// user can attempt the puzzle — the context IS the access control.
  ShareReceipt share_c1(osn::UserId sharer, std::span<const std::uint8_t> object,
                        const Context& ctx, std::size_t k, std::size_t n,
                        const net::DeviceProfile& device,
                        osn::Visibility visibility = osn::Visibility::kFriends);

  /// Construction 2 share: Setup + Encrypt + Perturb + four-file upload.
  ShareReceipt share_c2(osn::UserId sharer, std::span<const std::uint8_t> object,
                        const Context& ctx, std::size_t k, const net::DeviceProfile& device,
                        osn::Visibility visibility = osn::Visibility::kFriends);

  /// Paper §VI-C collusion countermeasure: "Sharers can periodically modify
  /// the puzzle Z_O and/or the encryption key K_O (by re-encrypting the
  /// object)". Re-runs the sharer-side pipeline for an existing post with a
  /// fresh object secret, puzzle key and storage URL; the post id (and the
  /// feed hyperlink) stay stable, previously leaked shares become useless.
  /// Only the original sharer may refresh (throws std::logic_error
  /// otherwise). The sharer supplies the object and context again — neither
  /// is recoverable from the hosts, by design.
  ///
  /// Refresh is the single-writer path: it holds the puzzle registry's
  /// exclusive lock for the whole re-upload, so in-flight accesses always
  /// see either the old or the new puzzle, never a mix.
  ShareReceipt refresh(osn::UserId sharer, const std::string& post_id,
                       std::span<const std::uint8_t> object, const Context& ctx,
                       const net::DeviceProfile& device);

  /// Paper §V dynamic-context revocation: the sharer pulls the encrypted
  /// object from the DH, so granted verifications can no longer complete —
  /// in-flight and future accesses fail with kDhMiss until the sharer
  /// refresh()es the post with a fresh object/puzzle. Bumps the puzzle
  /// epoch and invalidates every cached entry for the post (the serving
  /// cache must never satisfy a request for a revoked object). Idempotent;
  /// only the original sharer may revoke (throws std::logic_error
  /// otherwise). The SP record stays: the puzzle is still displayed, the
  /// paper's ACL lives at the object, not the challenge.
  void revoke(osn::UserId sharer, const std::string& post_id);

  // ---- receiving -------------------------------------------------------
  /// Full receiver flow for a feed hyperlink. Enforces OSN visibility: only
  /// the sharer's friends reach the puzzle (throws std::logic_error
  /// otherwise — the paper delegates stranger-blocking to Facebook ACLs).
  /// Const and reentrant: safe to call from many threads at once.
  AccessResult access(osn::UserId receiver, const std::string& post_id,
                      const Knowledge& knowledge, const net::DeviceProfile& device) const;

  /// The unified retry loop (DESIGN.md "Fault model & retry semantics").
  /// Two independent retry budgets:
  ///  * challenge draws — Construction 1's DisplayPuzzle shows a random
  ///    r-subset of questions, so a receiver who knows enough answers overall
  ///    can still draw a challenge missing them (the web UI just reloads the
  ///    page); up to `max_draws` fresh challenges.
  ///  * transient faults — retried with the session's RetryPolicy
  ///    (exponential backoff, seeded jitter) until max_attempts or the
  ///    modeled deadline runs out (then error = kDeadlineExceeded).
  /// The returned ledger is the sum over every attempt, failed ones and
  /// backoff waits included; `attempts` reports how many were spent.
  AccessResult access_with_retries(osn::UserId receiver, const std::string& post_id,
                                   const Knowledge& knowledge,
                                   const net::DeviceProfile& device, int max_draws = 8) const;

  /// One receiver request inside an access_parallel batch.
  struct AccessRequest {
    osn::UserId receiver = 0;
    std::string post_id;
    Knowledge knowledge;
    net::DeviceProfile device = net::pc_profile();
    int max_draws = 1;  ///< challenge-draw budget (faults retry per RetryPolicy)
  };

  /// Fans a batch of access requests over a bounded-queue thread pool and
  /// returns one result per request, in request order. `num_threads` == 0
  /// picks hardware_concurrency (at least 1). A request that throws (unknown
  /// post, OSN ACL violation) poisons only its own slot: after the whole
  /// batch completes, the first captured exception is rethrown.
  std::vector<AccessResult> access_parallel(std::span<const AccessRequest> requests,
                                            std::size_t num_threads = 0) const;

  /// A user's view of their feed.
  [[nodiscard]] std::vector<osn::Post> feed_of(osn::UserId user) const {
    return graph_.feed_for(user);
  }

  [[nodiscard]] const Construction1& c1() const { return *c1_; }
  [[nodiscard]] const Construction2& c2() const { return *c2_; }
  [[nodiscard]] const ec::Curve& curve() const { return curve_; }
  /// The session's fault schedule (null when configured fault-free). Chaos
  /// tests use it to cross-check injected-fault counts and schedule digests.
  [[nodiscard]] const net::FaultInjector* fault_injector() const { return injector_.get(); }
  /// The serving cache (null when configured cache-free). Exposed for
  /// hit-rate reporting and the invariant suites; mutating it directly from
  /// outside the serving path voids the stale-grant guarantees.
  [[nodiscard]] ServeCache* serve_cache() const { return cache_.get(); }
  /// Current puzzle epoch for a post (bumped by refresh/revoke) — cache
  /// invariant tests pin that churn rotates it.
  [[nodiscard]] std::uint64_t puzzle_epoch(const std::string& post_id) const;

 private:
  struct StoredPuzzle {
    SchemeKind kind;
    osn::UserId sharer;
    osn::Visibility visibility = osn::Visibility::kFriends;
    // C1 state.
    std::optional<Puzzle> puzzle;
    // C2 state (what the SP holds: τ', PK, MK, URL). `ciphertext` is empty:
    // upload_c2 moves it into the DH.
    std::optional<Construction2::UploadResult> c2_files;
    std::string url;
    /// Bumped by refresh/revoke; part of every serving-cache key, so stale
    /// entries become unreachable even before invalidation sweeps them.
    std::uint64_t epoch = 0;
    /// True between revoke() and the restoring refresh(): the DH blob is
    /// gone, so there is no old URL to retire on refresh.
    bool revoked = false;
  };

  /// Forks a per-operation child DRBG under rng_mutex_ (Drbg::fork advances
  /// the parent stream, so unsynchronized forks would race). The child is
  /// exclusively owned by the calling operation — no further locking.
  crypto::Drbg fork_rng(const std::string& label) const SP_EXCLUDES(rng_mutex_);

  /// A user's signing keys. Map nodes are stable and never erased, so the
  /// reference outlives the lookup lock.
  const sig::KeyPair& keys_of(osn::UserId user) SP_EXCLUDES(keys_mutex_);

  /// Sharer side of one C1 post, shared by share_c1 and refresh: Upload,
  /// store O_{K_O} at the DH, patch URL_O into the puzzle and re-sign it,
  /// then charge the record upload. The caller writes `record` to the SP.
  struct C1Upload {
    Puzzle puzzle;
    std::string url;
    Bytes record;
  };
  C1Upload upload_c1(std::span<const std::uint8_t> object, const Context& ctx, std::size_t k,
                     std::size_t n, const sig::KeyPair& keys, crypto::Drbg& rng,
                     net::CostLedger& ledger);

  /// Sharer side of one C2 post, shared by share_c2 and refresh: Setup,
  /// Encrypt and Perturb, the four cold cURL uploads (ciphertext stored at
  /// the DH) and the SP's view of τ', PK and MK. The caller writes
  /// `details` to the SP.
  struct C2Upload {
    Construction2::UploadResult files;
    std::string url;
    Bytes details;
  };
  C2Upload upload_c2(std::span<const std::uint8_t> object, const Context& ctx, std::size_t k,
                     crypto::Drbg& rng, net::CostLedger& ledger);

  /// One request/response exchange under the fault schedule: success charges
  /// the modeled delay and bytes to `ledger`; a timeout charges the plan's
  /// wasted wait and returns the error instead.
  std::optional<net::ServeError> exchange(net::CostLedger& ledger, net::FaultStream* faults,
                                          std::size_t bytes, int round_trips) const;

  /// Body of access_with_retries under an externally owned root span:
  /// access_parallel pre-creates each request's "sp.request" root at submit
  /// time (so pool queue-wait spans land inside the request's trace) and
  /// the worker lambda keeps it alive until the pool's execution span has
  /// ended — the root must end last or pool.task would be sealed out.
  AccessResult access_with_retries_impl(osn::UserId receiver, const std::string& post_id,
                                        const Knowledge& knowledge,
                                        const net::DeviceProfile& device, int max_draws,
                                        obs::Span& root) const;

  // Both take `stored` as a reference into puzzles_, so the caller must keep
  // the registry shared-locked for the whole call — annotated, so Clang
  // rejects any future path that drops the lock before the access finishes.
  // `trace` is the request's span context; phase spans attach under it.
  // `post_id` keys the serving cache together with stored.epoch.
  AccessResult access_c1(const std::string& post_id, const StoredPuzzle& stored,
                         const Knowledge& knowledge, net::CostLedger& ledger, crypto::Drbg& rng,
                         net::FaultStream* faults, const obs::TraceContext& trace) const
      SP_REQUIRES_SHARED(puzzles_mutex_);
  AccessResult access_c2(const std::string& post_id, const StoredPuzzle& stored,
                         const Knowledge& knowledge, net::CostLedger& ledger, crypto::Drbg& rng,
                         net::FaultStream* faults, const obs::TraceContext& trace) const
      SP_REQUIRES_SHARED(puzzles_mutex_);

  SessionConfig config_;
  ec::Curve curve_;
  std::unique_ptr<Construction1> c1_;
  std::unique_ptr<Construction2> c2_;
  osn::SocialGraph graph_;
  osn::ServiceProvider sp_;
  osn::StorageHost dh_;
  net::Network network_;
  std::unique_ptr<net::FaultInjector> injector_;  ///< null = fault-free session
  mutable sp::Mutex rng_mutex_;
  mutable crypto::Drbg rng_ SP_GUARDED_BY(rng_mutex_);
  sp::Mutex keys_mutex_;  ///< guards user_keys_ lookups/inserts (nodes are stable)
  std::map<osn::UserId, sig::KeyPair> user_keys_ SP_GUARDED_BY(keys_mutex_);
  /// Readers (access*) hold this shared for the whole request so refresh
  /// can't mutate a puzzle out from under them; share_* take it exclusively
  /// only around registry insertion, refresh for its whole body.
  mutable sp::SharedMutex puzzles_mutex_;
  std::map<std::string, StoredPuzzle> puzzles_ SP_GUARDED_BY(puzzles_mutex_);  ///< SP-side protocol state
  /// Hot-path serving cache (null = cache-free session). Internally sharded
  /// and locked; accessed under the registry's shared lock on the serving
  /// path and its exclusive lock from refresh/revoke, so invalidation is
  /// never concurrent with a fill for the same request.
  mutable std::unique_ptr<ServeCache> cache_;
  /// Cross-request verification queue (PR 7): every access request's SP
  /// check set and CP-ABE leaf pairings run through this shared bounded
  /// pool. Declared last so it is destroyed first — after destruction no
  /// serving path can touch the members above, and all batches are waited
  /// within their request, so teardown never races live jobs.
  mutable std::unique_ptr<VerifyQueue> verify_queue_;
};

}  // namespace sp::core
