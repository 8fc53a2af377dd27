// Host- and session-level persistence round trips (PR 8 tentpole): a durable
// ServiceProvider / StorageHost closed cleanly and reopened on the same
// directory must serve exactly the state it acknowledged — records,
// observations, blobs, and the id counters that keep new ids from colliding
// with recovered ones.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "osn/service_provider.hpp"
#include "osn/storage_host.hpp"
#include "support/fixtures.hpp"

namespace sp::osn {
namespace {

namespace fs = std::filesystem;
using crypto::Bytes;
using crypto::to_bytes;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() / ("sp-persist-test-" + std::to_string(::getpid()) + "-" +
                                        std::to_string(counter_++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string str() const { return dir_.string(); }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path dir_;
};

storage::DurableStore::Options fast_opts(const std::string& dir) {
  storage::DurableStore::Options opts;
  opts.dir = dir;
  opts.wal.fsync = storage::WalWriter::Fsync::kNever;  // tests: speed over power-loss
  return opts;
}

TEST(ServiceProviderPersistence, RecordsObservationsAndCounterSurviveReopen) {
  TempDir tmp;
  std::string id1;
  std::string id2;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    EXPECT_TRUE(sp.is_durable());
    id1 = sp.store_record(to_bytes("record-one"));
    id2 = sp.store_record(to_bytes("record-two"));
    sp.replace_record(id1, to_bytes("record-one-refreshed"));
    sp.observe("verify", to_bytes("answer traffic"));
    sp.observe("upload", to_bytes("puzzle upload"));
    sp.sync();
  }
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    EXPECT_EQ(sp.recovery_stats().wal_records, 5u);  // 3 record puts + 2 observations
    EXPECT_EQ(sp.record_count(), 2u);
    EXPECT_EQ(sp.record(id1), to_bytes("record-one-refreshed"));
    EXPECT_EQ(sp.record(id2), to_bytes("record-two"));
    const auto obs = sp.observations();
    ASSERT_EQ(obs.size(), 2u);
    EXPECT_EQ(obs[0].channel, "verify");
    EXPECT_EQ(obs[1].channel, "upload");
    EXPECT_EQ(obs[1].data, to_bytes("puzzle upload"));
    // The id counter continues past recovered ids: no collision, no reuse.
    const std::string id3 = sp.store_record(to_bytes("record-three"));
    EXPECT_NE(id3, id1);
    EXPECT_NE(id3, id2);
    EXPECT_EQ(sp.record_count(), 3u);
  }
}

TEST(ServiceProviderPersistence, TamperedStateIsWhatPersists) {
  // A malicious-SP tamper is a durable mutation like any other: reopening
  // serves the tampered bytes, exactly what a receiver would then see.
  TempDir tmp;
  std::string id;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    id = sp.store_record(to_bytes("0123456789"));
    sp.tamper_record(id, 4, to_bytes("XY"));
  }
  ServiceProvider sp(fast_opts(tmp.str()));
  EXPECT_EQ(sp.record(id), to_bytes("0123XY6789"));
}

TEST(ServiceProviderPersistence, CheckpointCompactsWithoutDuplicatingObservations) {
  TempDir tmp;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    sp.store_record(to_bytes("a"));
    sp.observe("ch", to_bytes("before-checkpoint"));
    sp.checkpoint();
    // Post-checkpoint observations land in the new WAL; the pre-checkpoint
    // one lives in the segment. Recovery must not double-apply either.
    sp.observe("ch", to_bytes("after-checkpoint"));
    sp.store_record(to_bytes("b"));
    sp.sync();
  }
  ServiceProvider sp(fast_opts(tmp.str()));
  EXPECT_EQ(sp.record_count(), 2u);
  const auto obs = sp.observations();
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].data, to_bytes("before-checkpoint"));
  EXPECT_EQ(obs[1].data, to_bytes("after-checkpoint"));
}

TEST(ServiceProviderPersistence, CounterSurvivesCheckpointOnlyHistory) {
  // After a checkpoint deletes the WAL that carried the id-counter seqs, the
  // segment's meta record must still restore monotonic id issuance.
  TempDir tmp;
  std::set<std::string> ids;
  {
    ServiceProvider sp(fast_opts(tmp.str()));
    for (int i = 0; i < 5; ++i) ids.insert(sp.store_record(to_bytes("r")));
    sp.checkpoint();
  }
  ServiceProvider sp(fast_opts(tmp.str()));
  for (int i = 0; i < 5; ++i) {
    const auto [_, fresh] = ids.insert(sp.store_record(to_bytes("r")));
    EXPECT_TRUE(fresh) << "recovered counter reissued an id";
  }
  EXPECT_EQ(sp.record_count(), 10u);
}

TEST(StorageHostPersistence, BlobsTamperRemoveAndCounterSurviveReopen) {
  TempDir tmp;
  std::string kept;
  std::string tampered;
  std::string removed;
  {
    StorageHost dh(fast_opts(tmp.str()));
    EXPECT_TRUE(dh.is_durable());
    kept = dh.store(to_bytes("kept-object"));
    tampered = dh.store(to_bytes("0123"));
    removed = dh.store(to_bytes("doomed"));
    dh.tamper(tampered, 1);
    dh.remove(removed);
    dh.sync();
  }
  {
    StorageHost dh(fast_opts(tmp.str()));
    EXPECT_EQ(dh.object_count(), 2u);
    EXPECT_EQ(dh.fetch(kept), to_bytes("kept-object"));
    Bytes want = to_bytes("0123");
    want[1] ^= 0x01;
    EXPECT_EQ(dh.fetch(tampered), want);
    EXPECT_FALSE(dh.exists(removed));
    // URL issuance continues: a new store never collides with live URLs.
    const std::string fresh = dh.store(to_bytes("new-object"));
    EXPECT_NE(fresh, kept);
    EXPECT_NE(fresh, tampered);
    EXPECT_EQ(dh.object_count(), 3u);
  }
}

TEST(StorageHostPersistence, MaybeCheckpointFiresOnWalGrowth) {
  TempDir tmp;
  auto opts = fast_opts(tmp.str());
  opts.checkpoint_wal_bytes = 2048;
  StorageHost dh(opts);
  bool fired = false;
  for (int i = 0; i < 200 && !fired; ++i) {
    dh.store(to_bytes("some blob payload " + std::to_string(i)));
    fired = dh.maybe_checkpoint();
  }
  EXPECT_TRUE(fired);
  ASSERT_NE(dh.durable(), nullptr);
  EXPECT_EQ(dh.durable()->epoch(), 1u);
  EXPECT_FALSE(fs::exists(storage::DurableStore::wal_path(tmp.str(), 0)));
}

TEST(SessionPersistence, HostsReopenWithSharedState) {
  // The session wires PersistenceConfig through to both hosts (SP under
  // dir/sp, DH under dir/dh). The puzzle *registry* is session memory — what
  // must survive is every byte the SP and DH acknowledged.
  TempDir tmp;
  std::string post_c1;
  std::string post_c2;
  std::size_t sp_records = 0;
  std::size_t dh_objects = 0;
  Bytes c1_record;

  core::SessionConfig cfg = testsupport::toy_config("persist-session");
  core::PersistenceConfig persist;
  persist.dir = tmp.str();
  persist.fsync = storage::WalWriter::Fsync::kNever;
  cfg.persistence = persist;
  {
    core::Session session(cfg);
    const auto sharer = session.register_user("sharer");
    const auto friend_id = session.register_user("friend");
    session.befriend(sharer, friend_id);
    const core::Context ctx = testsupport::party_context();
    post_c1 = session.share_c1(sharer, to_bytes("c1 object"), ctx, 2, 4, net::pc_profile()).post_id;
    post_c2 = session.share_c2(sharer, to_bytes("c2 object"), ctx, 2, net::pc_profile()).post_id;

    // A durable session still serves accesses end to end.
    const auto result =
        session.access(friend_id, post_c1, core::Knowledge::full(ctx), net::pc_profile());
    ASSERT_TRUE(result.success());

    sp_records = session.service_provider().record_count();
    dh_objects = session.storage_host().object_count();
    c1_record = session.service_provider().record(post_c1);
    EXPECT_GE(sp_records, 2u);
    EXPECT_GE(dh_objects, 2u);
  }
  {
    core::Session session(cfg);
    EXPECT_EQ(session.service_provider().record_count(), sp_records);
    EXPECT_EQ(session.storage_host().object_count(), dh_objects);
    EXPECT_EQ(session.service_provider().record(post_c1), c1_record);
    EXPECT_TRUE(session.service_provider().has_record(post_c2));
    EXPECT_GT(session.service_provider().recovery_stats().wal_records, 0u);
  }
  // In-memory sessions stay exactly as before: no directory, no recovery.
  core::Session ephemeral(testsupport::toy_config("persist-none"));
  EXPECT_FALSE(ephemeral.service_provider().is_durable());
  EXPECT_FALSE(ephemeral.storage_host().is_durable());
}

/// Median modeled cost (local + network + wait) of a mixed C1/C2
/// access_parallel batch on a fresh fan-out rig; every request must grant.
double median_parallel_access_ms(const core::SessionConfig& cfg) {
  constexpr std::size_t kReceivers = 4;
  constexpr std::size_t kRequests = 32;
  testsupport::FanoutRig rig(cfg, kReceivers);
  std::vector<core::Session::AccessRequest> requests(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests[i].receiver = rig.receivers_[i % kReceivers];
    requests[i].post_id = i % 2 == 0 ? rig.c1_post_ : rig.c2_post_;
    requests[i].knowledge = core::Knowledge::full(rig.ctx_);
  }
  const auto results = rig.session_.access_parallel(requests, kReceivers);
  std::vector<double> costs;
  for (const auto& result : results) {
    EXPECT_TRUE(result.success());
    costs.push_back(result.cost.total_ms());
  }
  std::sort(costs.begin(), costs.end());
  return (costs[kRequests / 2 - 1] + costs[kRequests / 2]) / 2;
}

TEST(SessionPersistence, DurableParallelServingExportsFamiliesAtInMemoryCost) {
  // The serving stack's metric families and the WAL's cost on the access
  // path: a durable session (default batch fsync, every write acknowledged
  // only after its group commit) must serve a parallel batch at a median
  // modeled cost within 1.25x of an in-memory one, then reopen with the
  // storage families recorded. The cost is wire-dominated and identical in
  // both arms, so the bar holds on a noisy machine.
  TempDir tmp;
  const double in_memory_ms = median_parallel_access_ms(testsupport::toy_config("metrics-mem"));
  core::SessionConfig cfg = testsupport::toy_config("metrics-wal");
  core::PersistenceConfig persist;
  persist.dir = tmp.str();
  cfg.persistence = persist;
  const double durable_ms = median_parallel_access_ms(cfg);
  EXPECT_GT(in_memory_ms, 0.0);
  EXPECT_LE(durable_ms, 1.25 * in_memory_ms)
      << "durable median " << durable_ms << " ms, in-memory " << in_memory_ms << " ms";

  {
    core::Session reopened(cfg);
    EXPECT_GT(reopened.service_provider().recovery_stats().wal_records, 0u);
  }
  auto& registry = obs::MetricsRegistry::global();
  ASSERT_TRUE(registry.enabled());
  const std::string exposition = registry.to_prometheus();
  for (const char* family : {"sp_access_requests_total", "sp_phase_latency_ms",
                             "pool_tasks_total", "osn_dh_requests_total",
                             "sp_storage_wal_appends_total", "sp_storage_recovery_ms"}) {
    EXPECT_NE(exposition.find("# TYPE " + std::string(family) + " "), std::string::npos)
        << "missing family " << family;
  }
  EXPECT_GT(registry.counter("sp_storage_wal_appends_total").value(), 0u);
}

}  // namespace
}  // namespace sp::osn
