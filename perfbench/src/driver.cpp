#include "driver.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>

#include "core/session.hpp"
#include "oracle.hpp"
#include "registry.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using sp::core::AccessResult;
using sp::core::Session;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}
Clock::time_point at_ns(std::int64_t ns) { return kEpoch + std::chrono::nanoseconds(ns); }
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

/// Resident set size now, from /proc/self/statm.
double rss_mb() {
  std::ifstream in("/proc/self/statm");
  double pages = 0;
  double resident = 0;
  in >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double dir_mb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Host CPU ticks (total, steal) from /proc/stat: the share of time the
/// hypervisor ran someone else on our CPUs, recorded beside every result.
std::pair<double, double> host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0;
  double steal = 0;
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

/// Per-post runtime state shared by the workers.
struct PostState {
  std::string post_id;
  PostHistory history;
  std::mutex write_mutex;  ///< a sharer's writes to one post do not overlap
  std::atomic<bool> warm{false};
  std::uint32_t version = 0;  ///< refreshes so far; guarded by write_mutex
};

/// One opened, populated Session with the benchmark's view of its state.
struct World {
  const Stream* stream = nullptr;
  std::uint64_t seed = 0;
  fs::path dir;
  std::unique_ptr<Session> session;
  std::map<std::uint64_t, sp::osn::UserId> uid;
  std::vector<std::unique_ptr<PostState>> posts;

  std::mutex violation_mutex;
  std::string violation;
  std::atomic<std::size_t> failed{0};
  std::string first_failure;

  void record_judgement(const Judgement& j) {
    if (j.verdict == Verdict::kOk) return;
    const std::lock_guard lock(violation_mutex);
    if (j.verdict == Verdict::kViolation) {
      if (violation.empty()) violation = j.why;
    } else {
      ++failed;
      if (first_failure.empty()) first_failure = j.why;
    }
  }
};

sp::core::SessionConfig session_config(const Options& opt, const fs::path& dir) {
  sp::core::SessionConfig config;
  config.pairing_preset = opt.preset;
  config.seed = "perfbench-" + std::to_string(opt.seed);
  config.persistence = sp::core::PersistenceConfig{dir.string()};
  config.cache = sp::core::CacheConfig{};
  return config;
}

struct OpRecord {
  OpKind kind = OpKind::kAccess;
  AccessClass cls = AccessClass::kDenied;
  bool c2 = false;
  std::int64_t due_ns = 0;
  std::int64_t release_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t bytes = 0;
  int attempts = 1;
  bool completed = false;  ///< returned without an exception
  bool replayed = false;
  double replay_ms = 0;
};

/// Write end of a version whose write has not returned yet.
constexpr std::int64_t kWriteRunning = std::numeric_limits<std::int64_t>::max();

/// Executes one op against the Session and judges it.
void execute(World& w, const Op& op, OpRecord& rec) {
  PostState& ps = *w.posts[op.post];
  const PostInfo& info = w.stream->posts[op.post];
  Session& session = *w.session;
  const sp::osn::UserId sharer = w.uid.at(info.sharer);
  rec.kind = op.kind;
  rec.c2 = info.c2;
  const auto judge_write = [&](bool threw) {
    if (threw) w.record_judgement({Verdict::kFailed, "write threw"});
    rec.completed = !threw;
  };

  switch (op.kind) {
    case OpKind::kAccess: {
      const bool knows = op.known >= kThreshold;
      if (knows && ps.history.revoked_now()) {
        rec.cls = AccessClass::kRevoked;
      } else if (!knows) {
        rec.cls = AccessClass::kDenied;
      } else if (ps.warm.load()) {
        rec.cls = info.c2 ? AccessClass::kC2Hit : AccessClass::kC1Hit;
      } else {
        rec.cls = info.c2 ? AccessClass::kC2Miss : AccessClass::kC1Miss;
      }
      AccessResult result;
      bool threw = false;
      rec.start_ns = now_ns();
      try {
        // Construction 2 displays every question, so a redraw cannot help.
        result = session.access_with_retries(w.uid.at(op.receiver), ps.post_id, op.knowledge,
                                             sp::net::pc_profile(), info.c2 ? 1 : 8);
      } catch (const std::exception&) {
        threw = true;
      }
      rec.end_ns = now_ns();
      const std::vector<PostVersion> acceptable = ps.history.acceptable(rec.start_ns, rec.end_ns);
      const Judgement j = judge_access({op.known, kThreshold, kQuestions, !info.c2}, acceptable,
                                       threw ? nullptr : &result, threw);
      w.record_judgement(j);
      if (!threw) {
        rec.completed = true;
        rec.bytes = result.cost.bytes_transferred();
        rec.attempts = result.attempts;
        if (result.success()) ps.warm.store(true);
      }
      return;
    }
    case OpKind::kShare: {
      const std::lock_guard lock(ps.write_mutex);
      const sp::crypto::Bytes object = object_bytes(w.seed, op.post, 0);
      bool threw = false;
      rec.start_ns = now_ns();
      try {
        const sp::core::ShareReceipt receipt =
            info.c2 ? session.share_c2(sharer, object, info.context, kThreshold, sp::net::pc_profile())
                    : session.share_c1(sharer, object, info.context, kThreshold, kQuestions,
                                       sp::net::pc_profile());
        ps.post_id = receipt.post_id;
        rec.bytes = receipt.cost.bytes_transferred();
      } catch (const std::exception&) {
        threw = true;
      }
      rec.end_ns = now_ns();
      if (!threw) ps.history.append({object, false, rec.start_ns, rec.end_ns});
      ps.warm.store(false);
      judge_write(threw);
      return;
    }
    case OpKind::kRefresh: {
      const std::lock_guard lock(ps.write_mutex);
      const sp::crypto::Bytes object = object_bytes(w.seed, op.post, ps.version + 1);
      bool threw = false;
      rec.start_ns = now_ns();
      // Recorded before the call, so an access that sees the new state
      // before refresh() returns is judged against it.
      ps.history.append({object, false, rec.start_ns, kWriteRunning});
      try {
        const sp::core::ShareReceipt receipt =
            session.refresh(sharer, ps.post_id, object, info.context, sp::net::pc_profile());
        rec.bytes = receipt.cost.bytes_transferred();
      } catch (const std::exception&) {
        threw = true;
      }
      rec.end_ns = now_ns();
      if (threw) {
        ps.history.retract_last();
      } else {
        ++ps.version;
        ps.history.finish_last(rec.end_ns);
      }
      ps.warm.store(false);
      judge_write(threw);
      return;
    }
    case OpKind::kRevoke: {
      const std::lock_guard lock(ps.write_mutex);
      bool threw = false;
      rec.start_ns = now_ns();
      // Recorded before the call: revoke() pulls the blob first, so an
      // access can miss it at the DH before revoke() returns.
      ps.history.append({{}, true, rec.start_ns, kWriteRunning});
      try {
        session.revoke(sharer, ps.post_id);
      } catch (const std::exception&) {
        threw = true;
      }
      rec.end_ns = now_ns();
      if (threw) {
        ps.history.retract_last();
      } else {
        ps.history.finish_last(rec.end_ns);
      }
      ps.warm.store(false);
      judge_write(threw);
      return;
    }
  }
}

/// Opens a Session on an empty directory and brings it to the workload's
/// starting state: users, friendships, the shared catalogue, and one
/// warming access per catalogue post.
std::unique_ptr<World> set_up(const Options& opt, const Stream& stream, const fs::path& dir,
                              int threads) {
  auto w = std::make_unique<World>();
  w->stream = &stream;
  w->seed = opt.seed;
  w->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  w->session = std::make_unique<Session>(session_config(opt, dir));
  Session& session = *w->session;
  for (const std::uint64_t user : stream.users) {
    w->uid[user] = session.register_user("user-" + std::to_string(user));
  }
  for (const auto& [a, b] : stream.friendships) session.befriend(w->uid.at(a), w->uid.at(b));
  for (std::size_t i = 0; i < stream.posts.size(); ++i) w->posts.push_back(std::make_unique<PostState>());

  std::vector<std::uint32_t> catalog;
  for (std::uint32_t p = 0; p < stream.posts.size(); ++p) {
    if (stream.posts[p].in_catalog) catalog.push_back(p);
  }
  std::vector<OpRecord> scratch(catalog.size());
  parallel_for(catalog.size(), threads, [&](std::size_t i) {
    Op share;
    share.kind = OpKind::kShare;
    share.post = catalog[i];
    execute(*w, share, scratch[i]);
  });
  parallel_for(catalog.size(), threads, [&](std::size_t i) {
    const PostInfo& info = stream.posts[catalog[i]];
    Op warm;
    warm.kind = OpKind::kAccess;
    warm.post = catalog[i];
    warm.receiver = info.sharer;
    warm.known = kQuestions;
    warm.knowledge = sp::core::Knowledge::full(info.context);
    execute(*w, warm, scratch[i]);
  });
  if (!w->violation.empty()) throw OracleViolation(w->violation);
  if (w->failed > 0) throw std::runtime_error("set-up failed: " + w->first_failure);
  return w;
}

/// Replay sampling inside the traced phase.
struct Tracing {
  Replayer* replayer = nullptr;
  LayerSamples* samples = nullptr;
  double fraction = 0;
  std::uint64_t seed = 0;
  std::atomic<std::size_t> errors{0};

  [[nodiscard]] bool sampled(std::size_t index) const {
    std::uint64_t x = (seed + 0x9e3779b97f4a7c15ULL) ^ (index * 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 31;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 29;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
  }
};

void replay_op(World& w, const Op& op, OpRecord& rec, Tracing& tracing) {
  const PostInfo& info = w.stream->posts[op.post];
  PostState& ps = *w.posts[op.post];
  try {
    switch (op.kind) {
      case OpKind::kAccess:
        rec.replay_ms = tracing.replayer->access(ps.post_id, op.post, info, op.knowledge, rec.cls,
                                                 rec.attempts, *tracing.samples);
        break;
      case OpKind::kShare:
      case OpKind::kRefresh:
        rec.replay_ms = tracing.replayer->share(op.post, info, object_bytes(w.seed, op.post, 0),
                                                *tracing.samples);
        break;
      case OpKind::kRevoke:
        return;  // pulling a blob cannot be replayed without changing state
    }
    rec.replayed = true;
  } catch (const std::exception&) {
    ++tracing.errors;
  }
}

/// CPU-time windows of a phase (cpu_ms_per_op is their median).
constexpr std::size_t kCpuWindows = 5;
/// Process CPU and host ticks are sampled at this step through a phase.
constexpr double kMarkStep_s = 0.1;
/// A window in which the hypervisor ran other guests on our CPUs for more
/// than this share of the time measures the host, not the program, and is
/// left out of every windowed figure (see least_disturbed). A cold C2
/// access spreads its pairings over every core, so a few percent of steal
/// already slows it by a fifth or more.
constexpr double kMaxStealShare = 0.03;
/// An untraced phase that lost more than this share is made again once.
constexpr double kMaxPhaseSteal = 0.05;

struct Mark {
  double cpu_ms = 0;       ///< process user+sys CPU time
  double host_ticks = 0;   ///< all /proc/stat CPU ticks
  double steal_ticks = 0;  ///< of which steal
  double rss_mb = 0;       ///< process resident set size
};

struct PhaseResult {
  std::vector<OpRecord> records;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double span_s = 0;        ///< the offered part of the phase
  std::vector<Mark> marks;  ///< at start + k * kMarkStep_s, covering the span

  /// Marks bracketing [t0_s, t1_s).
  [[nodiscard]] std::pair<const Mark*, const Mark*> bracket(double t0_s, double t1_s) const {
    const auto last = static_cast<double>(marks.size() - 1);
    const auto k0 = static_cast<std::size_t>(std::clamp(std::floor(t0_s / kMarkStep_s), 0.0, last));
    const auto k1 = static_cast<std::size_t>(std::clamp(std::ceil(t1_s / kMarkStep_s - 1e-9), 0.0, last));
    return {&marks[k0], &marks[k1]};
  }
  /// Share of the host's CPU time stolen by other guests over [t0_s, t1_s).
  [[nodiscard]] double steal_share(double t0_s, double t1_s) const {
    const auto [a, b] = bracket(t0_s, t1_s);
    const double ticks = b->host_ticks - a->host_ticks;
    return ticks <= 0 ? 0 : (b->steal_ticks - a->steal_ticks) / ticks;
  }
  /// Which of `windows` equal slices of the span the windowed figures use.
  [[nodiscard]] std::vector<bool> quiet_windows(std::size_t windows) const {
    const double width = span_s / static_cast<double>(windows);
    std::vector<double> steal(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      steal[w] = steal_share(width * static_cast<double>(w), width * static_cast<double>(w + 1));
    }
    return least_disturbed(steal, kMaxStealShare);
  }
};

/// Open-loop phase: a dispatcher releases `base` at their due times (plus
/// `shift_s`), bursts after their parent share completes; `workers` threads
/// execute. Latency is timed from each op's due time.
PhaseResult run_phase(World& w, const std::vector<const Op*>& base, double shift_s,
                      double span_s, int workers, Tracing* tracing) {
  struct Item {
    const Op* op;
    std::size_t record;
    std::int64_t due_ns;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const { return a.due_ns > b.due_ns; }
  };

  PhaseResult out;
  std::vector<std::size_t> first_child(base.size());
  std::size_t total = base.size();
  std::size_t parents = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    first_child[i] = total;
    total += base[i]->child_count;
    if (base[i]->child_count > 0) ++parents;
  }
  out.records.resize(total);

  std::mutex mutex;
  std::condition_variable dispatch_cv;
  std::condition_variable ready_cv;
  std::priority_queue<Item, std::vector<Item>, Later> bursts;
  std::deque<Item> ready;
  bool done = false;
  std::size_t outstanding_parents = parents;

  // A short lead so the first due times are not already late.
  out.start_ns = now_ns() + 20'000'000;
  out.span_s = span_s;
  const std::int64_t shift_ns = static_cast<std::int64_t>(shift_s * 1e9);
  const auto marks_needed = static_cast<std::size_t>(std::ceil(span_s / kMarkStep_s)) + 1;
  const auto mark_ns = [&](std::size_t k) {
    return out.start_ns + static_cast<std::int64_t>(kMarkStep_s * 1e9 * static_cast<double>(k));
  };

  std::thread dispatcher([&] {
    std::size_t next = 0;
    const auto take_marks = [&] {
      while (out.marks.size() < marks_needed && now_ns() >= mark_ns(out.marks.size())) {
        const auto [ticks, steal] = host_ticks();
        out.marks.push_back({cpu_ms(), ticks, steal, rss_mb()});
      }
    };
    const auto next_mark = [&] {
      return out.marks.size() < marks_needed ? mark_ns(out.marks.size()) : INT64_MAX;
    };
    std::unique_lock lock(mutex);
    for (;;) {
      take_marks();
      const bool have_base = next < base.size();
      const std::int64_t base_due =
          have_base ? out.start_ns + static_cast<std::int64_t>(base[next]->due_s * 1e9) - shift_ns
                    : INT64_MAX;
      const std::int64_t burst_due = bursts.empty() ? INT64_MAX : bursts.top().due_ns;
      if (!have_base && bursts.empty()) {
        if (outstanding_parents == 0) break;
        dispatch_cv.wait_until(lock, at_ns(next_mark()));
        continue;
      }
      const std::int64_t due = std::min(base_due, burst_due);
      if (now_ns() < due) {
        dispatch_cv.wait_until(lock, at_ns(std::min(due, next_mark())));
        continue;
      }
      Item item{};
      if (base_due <= burst_due) {
        item = {base[next], next, base_due};
        ++next;
      } else {
        item = bursts.top();
        bursts.pop();
      }
      OpRecord& rec = out.records[item.record];
      rec.due_ns = item.due_ns;
      rec.release_ns = now_ns();
      ready.push_back(item);
      ready_cv.notify_one();
    }
    done = true;
    ready_cv.notify_all();
    lock.unlock();
    while (out.marks.size() < marks_needed) {
      std::this_thread::sleep_until(at_ns(next_mark()));
      take_marks();
    }
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        Item item{};
        {
          std::unique_lock lock(mutex);
          ready_cv.wait(lock, [&] { return !ready.empty() || done; });
          if (ready.empty()) return;
          item = ready.front();
          ready.pop_front();
        }
        OpRecord& rec = out.records[item.record];
        execute(w, *item.op, rec);
        if (item.op->child_count > 0) {
          const std::lock_guard lock(mutex);
          const std::size_t first = item.record < base.size() ? first_child[item.record] : 0;
          for (std::uint32_t c = 0; c < item.op->child_count; ++c) {
            const Op& child = w.stream->bursts[item.op->first_child + c];
            bursts.push({&child, first + c,
                         rec.end_ns + static_cast<std::int64_t>(child.due_s * 1e9)});
          }
          --outstanding_parents;
          dispatch_cv.notify_one();
        }
        if (tracing != nullptr && tracing->sampled(item.record)) replay_op(w, *item.op, rec, *tracing);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  dispatcher.join();
  out.end_ns = now_ns();
  return out;
}

struct Latencies {
  std::vector<TimedSample> access_ms;  ///< due to end, keyed by due time
  std::vector<TimedSample> share_ms;
  std::vector<double> lateness_ms;  ///< start - due, in due order
  std::vector<double> dispatch_lag_ms;
  std::vector<double> queue_wait_ms;
  std::size_t completed = 0;
  double bytes = 0;
  double attempts = 0;
  std::size_t accesses = 0;
  double cpu_ms_per_op = 0;  ///< median over the quiet CPU windows
  std::size_t cpu_windows = 0;
};

Latencies summarize(const PhaseResult& phase) {
  Latencies l;
  std::vector<const OpRecord*> by_due;
  std::vector<std::size_t> ended(kCpuWindows, 0);
  for (const OpRecord& r : phase.records) {
    by_due.push_back(&r);
    const double t_s = static_cast<double>(r.due_ns - phase.start_ns) / 1e9;
    const TimedSample latency{t_s, ns_to_ms(r.end_ns - r.due_ns)};
    if (r.kind == OpKind::kAccess) {
      l.access_ms.push_back(latency);
      l.attempts += r.attempts;
      ++l.accesses;
    } else {
      l.share_ms.push_back(latency);
    }
    l.dispatch_lag_ms.push_back(ns_to_ms(r.release_ns - r.due_ns));
    l.queue_wait_ms.push_back(ns_to_ms(r.start_ns - r.release_ns));
    if (r.completed) {
      ++l.completed;
      l.bytes += static_cast<double>(r.bytes);
      const double end_s = static_cast<double>(r.end_ns - phase.start_ns) / 1e9;
      const double k = std::floor(end_s / phase.span_s * static_cast<double>(kCpuWindows));
      if (k >= 0 && k < static_cast<double>(kCpuWindows)) ++ended[static_cast<std::size_t>(k)];
    }
  }
  std::sort(by_due.begin(), by_due.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->due_ns < b->due_ns; });
  for (const OpRecord* r : by_due) l.lateness_ms.push_back(ns_to_ms(r->start_ns - r->due_ns));
  const double width = phase.span_s / static_cast<double>(kCpuWindows);
  const std::vector<bool> quiet = phase.quiet_windows(kCpuWindows);
  const auto cpu_per_op = [&](bool quiet_only) {
    std::vector<double> v;
    for (std::size_t k = 0; k < kCpuWindows; ++k) {
      const double t0 = width * static_cast<double>(k);
      if (ended[k] == 0 || (quiet_only && !quiet[k])) continue;
      const auto [a, b] = phase.bracket(t0, t0 + width);
      v.push_back((b->cpu_ms - a->cpu_ms) / static_cast<double>(ended[k]));
    }
    return v;
  };
  std::vector<double> per_window = cpu_per_op(true);
  if (per_window.empty()) per_window = cpu_per_op(false);  // no quiet window: use them all
  l.cpu_windows = per_window.size();
  l.cpu_ms_per_op = median(per_window);
  return l;
}

/// Validity guard: the offered rate is above capacity when ops start later
/// and later across the phase. Compares the median lateness (start - due) of
/// the first and the last third of ops, in due order.
std::string backlog_check(const std::vector<double>& lateness_ms, double* first, double* last) {
  const std::size_t n = lateness_ms.size();
  if (n < 9) return {};
  const auto third = static_cast<std::ptrdiff_t>(n / 3);
  *first = median({lateness_ms.begin(), lateness_ms.begin() + third});
  *last = median({lateness_ms.end() - third, lateness_ms.end()});
  // Far above a transient burst of the slowest ops (tens of ms), far below
  // what a rate 10% over capacity accumulates in a phase (seconds).
  constexpr double kGrowthLimitMs = 250;
  if (*last > *first + kGrowthLimitMs) {
    return "dispatch lag grew from " + std::to_string(*first) + " ms to " + std::to_string(*last) +
           " ms across the timed phase: offered rate above capacity";
  }
  return {};
}

void add(std::vector<Metric>& out, std::string name, double value, std::string unit,
         std::size_t samples = 0, std::string note = {}) {
  out.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

/// p50 and tail of one latency population, each the median over the
/// phase's quiet windows. The whole-phase tail goes to the artifact only: on
/// a shared host its run-to-run spread is far above any bound a gate could
/// use.
void add_latency(std::vector<Metric>& out, std::vector<Metric>& extras, const std::string& prefix,
                 const std::vector<TimedSample>& samples, double expected, const PhaseResult& phase) {
  const std::size_t windows = window_count(expected);
  const double percentile = ladder_percentile(expected / static_cast<double>(windows));
  const std::vector<bool> use = phase.quiet_windows(windows);
  const double width = phase.span_s / static_cast<double>(windows);
  const auto quiet = [&](double t0, double) {
    return use[static_cast<std::size_t>(std::lround(t0 / width))];
  };
  const Windowed p50 = windowed_percentile(samples, phase.span_s, windows, 50, quiet);
  const std::string cut = " of each of " + std::to_string(p50.windows) + " windows (" +
                          std::to_string(p50.skipped) + " left out for host steal), median over windows";
  add(out, prefix + "_p50_ms", p50.value, "ms", p50.samples, "p50" + cut);
  const Windowed t = windowed_percentile(samples, phase.span_s, windows, percentile, quiet);
  add(out, prefix + "_tail_ms", t.value, "ms", t.samples,
      percentile_name(percentile) + cut + "; >= " + std::to_string(t.min_beyond) +
          " samples beyond it in every window");
  const double whole = ladder_percentile(static_cast<double>(samples.size()));
  const Windowed w = windowed_percentile(samples, phase.span_s, 1, whole);
  add(extras, prefix + "_tail_whole_phase_ms", w.value, "ms", w.samples,
      percentile_name(whole) + " of the whole phase, " + std::to_string(w.min_beyond) +
          " samples beyond");
}

double ratio(std::optional<double> num, std::optional<double> den) {
  if (!num || !den || *den <= 0) return 0;
  return *num / *den;
}

}  // namespace

Report run_benchmark(const Options& opt) {
  const WorkloadSpec& spec = workload(opt.workload);
  const Stream stream = make_stream(spec, opt.seed, opt.settle_s + opt.seconds);
  const int threads = std::max(1, cpu_count() - 1);  // plus the dispatcher = nproc
  const fs::path root = fs::path(opt.workdir) / (spec.name + "-" + std::to_string(opt.seed) + "-" +
                                                 std::to_string(::getpid()));
  fs::create_directories(root);

  Report report;
  report.meta["workload"] = spec.name;
  report.meta["seed"] = std::to_string(opt.seed);
  report.meta["seconds"] = std::to_string(opt.seconds);
  report.meta["settle_seconds"] = std::to_string(opt.settle_s);
  report.meta["mode"] = opt.trace ? "traced" : "untraced";
  report.meta["preset"] = opt.preset == sp::ec::ParamPreset::kFull ? "kFull (512-bit Type A)"
                                                                   : "reduced (self-test)";
  report.meta["nproc"] = std::to_string(cpu_count());
  report.meta["workers"] = std::to_string(threads);
  report.meta["cpu_model"] = cpu_model();
  report.meta["stream_digest"] = stream.digest();
  report.meta["users"] = std::to_string(stream.users.size());

  std::vector<const Op*> settle;
  std::vector<const Op*> phase_a;
  std::vector<const Op*> phase_b;
  const double span_a = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double split_s = opt.settle_s + span_a;
  std::size_t expected_ops = 0;
  for (const Op& op : stream.ops) {
    if (op.due_s < opt.settle_s) {
      settle.push_back(&op);
      continue;
    }
    (op.due_s < split_s ? phase_a : phase_b).push_back(&op);
    expected_ops += 1 + op.child_count;
  }
  report.offered_rate = static_cast<double>(expected_ops) / opt.seconds;

  // ---- set-up (repeated; the last World is the one measured), then the
  // timed phase, untraced. A phase that lost more than kMaxPhaseSteal of
  // the host's CPU time to other guests measured the host: it is made again
  // once, from one fresh set-up, and the retry is kept. setup_s comes from
  // the first attempt. Every attempt's operations are judged and counted.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::optional<PhaseResult> a_kept;
  RegistrySnapshot before;
  RegistrySnapshot after;
  double disk_mb = 0;
  double steal = 0;
  std::string violation;
  std::string attempt_steal;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const fs::path dir = root / ("attempt-" + std::to_string(attempt));
    const int setups = attempt == 0 ? opt.setups : 1;
    for (int i = 0; i < setups; ++i) {
      world.reset();
      const auto t0 = Clock::now();
      world = set_up(opt, stream, dir / ("setup-" + std::to_string(i)), threads);
      if (attempt == 0) setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    for (int i = 0; i + 1 < setups; ++i) fs::remove_all(dir / ("setup-" + std::to_string(i)));
    // Hand the heap freed by earlier set-ups and attempts back to the OS, so
    // the phase's RSS samples count only the measured World.
    ::malloc_trim(0);

    // Settling: judged and counted like every op, but not measured.
    if (!settle.empty()) {
      const PhaseResult settled = run_phase(*world, settle, 0, opt.settle_s, threads, nullptr);
      report.attempted += settled.records.size();
    }
    before = RegistrySnapshot::take();
    const auto [ticks_before, steal_before] = host_ticks();
    a_kept = run_phase(*world, phase_a, opt.settle_s, span_a, threads, nullptr);
    const auto [ticks_after, steal_after] = host_ticks();
    after = RegistrySnapshot::take();
    steal = ticks_after > ticks_before ? (steal_after - steal_before) / (ticks_after - ticks_before) : 0;
    attempt_steal += (attempt ? ", " : "") + std::to_string(100 * steal);
    report.attempted += a_kept->records.size();
    disk_mb = dir_mb(world->dir);
    if (attempt == 1 || steal <= kMaxPhaseSteal) break;
    report.failed += world->failed;
    violation = world->violation;
    world.reset();
    fs::remove_all(dir);
  }
  const PhaseResult& a = *a_kept;
  report.meta["host_steal_pct"] = std::to_string(100 * steal);
  report.meta["host_steal_pct_per_attempt"] = attempt_steal;
  const Latencies la = summarize(a);
  report.achieved_rate = static_cast<double>(la.completed) / (ns_to_ms(a.end_ns - a.start_ns) / 1e3);

  double first_q = 0;
  double last_q = 0;
  report.invalid_reason = backlog_check(la.lateness_ms, &first_q, &last_q);
  report.meta["lateness_first_third_ms"] = std::to_string(first_q);
  report.meta["lateness_last_third_ms"] = std::to_string(last_q);

  const auto d = [&](const std::string& name, const std::vector<std::string>& labels = {}) {
    return delta(before, after, name, labels);
  };
  const double hits = d("sp_cache_requests_total", {"result=\"hit\""}).value_or(0) -
                      d("sp_cache_requests_total", {"class=\"dh_negative\"", "result=\"hit\""}).value_or(0);
  const double lookups = d("sp_cache_requests_total").value_or(0) -
                         d("sp_cache_requests_total", {"class=\"dh_negative\""}).value_or(0);
  report.cache_hit_share = lookups > 0 ? hits / lookups : 0;

  // Per-class service times (start to end) from the untraced phase.
  std::map<std::string, std::vector<double>> service;
  for (const OpRecord& r : a.records) {
    const double ms = ns_to_ms(r.end_ns - r.start_ns);
    switch (r.kind) {
      case OpKind::kAccess: service[std::string("core.access.") + class_name(r.cls) + "_ms"].push_back(ms); break;
      case OpKind::kShare: service[r.c2 ? "core.share.c2_ms" : "core.share.c1_ms"].push_back(ms); break;
      case OpKind::kRefresh: service["core.refresh_ms"].push_back(ms); break;
      case OpKind::kRevoke: service["core.revoke_ms"].push_back(ms); break;
    }
  }
  for (const auto& [name, values] : service) add(report.extras, name, median(values), "ms", values.size());
  add(report.extras, "core.serve_cache.hit_share", report.cache_hit_share, "ratio",
      static_cast<std::size_t>(lookups));

  // ---- traced mode: the second half of the stream with inline replay.
  std::optional<PhaseResult> b;
  LayerSamples samples;
  Tracing tracing;
  std::unique_ptr<Replayer> replayer;
  if (opt.trace) {
    replayer = std::make_unique<Replayer>(*world->session, opt.seed);
    // Twins of the catalogue's C2 posts are made before the traced phase so
    // the replay inside it only re-runs the requests' own steps.
    std::vector<std::uint32_t> c2_posts;
    for (std::uint32_t p = 0; p < stream.posts.size(); ++p) {
      if (stream.posts[p].in_catalog && stream.posts[p].c2) c2_posts.push_back(p);
    }
    parallel_for(c2_posts.size(), threads, [&](std::size_t i) {
      replayer->prepare(c2_posts[i], stream.posts[c2_posts[i]], samples);
    });
    tracing.replayer = replayer.get();
    tracing.samples = &samples;
    tracing.seed = opt.seed;
    std::size_t b_ops = 0;
    for (const Op* op : phase_b) b_ops += 1 + op->child_count;
    // About 160 replays, but never more than one op in ten: a replay of a
    // C2 miss or upload costs tens of ms of worker time.
    constexpr double kTargetReplays = 160;
    tracing.fraction = b_ops == 0 ? 0 : std::min(0.1, kTargetReplays / static_cast<double>(b_ops));
    b = run_phase(*world, phase_b, split_s, opt.seconds - span_a, threads, &tracing);

    // Quiescent probes so every layer has samples on every workload: the
    // sharer and full receiver paths of a few live catalogue posts.
    replayer->primitives(samples);
    int c1_probes = 0;
    int c2_probes = 0;
    for (std::uint32_t p = 0; p < stream.posts.size() && (c1_probes < 3 || c2_probes < 3); ++p) {
      const PostInfo& info = stream.posts[p];
      PostState& ps = *world->posts[p];
      if (!info.in_catalog || ps.history.revoked_now()) continue;
      int& count = info.c2 ? c2_probes : c1_probes;
      if (count >= 3) continue;
      ++count;
      const sp::core::Knowledge full = sp::core::Knowledge::full(info.context);
      replayer->share(p, info, object_bytes(opt.seed, p, 0), samples);
      replayer->access(ps.post_id, p, info, full,
                       info.c2 ? AccessClass::kC2Miss : AccessClass::kC1Miss, 1, samples);
      replayer->access(ps.post_id, p, info, full,
                       info.c2 ? AccessClass::kC2Hit : AccessClass::kC1Hit, 1, samples);
    }
  }

  // ---- restart: reopen the run's directory (SP and DH recovery).
  // Peak resident memory while serving: the highest RSS sampled through the
  // timed phase. Unlike ru_maxrss it leaves out the repeated set-ups, whose
  // freed memory the allocator keeps.
  double peak_rss = 0;
  for (const Mark& m : a.marks) peak_rss = std::max(peak_rss, m.rss_mb);
  const fs::path run_dir = world->dir;
  world->session.reset();
  std::vector<double> restart_s;
  const RegistrySnapshot before_restart = RegistrySnapshot::take();
  for (int i = 0; i < opt.restarts; ++i) {
    const auto t0 = Clock::now();
    auto reopened = std::make_unique<Session>(session_config(opt, run_dir));
    restart_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const RegistrySnapshot after_restart = RegistrySnapshot::take();

  if (b) report.attempted += b->records.size();
  report.failed += world->failed;
  report.violation = violation.empty() ? world->violation : violation;
  report.meta["first_failure"] = world->first_failure;
  world.reset();
  fs::remove_all(root);

  const double ops = static_cast<double>(std::max<std::size_t>(1, la.completed));
  if (!opt.trace) {
    add(report.metrics, "setup_s", median(setup_s), "s", setup_s.size());
    add_latency(report.metrics, report.extras, "access", la.access_ms,
                spec.expected_accesses(span_a), a);
    // Sharer-side latency is an artifact figure, absent on a workload with
    // no sharer ops: on a shared host it was too unsteady to gate.
    if (!la.share_ms.empty()) {
      add_latency(report.extras, report.extras, "share", la.share_ms,
                  spec.expected_writes(span_a), a);
    }
    add(report.metrics, "cpu_ms_per_op", la.cpu_ms_per_op, "ms", la.completed,
        "median over " + std::to_string(la.cpu_windows) + " of " + std::to_string(kCpuWindows) +
            " windows (the rest left out for host steal)");
    add(report.metrics, "wire_kb_per_op", la.bytes / 1024.0 / ops, "KiB", la.completed);
    add(report.metrics, "peak_rss_mb", peak_rss, "MiB", a.marks.size(),
        "highest of the RSS samples taken every 100 ms through the timed phase");
    add(report.metrics, "disk_mb", disk_mb, "MiB");
    // Recovery time is an artifact figure: on a shared disk it shifts from
    // run to run by more than any bound a gate could use.
    add(report.extras, "restart_s", median(restart_s), "s", restart_s.size(),
        "median of " + std::to_string(restart_s.size()) + " reopens; min " +
            std::to_string(*std::min_element(restart_s.begin(), restart_s.end())) + ", max " +
            std::to_string(*std::max_element(restart_s.begin(), restart_s.end())));
    return report;
  }

  // ---- per-layer metrics (traced mode).
  const Latencies lb = summarize(*b);
  const std::map<std::string, std::vector<double>> layer = samples.snapshot();
  static const std::vector<std::pair<std::string, std::string>> kReplayed = {
      {"field.fp_mul_ns", "ns"},          {"field.fp_inv_us", "us"},
      {"ec.pairing_ms", "ms"},            {"ec.multi_pairing_ms", "ms"},
      {"ec.scalar_mul_ms", "ms"},         {"abe.setup_ms", "ms"},
      {"abe.encrypt_ms", "ms"},           {"abe.deserialize_ms", "ms"},
      {"abe.keygen_ms", "ms"},            {"abe.decrypt_ms", "ms"},
      {"core.c2.upload_ms", "ms"},        {"core.c2.access_ms", "ms"},
      {"sss.split_ms", "ms"},             {"sss.reconstruct_ms", "ms"},
      {"sig.sign_ms", "ms"},              {"sig.verify_ms", "ms"},
      {"core.c1.upload_ms", "ms"},        {"core.c1.sig_verify_ms", "ms"},
      {"core.c1.access_ms", "ms"},        {"crypto.answer_hash_us", "us"},
      {"crypto.sym_decrypt_us", "us"},    {"core.c1.display_ms", "ms"},
      {"core.c1.answer_ms", "ms"},        {"core.c1.verify_ms", "ms"},
      {"core.c2.display_ms", "ms"},       {"core.c2.answer_ms", "ms"},
      {"core.c2.verify_ms", "ms"},        {"core.c2.open_sealed_ms", "ms"},
      {"core.verify_queue.run_us", "us"}, {"core.verify_queue.wait_ms", "ms"},
      {"osn.sp.record_ms", "ms"},         {"osn.dh.fetch_ms", "ms"},
      {"codec.encode_ms", "ms"},          {"codec.decode_ms", "ms"},
  };
  for (const auto& [name, unit] : kReplayed) {
    const auto it = layer.find(name);
    if (it == layer.end()) continue;  // absent: reported as such by the caller
    add(report.metrics, name, median(it->second), unit, it->second.size(), "median self time");
  }

  // Counts: registry deltas over the untraced phase.
  const double pairings = d("crypto_pairing_ms_count").value_or(0) +
                          d("crypto_multi_pairing_pairs_total").value_or(0);
  add(report.metrics, "ec.pairings_per_op", pairings / ops, "count");
  add(report.metrics, "ec.miller_table_hit_ratio",
      ratio(d("crypto_miller_table_hits_total"), pairings), "ratio");
  const std::optional<double> lagrange_hits = d("sss_lagrange_cache_hits_total");
  const std::optional<double> lagrange_builds = d("sss_lagrange_cache_builds_total");
  add(report.metrics, "sss.lagrange_hit_ratio",
      ratio(lagrange_hits, lagrange_hits.value_or(0) + lagrange_builds.value_or(0)), "ratio");
  add(report.metrics, "core.verify_queue.batch_size",
      ratio(d("sp_verify_batch_size_sum"), d("sp_verify_batch_size_count")), "count");
  add(report.metrics, "core.serve_cache.hit_ratio", report.cache_hit_share, "ratio");
  const std::optional<double> inserted = d("sp_cache_insertions_total");
  const std::optional<double> rejected = d("sp_cache_admission_rejected_total");
  add(report.metrics, "core.serve_cache.admission_reject_ratio",
      ratio(rejected, inserted.value_or(0) + rejected.value_or(0)), "ratio");
  add(report.metrics, "core.serve_cache.invalidated_per_op",
      d("sp_cache_invalidated_total").value_or(0) / ops, "count");
  add(report.metrics, "osn.sp.observations_per_op",
      d("osn_sp_requests_total", {"op=\"observe\""}).value_or(0) / ops, "count");
  add(report.metrics, "storage.wal.appends_per_op", d("sp_storage_wal_appends_total").value_or(0) / ops,
      "count");
  add(report.metrics, "storage.wal.batch_size",
      ratio(d("sp_storage_wal_appends_total"), d("sp_storage_wal_batches_total")), "count");
  add(report.metrics, "storage.wal.bytes_per_op", d("sp_storage_wal_bytes_total").value_or(0) / ops,
      "bytes");
  add(report.metrics, "storage.fsyncs_per_op", d("sp_storage_fsync_ms_count").value_or(0) / ops,
      "count");
  add(report.metrics, "storage.fsync_ms",
      ratio(d("sp_storage_fsync_ms_sum"), d("sp_storage_fsync_ms_count")), "ms");
  add(report.metrics, "storage.recovery_ms",
      ratio(delta(before_restart, after_restart, "sp_storage_recovery_ms_sum"),
            delta(before_restart, after_restart, "sp_storage_recovery_ms_count")),
      "ms");
  add(report.metrics, "core.access.attempts_per_op",
      la.accesses == 0 ? 0 : la.attempts / static_cast<double>(la.accesses), "count", la.accesses);
  add(report.metrics, "bench.queue_wait_ms", median(la.queue_wait_ms), "ms", la.queue_wait_ms.size());
  add(report.metrics, "bench.dispatch_lag_ms", median(la.dispatch_lag_ms), "ms",
      la.dispatch_lag_ms.size());

  // Reconciliation: replayed path time against the Session's own time for
  // the same requests.
  double replay_sum = 0;
  double session_sum = 0;
  std::vector<double> residual;
  std::map<std::string, std::vector<double>> residual_by_class;
  for (const OpRecord& r : b->records) {
    if (!r.replayed) continue;
    const double session_ms = ns_to_ms(r.end_ns - r.start_ns);
    replay_sum += r.replay_ms;
    session_sum += session_ms;
    residual.push_back(session_ms - r.replay_ms);
    const std::string cls = r.kind == OpKind::kAccess ? class_name(r.cls)
                            : r.kind == OpKind::kShare ? (r.c2 ? "share_c2" : "share_c1")
                                                       : "refresh";
    residual_by_class[cls].push_back(session_ms - r.replay_ms);
  }
  const double coverage = session_sum > 0 ? replay_sum / session_sum : 0;
  add(report.metrics, "core.session.residual_ms", median(residual), "ms", residual.size());
  for (const auto& [cls, values] : residual_by_class) {
    add(report.extras, "core.session.residual." + cls + "_ms", median(values), "ms", values.size());
  }
  add(report.metrics, "trace.coverage", coverage, "ratio", residual.size(),
      "tolerance [" + std::to_string(kCoverageMin) + ", " + std::to_string(kCoverageMax) + "]");
  const auto values = [](const std::vector<TimedSample>& samples) {
    std::vector<double> v;
    for (const TimedSample& s : samples) v.push_back(s.value);
    return v;
  };
  const double p50_a = median(values(la.access_ms));
  const double p50_b = median(values(lb.access_ms));
  add(report.metrics, "trace.overhead", p50_a > 0 ? p50_b / p50_a - 1 : 0, "ratio", lb.access_ms.size(),
      "traced access_p50_ms / untraced access_p50_ms - 1");
  report.meta["replay_errors"] = std::to_string(tracing.errors.load());
  if (tracing.errors > 0) {
    report.invalid_reason = std::to_string(tracing.errors.load()) + " replay(s) threw";
  } else if (coverage < kCoverageMin || coverage > kCoverageMax) {
    report.invalid_reason = "reconciliation failed: trace.coverage " + std::to_string(coverage) +
                            " outside [" + std::to_string(kCoverageMin) + ", " +
                            std::to_string(kCoverageMax) + "]";
  }
  return report;
}

}  // namespace perfbench
