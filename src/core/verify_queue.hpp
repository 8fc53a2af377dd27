// Cross-request verification queue (PR 7 tentpole, part 3).
//
// Concurrent access requests all funnel their CPU-bound verification work —
// the SP's salted-hash check sets (Construction 1/2 Verify) and the
// per-leaf Miller loops of a batched CP-ABE decrypt — through one shared
// queue drained by a small worker pool, instead of each request threading
// its own. That gives the serving stack:
//
//   * bounded verify concurrency: the pool size caps how many pairing-heavy
//     jobs run at once no matter how many requests are in flight, so a
//     burst degrades into queueing (visible on sp_verify_queue_depth)
//     rather than into core-thrashing oversubscription;
//   * cross-request batching: jobs from different access_parallel sessions
//     interleave in one queue, and sp_verify_batch_size records how much
//     work each request contributed per drain;
//   * failure isolation: a job that throws (fault injection, corrupted
//     input) fails only its OWN batch — Batch::wait() rethrows the batch's
//     first error; unrelated requests sharing the queue are untouched.
//
// Execution model: VerifyQueue owns the task deque; the embedded ThreadPool
// receives one drain token per job, so every job is eventually run by a
// worker. Batch::wait() additionally HELP-DRAINS: the waiting request
// thread pops and runs queued tasks (its own or other batches') until the
// queue is empty, then parks on the batch's condition variable. Waiters
// therefore make progress even with a single worker, and there is no
// deadlock window: pool workers only ever run leaf jobs, never wait on a
// batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::core {

class VerifyQueue {
 public:
  /// One unit of verification work. Jobs may throw — the exception is
  /// captured and rethrown from the owning Batch::wait(), failing only
  /// that batch.
  using Job = std::function<void()>;

  /// `num_threads` == 0 picks hardware_concurrency (at least 1).
  explicit VerifyQueue(std::size_t num_threads = 0);
  ~VerifyQueue();
  VerifyQueue(const VerifyQueue&) = delete;
  VerifyQueue& operator=(const VerifyQueue&) = delete;

  /// Per-batch completion state, shared by the batch handle and every one of
  /// its queued tasks (tasks may outlive the handle only in program-exit
  /// teardown; shared_ptr keeps them safe regardless).
  struct BatchState {
    sp::Mutex mutex;
    sp::CondVar done;
    std::size_t outstanding SP_GUARDED_BY(mutex) = 0;
    /// Error of the earliest-added failing job (not the earliest to fail:
    /// jobs of one batch run concurrently on workers and help-drainers).
    std::exception_ptr first_error SP_GUARDED_BY(mutex);
    std::size_t first_error_index SP_GUARDED_BY(mutex) = 0;
  };

  /// One request's slice of the queue: add jobs, then wait. Move-only.
  class Batch {
   public:
    Batch(Batch&&) noexcept = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    Batch& operator=(Batch&&) = delete;
    /// Blocks (without throwing) if wait() was never called, so queued jobs
    /// never run against destroyed captures.
    ~Batch();

    /// Enqueues one job. Must not be called after wait().
    void add(Job job);

    /// Help-drains the shared queue, then blocks until every job of THIS
    /// batch finished; rethrows the exception of its earliest-added failing job. Records
    /// sp_verify_batch_size and the verify.wait phase span.
    void wait();

    /// Jobs added so far.
    [[nodiscard]] std::size_t size() const { return added_; }

   private:
    friend class VerifyQueue;
    explicit Batch(VerifyQueue& owner);

    void wait_done() noexcept;  ///< completion barrier, no rethrow

    VerifyQueue* owner_;
    std::shared_ptr<BatchState> state_;
    std::size_t added_ = 0;
    bool waited_ = false;
    /// Pre-reserved span ids of this batch's jobs: wait()'s verify.wait span
    /// links to every contributing job span, even those still unrecorded
    /// (reserve_span_id allocates the id before the job runs).
    std::vector<obs::SpanLink> job_links_;
  };

  /// Opens a new batch bound to this queue.
  [[nodiscard]] Batch batch();

  /// Convenience: runs `jobs` as one batch and waits. Shaped to slot
  /// directly into ec::Pairing::Runner / abe::CpAbe::ParallelRunner via
  /// runner() below.
  void run(std::span<const Job> jobs);

  /// A copyable closure over run() for APIs that take a parallel-executor
  /// hook (the batched CP-ABE decrypt). Must not outlive this queue.
  [[nodiscard]] std::function<void(std::span<const Job>)> runner();

  /// Tasks queued and not yet picked up (monitoring; also exported as the
  /// sp_verify_queue_depth gauge).
  [[nodiscard]] std::size_t queue_depth() const SP_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t num_threads() const { return pool_.num_threads(); }

 private:
  struct Task {
    Job job;
    std::shared_ptr<BatchState> state;
    obs::TraceContext ctx;           ///< origin request's context at add()
    std::uint64_t reserved_id = 0;   ///< pre-reserved verify.job span id
    std::uint64_t enqueue_ns = 0;    ///< queue-entry time (sampled tasks)
    std::size_t index = 0;           ///< position in its batch (add order)
  };

  void enqueue(Task task) SP_EXCLUDES(mutex_);
  /// Pops and runs one task; false when the queue was empty. Runs the job
  /// outside the queue lock.
  bool run_one() SP_EXCLUDES(mutex_);

  mutable sp::Mutex mutex_;
  std::deque<Task> queue_ SP_GUARDED_BY(mutex_);
  ThreadPool pool_;
};

}  // namespace sp::core
