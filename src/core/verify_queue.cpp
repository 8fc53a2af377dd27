#include "core/verify_queue.hpp"

#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

namespace {

/// Queue-wide instruments (docs/OBSERVABILITY.md catalog).
struct QueueMetrics {
  obs::Histogram& batch_size;
  obs::Gauge& depth;
  obs::Counter& jobs;
  obs::Counter& batches;
  obs::Histogram& wait_phase;

  static QueueMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static QueueMetrics m{
        // Unit is jobs-per-batch, not time or bytes — the catalog-suffix
        // rule doesn't apply (name fixed by the batch-verify design).
        reg.histogram("sp_verify_batch_size",  // sp-lint: allow(metric-name)
                      "Verification jobs contributed per request batch",
                      {1, 2, 4, 8, 16, 32, 64, 128}),
        reg.gauge("sp_verify_queue_depth", "Verification jobs queued and not yet running"),
        reg.counter("sp_verify_jobs_total", "Verification jobs executed through the queue"),
        reg.counter("sp_verify_batches_total", "Request batches waited on"),
        reg.histogram("sp_phase_latency_ms", "Per-phase serving latency",
                      obs::Histogram::default_latency_bounds_ms(), {{"phase", "verify.wait"}}),
    };
    return m;
  }
};

}  // namespace

VerifyQueue::VerifyQueue(std::size_t num_threads)
    : pool_(num_threads != 0 ? num_threads
                             : std::max<std::size_t>(1, std::thread::hardware_concurrency()),
            /*queue_capacity=*/1024) {}

VerifyQueue::~VerifyQueue() {
  // ThreadPool::shutdown drains every drain-token already submitted, and
  // each token runs (or finds already help-drained) its task, so no queued
  // job is dropped. Batches created from this queue must have completed —
  // Session destroys the queue after the serving paths.
  pool_.shutdown();
}

VerifyQueue::Batch VerifyQueue::batch() { return Batch(*this); }

VerifyQueue::Batch::Batch(VerifyQueue& owner)
    : owner_(&owner), state_(std::make_shared<BatchState>()) {}

VerifyQueue::Batch::~Batch() {
  if (state_ && !waited_) wait_done();
}

void VerifyQueue::Batch::add(Job job) {
  {
    const sp::MutexLock lock(state_->mutex);
    ++state_->outstanding;
  }
  Task task{std::move(job), state_, obs::Tracer::current(), 0, 0, added_++};
  if (task.ctx.sampled()) {
    // Reserve the job's span id now so wait()'s span (and any cross-request
    // viewer) can link to it before the job has even started running.
    task.reserved_id = obs::reserve_span_id(task.ctx);
    task.enqueue_ns = obs::Tracer::now_ns();
    job_links_.push_back(obs::SpanLink{task.ctx.trace_id(), task.reserved_id});
  }
  owner_->enqueue(std::move(task));
}

void VerifyQueue::Batch::wait_done() noexcept {
  // Help-drain: run queued tasks (any batch's) until the queue is empty,
  // then park. Every task also has a pool drain-token, so parking cannot
  // strand work even when this thread drains nothing.
  for (;;) {
    {
      sp::MutexLock lock(state_->mutex);
      if (state_->outstanding == 0) return;
    }
    if (owner_->run_one()) continue;
    sp::MutexLock lock(state_->mutex);
    while (state_->outstanding != 0) state_->done.wait(lock);
    return;
  }
}

void VerifyQueue::Batch::wait() {
  QueueMetrics& metrics = QueueMetrics::get();
  metrics.batches.inc();
  metrics.batch_size.observe(static_cast<double>(added_));
  {
    obs::Span wait_span(obs::Tracer::current(), "verify.wait", metrics.wait_phase);
    if (wait_span.recording()) {
      wait_span.add_attr("jobs", static_cast<std::int64_t>(added_));
      for (const obs::SpanLink& link : job_links_) wait_span.add_link(link);
    }
    wait_done();
  }
  waited_ = true;
  const sp::MutexLock lock(state_->mutex);
  if (state_->first_error) std::rethrow_exception(state_->first_error);
}

void VerifyQueue::run(std::span<const Job> jobs) {
  Batch b = batch();
  for (const Job& job : jobs) b.add(job);
  b.wait();
}

std::function<void(std::span<const VerifyQueue::Job>)> VerifyQueue::runner() {
  return [this](std::span<const Job> jobs) { run(jobs); };
}

std::size_t VerifyQueue::queue_depth() const {
  const sp::MutexLock lock(mutex_);
  return queue_.size();
}

void VerifyQueue::enqueue(Task task) {
  std::size_t depth = 0;
  {
    const sp::MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  QueueMetrics::get().depth.set(static_cast<std::int64_t>(depth));
  // One drain token per task: some worker eventually runs every job that a
  // waiting request doesn't help-drain first.
  pool_.submit([this] { (void)run_one(); });
}

bool VerifyQueue::run_one() {
  Task task;
  {
    const sp::MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    QueueMetrics::get().depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  QueueMetrics::get().jobs.inc();
  std::exception_ptr error;
  {
    // The job span lives in the ORIGIN request's trace (start = enqueue
    // time, so queue wait is visible inside it) under its pre-reserved id.
    // When a different sampled request help-drains this job, a link to the
    // runner's span records who actually burned the CPU.
    obs::Span job_span(task.ctx, "verify.job", task.enqueue_ns, task.reserved_id);
    if (job_span.recording()) {
      const obs::TraceContext runner = obs::Tracer::current();
      if (runner.sampled() && !(runner.trace_id() == task.ctx.trace_id())) {
        job_span.add_link(runner.trace_id(), runner.span_id());
      }
    }
    const obs::ContextGuard guard(job_span.context());
    try {
      task.job();
    } catch (...) {
      error = std::current_exception();
      job_span.set_status(obs::SpanStatus::kTransientFault);
    }
  }
  const sp::MutexLock lock(task.state->mutex);
  if (error && (!task.state->first_error || task.index < task.state->first_error_index)) {
    task.state->first_error = error;
    task.state->first_error_index = task.index;
  }
  if (--task.state->outstanding == 0) task.state->done.notify_all();
  return true;
}

}  // namespace sp::core
