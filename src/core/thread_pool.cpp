#include "core/thread_pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

namespace {

/// Process-wide pool instruments, shared by every ThreadPool instance (the
/// serving core creates one pool per access_parallel batch; gauges are
/// additive across them). Registered once, cached by reference.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::Gauge& threads;
  obs::Counter& tasks;
  obs::Counter& rejected;
  obs::Histogram& task_ms;

  static PoolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PoolMetrics m{
        reg.gauge("pool_queue_depth", "Tasks waiting for a worker"),
        reg.gauge("pool_in_flight", "Tasks currently executing on a worker"),
        reg.gauge("pool_threads", "Live worker threads across all pools"),
        reg.counter("pool_tasks_total", "Tasks accepted by submit()"),
        reg.counter("pool_rejected_total", "Submits rejected because the pool was shutting down"),
        reg.histogram("pool_task_ms", "Task execution wall time"),
    };
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t queue_capacity)
    : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  if (num_threads == 0) num_threads = 1;
  num_threads_ = num_threads;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  PoolMetrics::get().threads.add(static_cast<std::int64_t>(num_threads));
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    sp::MutexLock lock(mutex_);
    stopping_ = true;
    if (join_started_) {
      // Another shutdown() owns the join. Returning here while its workers
      // are still running would let our caller destroy state that tasks are
      // touching, so wait until that join reports completion.
      while (!join_done_) join_done_cv_.wait(lock);
      return;
    }
    join_started_ = true;
    to_join.swap(workers_);
  }
  // Wake workers (to drain and exit) AND submitters blocked on a full
  // queue (to fail loudly instead of waiting forever).
  queue_has_work_.notify_all();
  queue_has_space_.notify_all();
  for (std::thread& w : to_join) w.join();
  PoolMetrics::get().threads.sub(static_cast<std::int64_t>(to_join.size()));
  {
    const sp::MutexLock lock(mutex_);
    join_done_ = true;
  }
  join_done_cv_.notify_all();
}

void ThreadPool::submit(std::function<void()> task) {
  PoolMetrics& metrics = PoolMetrics::get();
  QueuedTask item;
  item.fn = std::move(task);
  item.ctx = obs::Tracer::current();  // one TLS read when tracing is off
  if (item.ctx.sampled()) item.enqueue_ns = obs::Tracer::now_ns();
  {
    sp::MutexLock lock(mutex_);
    while (queue_.size() >= queue_capacity_ && !stopping_) queue_has_space_.wait(lock);
    if (stopping_) {
      // Pre-PR4 this silently dropped the task; a serving front-end must
      // hear about shed work, so reject loudly and count it.
      metrics.rejected.inc();
      throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    }
    queue_.push_back(std::move(item));
    ++pending_;
  }
  metrics.tasks.inc();
  metrics.queue_depth.add(1);
  queue_has_work_.notify_one();
}

void ThreadPool::wait_idle() {
  sp::MutexLock lock(mutex_);
  while (pending_ != 0) all_done_.wait(lock);
}

std::size_t ThreadPool::queue_depth() const {
  const sp::MutexLock lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::in_flight() const {
  const sp::MutexLock lock(mutex_);
  return pending_ - queue_.size();
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    QueuedTask item;
    {
      sp::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) queue_has_work_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    metrics.queue_depth.sub(1);
    metrics.in_flight.add(1);
    queue_has_space_.notify_one();
    {
      // Queue wait as its own span (enqueue → pop), then the execution
      // span, installed as this thread's context so work inside the task
      // nests under it.
      obs::Span(item.ctx, "pool.wait", item.enqueue_ns).end();
      obs::Span exec(item.ctx, "pool.task", metrics.task_ms);
      const obs::ContextGuard guard(exec.context());
      item.fn();
      // item.fn is destroyed at the end of this loop iteration, i.e. after
      // exec has ended — access_parallel relies on that order: its request
      // root lives inside the callable and must end after pool.task.
    }
    metrics.in_flight.sub(1);
    {
      const sp::MutexLock lock(mutex_);
      --pending_;
      if (pending_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace sp::core
