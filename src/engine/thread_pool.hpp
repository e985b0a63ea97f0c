// thread_pool.hpp — a fixed-size worker pool for the batch-analysis engine.
//
// Deliberately minimal: a bounded set of std::threads draining one FIFO of
// std::function jobs. The engine's hot path is parallel_for, which carves an
// index space [0, n) across the workers through a shared atomic cursor —
// dynamic (work-stealing-ish) load balance with zero per-item allocation.
// Determinism of sweep results does NOT depend on which worker runs which
// index: workers write into disjoint slots of a pre-sized output vector.
//
// Shutdown contract: stop() (also run by the destructor) lets the workers
// drain every job already queued, then retires them. A submit() AFTER stop
// throws std::logic_error — the queue it would push into has no readers left,
// so accepting the job would drop it on the floor silently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace profisched::engine {

class ThreadPool {
 public:
  /// Spin up `threads` workers (clamped to >= 1). The pool is fixed-size for
  /// its whole lifetime.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one job. Never blocks (unbounded queue). Throws std::logic_error
  /// once stop() has run: the workers are draining out, so the job would sit
  /// in a queue nobody reads — a silent drop this pool refuses to make.
  void submit(std::function<void()> job);

  /// Begin shutdown: already-queued jobs still run to completion, but any
  /// further submit() throws. Idempotent; the destructor calls it and then
  /// joins the workers.
  void stop();

  /// True once stop() has run (further submissions will throw).
  [[nodiscard]] bool stopped() const;

  /// Block until every submitted job has finished.
  void wait_idle();

  /// Run fn(index, worker) for every index in [0, n), spread over the pool.
  /// `worker` is a dense slot id in [0, size()): each concurrently-running
  /// invocation sees a distinct slot, so callers can keep per-worker scratch
  /// state (e.g. one AnalysisEngine each) without locking. Blocks until all
  /// n invocations completed. Exceptions in fn terminate (noexcept workers);
  /// analysis jobs are expected not to throw on validated inputs.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn);

  /// Threads to use when the caller passed 0 = "auto".
  [[nodiscard]] static unsigned default_threads() noexcept;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_job_;   // signalled when a job arrives / stop
  std::condition_variable cv_idle_;  // signalled when the pool drains
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Telemetry handles (relaxed adds; the latency histogram reads the clock
  // only while obs::enabled()). Fetched once here so workers never touch the
  // registry lock.
  obs::Counter tasks_submitted_ = obs::Registry::global().counter("pool.tasks_submitted");
  /// Bumped at dequeue (see worker_loop) so it never trails a finished
  /// parallel_for in a snapshot.
  obs::Counter tasks_executed_ = obs::Registry::global().counter("pool.tasks_executed");
  obs::Gauge queue_hwm_ = obs::Registry::global().gauge("pool.queue_depth_hwm");
  obs::Histogram task_latency_ = obs::Registry::global().histogram("pool.task_latency_ns");
};

}  // namespace profisched::engine
