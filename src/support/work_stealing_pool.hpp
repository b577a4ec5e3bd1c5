// WorkStealingPool — the pipeline's task executor, plus TaskGroup, the
// per-batch completion tracker every submission goes through.
//
// The specialization pipeline's one kind of parallel work is the
// per-candidate CAD chain. A pipeline never owns long-lived threads: it
// submits its chains to a pool it borrows — either a run-scoped private
// pool (direct `specialize()` calls) or the server-wide pool shared by every
// tenant session — and reduces results on its own thread in selection
// order, so results never depend on the schedule.
//
// One fixed set of worker threads serves every concurrent pipeline run
// (every server session), so total compute threads are bounded by the pool
// size no matter how many sessions exist. Each worker owns a deque:
//
//   * submissions from a pool worker push onto that worker's own deque, and
//     the owner pops from the back — LIFO, so freshly produced work runs
//     while its inputs are cache-hot;
//   * submissions from outside the pool (session coordinator threads) are
//     placed round-robin across the deques;
//   * a worker whose own deque is empty steals from the FRONT of another
//     worker's deque — FIFO, so thieves take the oldest task, regardless of
//     which session submitted it.
//
// Completion is tracked per TaskGroup, not per pool, so many sessions can
// share one pool and each still has a private "my batch is done" barrier
// (lowest-task-id rethrow).
//
// Shutdown contract: the destructor wakes every worker and workers keep
// claiming tasks until every deque is empty, so every task submitted before
// the destructor began runs exactly once before the destructor returns;
// errors of tasks whose group is never wait()ed are swallowed by the group.
// Submitting concurrently with destruction is undefined. TaskGroup
// destructors, not the pool, enforce that an unwinding caller's tasks
// quiesce first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jitise::support {

/// Aggregate pool counters (one snapshot; monotonic over the pool's
/// lifetime). `steals` counts tasks a worker executed out of another
/// worker's deque; `occupancy_high_water` is the maximum number of workers
/// that were ever executing tasks at the same instant.
struct ExecutorStats {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  unsigned workers = 0;
  unsigned occupancy_high_water = 0;
};

/// Per-batch completion tracker. A group hands out dense 0-based task ids
/// and `wait()` blocks until every begun task finished, then rethrows the
/// exception of the lowest task id and resets for the next batch.
///
/// The destructor waits for every outstanding task (swallowing their
/// errors), so a group on an unwinding stack frame quiesces all tasks that
/// reference that frame before it disappears — the key lifetime guarantee
/// that makes borrowing a long-lived shared pool safe.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return finished_ == begun_; });
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Registers a task; returns its id — dense, 0-based, in submission order
  /// within the current batch.
  [[nodiscard]] std::size_t begin_task() {
    std::lock_guard<std::mutex> lock(mu_);
    errors_.emplace_back(nullptr);
    return begun_++;
  }

  /// Marks task `id` finished; `error` (may be null) is kept for `wait()`.
  void finish_task(std::size_t id, std::exception_ptr error) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (error) errors_[id] = std::move(error);
    if (++finished_ == begun_) done_cv_.notify_all();
  }

  /// Blocks until every begun task finished, then resets the batch. If any
  /// task threw, rethrows the exception of the lowest task id.
  void wait() {
    std::exception_ptr first;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return finished_ == begun_; });
      for (std::exception_ptr& e : errors_) {
        if (e) {
          first = std::move(e);
          break;
        }
      }
      begun_ = 0;
      finished_ = 0;
      errors_.clear();
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<std::exception_ptr> errors_;  // slot per task id in the batch
  std::size_t begun_ = 0;
  std::size_t finished_ = 0;
};

/// Steal/occupancy event tap (WorkStealingPool). Fires from pool worker
/// threads, concurrently — implementations must be internally synchronized
/// and cheap (a counter), and must not submit work or block.
class ExecutorObserver {
 public:
  virtual ~ExecutorObserver() = default;
  /// A worker finished executing a task. `stolen` marks a task taken from
  /// another worker's deque (FIFO steal) rather than the worker's own.
  virtual void on_task_executed(bool /*stolen*/) {}
};

/// Task submitter. `submit` never blocks on the task's execution and never
/// runs the task inline on the calling thread; completion is observed
/// through the TaskGroup. Tasks must not call TaskGroup::wait (or otherwise
/// block on other submitted tasks finishing) from inside a task — only
/// external coordinator threads may block.
class WorkStealingPool final {
 public:
  /// Spawns `threads` workers (0 means `default_workers()`).
  explicit WorkStealingPool(unsigned threads = 0);
  /// Drains every queued task (see the shutdown contract above), then joins.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  void submit(TaskGroup& group, std::function<void()> fn);
  /// Worker-thread count — how wide submitted batches can actually run.
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(queues_.size());
  }

  /// Steal/occupancy tap (not owned; must outlive the pool). Set before the
  /// first submit — the pointer is not synchronized.
  void set_observer(ExecutorObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Monotonic counters snapshot; safe to call concurrently with execution.
  [[nodiscard]] ExecutorStats stats() const;

  /// Default worker count: hardware_concurrency, at least 1.
  [[nodiscard]] static unsigned default_workers() noexcept;

 private:
  struct Task {
    TaskGroup* group = nullptr;
    std::size_t id = 0;
    std::function<void()> fn;
  };
  /// One worker's deque. Heap-allocated so addresses (and the mutexes) stay
  /// stable in the vector.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void worker_loop(unsigned index);
  /// Claims one task: own deque back first (LIFO), then other deques front
  /// (FIFO steal). Returns false when every deque came up empty this pass.
  bool try_acquire(unsigned self, Task& out, bool& stolen);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::size_t unclaimed_ = 0;  // tasks pushed but not yet claimed; sleep_mu_
  bool stopping_ = false;      // guarded by sleep_mu_

  std::atomic<std::uint64_t> next_victim_{0};  // round-robin external placement
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<unsigned> busy_{0};
  std::atomic<unsigned> occupancy_high_water_{0};
  ExecutorObserver* observer_ = nullptr;
};

}  // namespace jitise::support
