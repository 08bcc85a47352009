#include "exec/task_pool.h"

#include <chrono>

#include "exec/cancel.h"

namespace orq {

TaskPool::TaskPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::Submit(std::function<void()> task) {
  const size_t target = static_cast<size_t>(
      next_worker_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<int64_t>(workers_.size()));
  // Count the task before it becomes visible: a worker may pop and finish
  // it at once, and its decrement must not drive pending_ to zero (waking
  // WaitIdle) while other submitted tasks are still outstanding.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_all();
}

void TaskPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

Status TaskPool::AcquireGangSlot(const CancelToken* cancel) {
  std::unique_lock<std::mutex> lock(gang_mu_);
  while (gang_busy_) {
    if (cancel != nullptr) {
      Status status = cancel->Check();
      if (!status.ok()) return status;
      // Poll in slices so a deadline firing mid-wait is noticed promptly.
      gang_cv_.wait_for(lock, std::chrono::milliseconds(10));
    } else {
      gang_cv_.wait(lock);
    }
  }
  gang_busy_ = true;
  return Status::OK();
}

void TaskPool::ReleaseGangSlot() {
  {
    std::lock_guard<std::mutex> lock(gang_mu_);
    gang_busy_ = false;
  }
  gang_cv_.notify_one();
}

bool TaskPool::TryPop(int self, std::function<void()>* task) {
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  const int n = static_cast<int>(workers_.size());
  for (int i = 1; i < n; ++i) {
    Worker& victim = *workers_[(self + i) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void TaskPool::WorkerLoop(int self) {
  while (true) {
    std::function<void()> task;
    if (TryPop(self, &task)) {
      task();
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      bool idle;
      {
        std::lock_guard<std::mutex> lock(mu_);
        idle = (--pending_ == 0);
      }
      if (idle) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    if (pending_ == 0) {
      work_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    } else {
      // Tasks exist but the deques were empty when we looked (a race with
      // another thief); re-scan after a short wait instead of spinning.
      work_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
}

}  // namespace orq
