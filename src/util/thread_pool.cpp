#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  auto fut = pt.get_future();
  {
    std::lock_guard lk(mu_);
    SKP_REQUIRE(!stop_, "submit on stopped ThreadPool");
    queue_.push(std::move(pt));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();  // exceptions are captured in the packaged_task's future
    {
      std::lock_guard lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_chunks(ThreadPool& pool, std::size_t n, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& body) {
  SKP_REQUIRE(chunks > 0, "parallel_chunks requires chunks > 0");
  if (n == 0) return;
  chunks = std::min(chunks, n);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    const std::size_t end = begin + len;
    futs.push_back(pool.submit([=, &body] { body(begin, end, c); }));
    begin = end;
  }
  // Every chunk borrows `body`, so all of them must finish before the
  // first exception unwinds the caller's frame.
  for (auto& f : futs) f.wait();
  for (auto& f : futs) f.get();  // propagates the first exception
}

}  // namespace skp
