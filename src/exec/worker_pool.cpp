#include "exec/worker_pool.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace mm::exec {

void WorkerPool::run_indexed(std::uint64_t count, std::size_t workers,
                             const std::function<void(std::uint64_t)>& job) {
  if (count == 0) return;
  if (workers > count) workers = static_cast<std::size_t>(count);
  if (workers <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<std::uint64_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      job(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker);
  worker();  // the caller is worker 0
  for (auto& t : threads) t.join();
}

}  // namespace mm::exec
