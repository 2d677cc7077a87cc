#include "util/shard_pool.hpp"

#include <ctime>

namespace icd::util {

ShardPool::ShardPool(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards),
      gate_(static_cast<std::ptrdiff_t>(shards_ + 1)),
      busy_ns_(shards_, 0) {
  workers_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    workers_.emplace_back([this, s] { worker(s); });
  }
}

ShardPool::~ShardPool() {
  stop_ = true;
  gate_.arrive_and_wait();  // release workers into the stop check
}

void ShardPool::run(const std::function<void(std::size_t)>& fn) {
  fn_ = &fn;
  gate_.arrive_and_wait();  // entry: workers see fn_ and start
  gate_.arrive_and_wait();  // exit: all workers finished the callback
  fn_ = nullptr;
}

void ShardPool::worker(std::size_t shard) {
  while (true) {
    gate_.arrive_and_wait();  // entry (or destructor's release)
    if (stop_) return;
    const std::uint64_t start = thread_cpu_ns();
    (*fn_)(shard);
    busy_ns_[shard] += thread_cpu_ns() - start;
    gate_.arrive_and_wait();  // exit
  }
}

std::uint64_t ShardPool::thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace icd::util
