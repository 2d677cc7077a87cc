#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

/// A persistent worker pool for tick-phased shard execution.
///
/// The sharded engines advance in global ticks, each tick a sequence of
/// phases with a barrier between them (see DESIGN.md, "Threading model").
/// ShardPool owns one std::jthread per shard and runs one callback per
/// phase on every worker:
///
///   pool.run([&](std::size_t shard) { ... phase work for `shard` ... });
///
/// run() blocks the calling (coordinator) thread until every worker has
/// finished the callback, and the entry/exit barriers give the coordinator
/// happens-before both ways: state the coordinator wrote before run() is
/// visible to the workers, and everything the workers wrote is visible to
/// the coordinator after run() returns. Between run() calls the workers are
/// parked, so the coordinator may freely touch shard-owned state
/// (admission, link teardown, stats aggregation) single-threaded.
///
/// Each worker also accumulates its own thread-CPU time across callbacks
/// (busy_ns). On machines with fewer cores than shards wall-clock cannot
/// show parallel scaling, so bench_delivery reports the critical-path model
/// max(busy_ns) + serial time alongside the measured wall time.
namespace icd::util {

class ShardPool {
 public:
  explicit ShardPool(std::size_t shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  std::size_t shards() const { return shards_; }

  /// Runs `fn(shard)` on every worker and waits for all of them.
  void run(const std::function<void(std::size_t)>& fn);

  /// Cumulative per-worker thread-CPU nanoseconds spent inside callbacks.
  const std::vector<std::uint64_t>& busy_ns() const { return busy_ns_; }

 private:
  void worker(std::size_t shard);
  static std::uint64_t thread_cpu_ns();

  std::size_t shards_;
  /// Workers plus the coordinator; run() releases the workers at the entry
  /// barrier and collects them at the exit barrier.
  std::barrier<> gate_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::uint64_t> busy_ns_;
  std::vector<std::jthread> workers_;
};

}  // namespace icd::util
