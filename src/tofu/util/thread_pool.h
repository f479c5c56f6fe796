// Minimal fork-join thread pool for deterministic sharded loops.
//
// Work is always split into exactly num_threads() contiguous shards
// ([i*n/T, (i+1)*n/T) for shard i), so any result assembled shard-by-shard in shard
// order is independent of OS scheduling -- and identical to the single-threaded result
// when each shard's work is order-independent within the shard. StreamServer relies on
// this to write a batch's responses in input order at any thread count.
#ifndef TOFU_UTIL_THREAD_POOL_H_
#define TOFU_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tofu {

class ThreadPool {
 public:
  // Spawns num_threads-1 workers (the calling thread runs shard 0); clamped to
  // [1, hardware_concurrency]. With one thread every ParallelFor runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Calls fn(shard, begin, end) for num_threads() shards covering [0, n), blocking
  // until every shard completes. fn must not recurse into ParallelFor.
  void ParallelFor(std::int64_t n,
                   const std::function<void(int, std::int64_t, std::int64_t)>& fn);

 private:
  void WorkerLoop(int worker);
  void RunShard(int shard);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(int, std::int64_t, std::int64_t)>* job_ = nullptr;
  std::int64_t job_n_ = 0;
  std::uint64_t generation_ = 0;  // bumped per ParallelFor; wakes the workers
  int pending_ = 0;               // worker shards not yet finished this generation
  bool shutdown_ = false;
};

}  // namespace tofu

#endif  // TOFU_UTIL_THREAD_POOL_H_
