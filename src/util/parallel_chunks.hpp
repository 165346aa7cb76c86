// Fork-join over a contiguous index range.
//
// The batch execution paths (simd::execute_many groups, the parallel
// backend's across-vector run_many) all need the same shape: split
// [0, total) into one contiguous chunk per worker, run the chunks on
// std::threads, join.  Every executor layer shares this one copy of the
// partition arithmetic and of the thread handling (Workers: spawn
// failures, placement, joins, exceptions), which the fused executor's
// per-vector split uses too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace whtlab::util {

/// Moves `worker` off the calling thread's CPU: restricts its affinity to
/// the caller's allowed CPUs minus the one the caller runs on (no-op when
/// that leaves none, or off Linux).  Schedulers may queue a new thread on
/// its creator's CPU and not balance it away for milliseconds, so a worker
/// started next to a busy caller can sit idle until the caller blocks.
void place_off_caller_cpu(std::thread& worker);

/// Worker std::threads that are joined when the pool is destroyed — on
/// return or while unwinding — so an exception never destroys a joinable
/// std::thread (which calls std::terminate).  Each worker starts off the
/// caller's CPU (place_off_caller_cpu) so it runs alongside the caller.
class Workers {
 public:
  Workers() = default;
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  /// Joins without rethrowing: reached without join() only while the
  /// caller is already unwinding with an exception of its own.
  ~Workers() { join_all(); }

  /// Joins every worker, then rethrows the first exception a worker's fn
  /// threw (a throwing fn would otherwise terminate the process).
  void join() {
    join_all();
    if (error_) std::rethrow_exception(error_);
  }

  /// Starts threads running fn(i) (each on its own copy of fn) for
  /// i = 0, 1, ... up to `count` of them and returns how many started.
  /// Stops at the first start that fails — std::thread throws
  /// std::system_error (EAGAIN) at the process's thread limit, and the
  /// "thread.spawn" fault point fails a start on demand — so callers run
  /// every share they could not hand off themselves.
  template <typename Fn>
  std::uint64_t spawn(std::uint64_t count, const Fn& fn) {
    threads_.reserve(threads_.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      try {
        if (fault::enabled() && fault::point("thread.spawn")) {
          throw std::system_error(
              std::make_error_code(std::errc::resource_unavailable_try_again),
              "thread.spawn");
        }
        threads_.emplace_back([this, fn, i] {
          try {
            fn(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex_);
            if (!error_) error_ = std::current_exception();
          }
        });
        place_off_caller_cpu(threads_.back());
      } catch (const std::system_error&) {
        return i;
      }
    }
    return count;
  }

 private:
  void join_all() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex error_mutex_;    ///< guards error_ while workers run
  std::exception_ptr error_;  ///< first exception a worker threw
};

/// True when parallel_chunks(total, workers, ...) runs fn inline on the
/// calling thread (no worker threads spawned).  Exposed so callers deciding
/// whether caller-owned, single-thread resources (a ScratchArena) may be
/// handed to fn share ONE copy of the rule with the dispatch itself.
constexpr bool parallel_chunks_runs_inline(std::uint64_t total, int workers) {
  return workers <= 1 || total <= 1;
}

/// Invokes fn(begin, end) over a partition of [0, total) into
/// min(workers, total) contiguous, near-equal chunks: chunk 0 on the
/// calling thread, the others on std::threads (the caller also runs any
/// chunk whose thread failed to start).  parallel_chunks_runs_inline shapes
/// run on the calling thread alone.  fn must be safe to call concurrently
/// on disjoint ranges.
template <typename Fn>
void parallel_chunks(std::uint64_t total, int workers, const Fn& fn) {
  if (parallel_chunks_runs_inline(total, workers)) {
    fn(std::uint64_t{0}, total);
    return;
  }
  const std::uint64_t w =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(workers), total);
  const auto chunk = [&fn, total, w](std::uint64_t i) {
    fn(total * i / w, total * (i + 1) / w);
  };
  Workers pool;
  const std::uint64_t started =
      pool.spawn(w - 1, [&chunk](std::uint64_t i) { chunk(i + 1); });
  for (std::uint64_t i = started + 1; i < w; ++i) chunk(i);
  chunk(0);
  pool.join();
}

}  // namespace whtlab::util
