#include "ipc/futex.hpp"

#include <chrono>
#include <thread>

#include "util/cpu_relax.hpp"
#include "util/fault.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#endif

namespace whtlab::ipc {

using util::cpu_relax;

#if defined(__linux__)

std::uint32_t futex_wait_changed(const std::atomic<std::uint32_t>& word,
                                 std::uint32_t expected,
                                 std::int64_t timeout_ns) {
  // The kernel re-checks *addr == expected under its own lock, so the load/
  // wait race is closed; EAGAIN means the word already changed.
  auto* addr = reinterpret_cast<const std::uint32_t*>(&word);
  struct timespec ts;
  struct timespec* tsp = nullptr;
  if (timeout_ns >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000LL);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000LL);
    tsp = &ts;
  }
  ::syscall(SYS_futex, addr, FUTEX_WAIT, expected, tsp, nullptr, 0);
  return word.load(std::memory_order_acquire);
}

void futex_wake_all(const std::atomic<std::uint32_t>& word) {
  auto* addr = reinterpret_cast<const std::uint32_t*>(&word);
  ::syscall(SYS_futex, addr, FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
}

#else  // sleep-poll fallback: same semantics, wakeup latency ~ the poll tick

std::uint32_t futex_wait_changed(const std::atomic<std::uint32_t>& word,
                                 std::uint32_t expected,
                                 std::int64_t timeout_ns) {
  const auto deadline =
      timeout_ns < 0 ? std::chrono::steady_clock::time_point::max()
                     : std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(timeout_ns);
  std::uint32_t value = word.load(std::memory_order_acquire);
  while (value == expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

void futex_wake_all(const std::atomic<std::uint32_t>&) {}

#endif

std::uint32_t spin_then_wait(const std::atomic<std::uint32_t>& word,
                             std::uint32_t expected, int spins,
                             std::int64_t timeout_ns) {
  // Injected spurious wakeup/timeout: the wait returns immediately with the
  // word unchanged — exactly what FUTEX_WAIT is allowed to do — so every
  // waiter's retry loop can be exercised on demand.
  if (util::fault::enabled() && util::fault::point("ipc.futex.wait")) {
    return word.load(std::memory_order_acquire);
  }
  for (int i = 0; i < spins; ++i) {
    const std::uint32_t value = word.load(std::memory_order_acquire);
    if (value != expected) return value;
    cpu_relax();
  }
  return futex_wait_changed(word, expected, timeout_ns);
}

}  // namespace whtlab::ipc
