#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr int kOps = 40000;
constexpr std::size_t kQueueDepth = 4096;
constexpr std::uint64_t kKeys = 16384;
constexpr std::size_t kBuffers = 256;

/// Keeps the kernel's result alive so the compiler cannot drop the work.
std::atomic<std::uint64_t> sink{0};

/// The operations a packet-level simulator spends its time on: a
/// heap-ordered event queue, hash lookups, short-lived heap blocks, and
/// byte copies and hashing, driven by a fixed xorshift stream. Its working
/// set stays under 1 MiB and it allocates only small blocks, so it neither
/// raises the process's peak RSS nor moves glibc's mmap threshold.
std::uint64_t calibration_kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      events;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<unsigned char[]>> buffers(kBuffers);
  unsigned char frame[1280] = {};
  std::uint64_t acc = 0;
  for (int i = 0; i < kOps; ++i) {
    events.push(next() >> 16);
    if (events.size() > kQueueDepth) {
      acc += events.top();
      events.pop();
    }
    table[next() % kKeys] += static_cast<std::uint64_t>(i);
    if (const auto it = table.find(next() % kKeys); it != table.end()) {
      acc ^= it->second;
    }
    const std::size_t len = 64 + (next() & 1023);
    auto& buffer = buffers[static_cast<std::size_t>(i) % kBuffers];
    buffer = std::make_unique<unsigned char[]>(len);
    frame[i & 1023] = static_cast<unsigned char>(acc);
    std::memcpy(buffer.get(), frame, len);
    for (std::size_t k = 0; k < len; k += 8) {
      acc = (acc ^ buffer[k]) * 0x100000001b3ULL;
    }
  }
  return acc;
}

}  // namespace

double time_calibration(int threads) {
  std::vector<double> ms(static_cast<std::size_t>(threads));
  const auto timed_kernel = [&ms](std::size_t t) {
    const auto t0 = std::chrono::steady_clock::now();
    sink += calibration_kernel();
    ms[t] = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < ms.size(); ++t) {
    workers.emplace_back(timed_kernel, t);
  }
  timed_kernel(0);
  for (auto& worker : workers) worker.join();
  return *std::max_element(ms.begin(), ms.end());
}

}  // namespace perfbench
