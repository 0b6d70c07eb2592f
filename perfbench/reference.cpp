#include "reference.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {

double reference_mevents_per_s(double seconds) {
  struct Timer {
    std::int64_t when;
    std::uint32_t id;
    bool operator>(const Timer& other) const { return when > other.when; }
  };
  constexpr std::uint32_t kTimers = 4096;
  constexpr int kBurst = 10000;
  constexpr std::size_t kBlockBytes = 192;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> heap;
  // Its own arena, allocated before timing starts: the loop never calls
  // malloc, so the state of the program's heap cannot move the reference.
  std::vector<char> blocks(kTimers * kBlockBytes);
  for (std::uint32_t i = 0; i < kTimers; ++i) heap.push({i * 7 % 1000, i});
  std::uint64_t x = 88172645463325252ull;  // xorshift state: same sequence every call
  std::uint64_t sink = 0;
  std::uint64_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    for (int k = 0; k < kBurst; ++k) {
      const Timer t = heap.top();
      heap.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::memset(&blocks[t.id * kBlockBytes], static_cast<int>(x), 64 + (x & 127));
      // Two words of capture: stored inline, no allocation.
      std::function<void()> fn = [&sink, id = t.id] { sink += id; };
      fn();
      heap.push({t.when + static_cast<std::int64_t>(x % 1000), t.id});
    }
    events += kBurst;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (elapsed >= seconds) {
      // Fold the sink into the result so the loop cannot be optimised away.
      return static_cast<double>(events) / elapsed / 1e6 + static_cast<double>(sink & 1) * 1e-12;
    }
  }
}

}  // namespace perfbench
