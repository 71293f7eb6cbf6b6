#include "host_probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>

namespace rackbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Allocator for the probe's map: plain malloc/free, never the global
/// operator new.
template <class T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <class U>
  MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  bool operator==(const MallocAllocator&) const { return true; }
};

using BlockMap = std::map<int, double*, std::less<int>,
                          MallocAllocator<std::pair<const int, double*>>>;

/// Smallest one-step-ahead squared error of double exponential smoothing
/// over a 19 x 19 grid of (alpha, beta).
double smoothing_grid(const std::vector<double>& x) {
  double best = INFINITY;
  for (int a = 1; a < 20; ++a) {
    for (int b = 1; b < 20; ++b) {
      const double alpha = a / 20.0;
      const double beta = b / 20.0;
      double level = x[0];
      double trend = 0.0;
      double sse = 0.0;
      for (std::size_t i = 1; i < x.size(); ++i) {
        const double forecast = level + trend;
        const double error = x[i] - forecast;
        sse += error * error;
        const double next = alpha * x[i] + (1.0 - alpha) * forecast;
        trend = beta * (next - level) + (1.0 - beta) * trend;
        level = next;
      }
      best = std::min(best, sse);
    }
  }
  return best;
}

/// Four independent hash walks through `table`.
std::uint64_t table_walk(const std::vector<std::uint64_t>& table) {
  const std::uint64_t mask = table.size() - 1;
  std::uint64_t h[4] = {1, 2, 3, 4};
  for (int step = 0; step < 100000; ++step) {
    for (std::uint64_t& v : h) v = v * 0x9e3779b97f4a7c15ULL + table[(v >> 40) & mask];
  }
  return h[0] ^ h[1] ^ h[2] ^ h[3];
}

/// Insert 3000 keys with heap blocks of 1-17 doubles, erasing the smallest
/// key every third insert.
double map_churn(const std::vector<int>& keys) {
  BlockMap blocks;
  double total = 0.0;
  for (std::size_t k = 0; k < 3000; ++k) {
    const std::size_t size = 1 + k % 17;
    auto* block = static_cast<double*>(std::malloc(size * sizeof(double)));
    if (block == nullptr) throw std::bad_alloc();
    std::fill(block, block + size, static_cast<double>(k));
    auto [it, inserted] = blocks.try_emplace(keys[k], block);
    if (!inserted) {
      total += it->second[0];
      std::free(it->second);
      it->second = block;
    }
    if (k % 3 == 0) {
      total += blocks.begin()->second[0];
      std::free(blocks.begin()->second);
      blocks.erase(blocks.begin());
    }
  }
  for (auto& [key, block] : blocks) std::free(block);
  return total + static_cast<double>(blocks.size());
}

}  // namespace

HostProbe::HostProbe()
    : series_(96), table_(std::size_t{1} << 16), keys_(4096), sorted_(4096) {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    series_[i] = 2.0 + std::sin(0.1 * static_cast<double>(i));
  }
  std::uint64_t state = 0x853c49e6748fea9bULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (std::uint64_t& v : table_) v = next() << 20 ^ next();
  for (int& k : keys_) k = static_cast<int>(next() % 100000);
  run();  // first touch of every buffer, outside any measurement
}

double HostProbe::run() {
  const Clock::time_point start = Clock::now();
  // The inputs shift a little on every pass so no work can be hoisted.
  series_[static_cast<std::size_t>(sink_) % series_.size()] += 1e-9;
  sink_ += smoothing_grid(series_);
  sink_ += static_cast<double>(table_walk(table_) & 0xff);
  for (int pass = 0; pass < 4; ++pass) {
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    sorted_[pass] = pass;
    std::sort(sorted_.begin(), sorted_.end());
    sink_ += sorted_[100];
  }
  sink_ += map_churn(keys_);
  sink_ = std::fmod(sink_, 1e6);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace rackbench
