#include "src/probe.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>

#include "src/tracer.h"

namespace perfbench {

namespace {

// Sinks keep the optimiser from deleting the kernels.
std::atomic<uint64_t> g_sink{0};

// Integer multiply-xorshift chain: 4 dependent ops per iteration.
double AluKernel(uint64_t iterations, uint64_t seed) {
  const int64_t start = NowNs();
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 32;
    x += i;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start);
}

// Streaming read of `words` 64-bit words, `passes` times.
double BandwidthKernel(const std::vector<uint64_t>& data, int passes) {
  const int64_t start = NowNs();
  uint64_t sum = 0;
  for (int p = 0; p < passes; ++p) {
    sum += std::accumulate(data.begin(), data.end(), uint64_t{0});
  }
  g_sink.fetch_add(sum, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start);
}

// Pointer chase through a single random cycle.
double LatencyKernel(const std::vector<uint32_t>& next, uint64_t loads) {
  const int64_t start = NowNs();
  uint32_t at = 0;
  for (uint64_t i = 0; i < loads; ++i) {
    at = next[at];
  }
  g_sink.fetch_add(at, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start);
}

std::vector<uint32_t> RandomCycle(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  uint64_t s = seed;
  for (size_t i = n - 1; i > 0; --i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[(s >> 33) % (i + 1)]);
  }
  std::vector<uint32_t> next(n);
  for (size_t i = 0; i < n; ++i) {
    next[order[i]] = order[(i + 1) % n];
  }
  return next;
}

// Runs `kernel(thread)` on `threads` threads at once; returns per-thread ns.
template <typename Kernel>
std::vector<double> RunParallel(int threads, Kernel kernel) {
  std::vector<double> ns(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { ns[static_cast<size_t>(t)] = kernel(t); });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return ns;
}

}  // namespace

std::vector<std::pair<std::string, double>> ProbeResult::Fields() const {
  return {{"alu_1c_gops", alu_1c_gops},       {"alu_all_gops", alu_all_gops},
          {"mem_bw_1c_gbs", mem_bw_1c_gbs},   {"mem_bw_all_gbs", mem_bw_all_gbs},
          {"mem_lat_1c_ns", mem_lat_1c_ns},   {"mem_lat_all_ns", mem_lat_all_ns}};
}

// Each kernel runs three times; the median repetition is kept, so one
// preempted repetition does not read as contention.
template <typename Kernel>
double MedianOf3(Kernel kernel) {
  double v[3] = {kernel(), kernel(), kernel()};
  std::sort(v, v + 3);
  return v[1];
}

ProbeResult RunProbe(bool small) {
  ProbeResult r;
  r.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const uint64_t alu_iters = small ? 1'000'000 : 10'000'000;
  const size_t words = small ? (1u << 19) : (1u << 21);  // 4 / 16 MB per thread
  const size_t chase = small ? (1u << 19) : (1u << 21);  // 2 / 8 MB per thread
  const uint64_t loads = small ? 100'000 : 1'000'000;
  const double alu_ops = 4.0 * static_cast<double>(alu_iters);

  r.alu_1c_gops = MedianOf3([&] { return alu_ops / AluKernel(alu_iters, 1); });
  r.alu_all_gops = MedianOf3([&] {
    double sum = 0;
    for (double ns : RunParallel(r.threads, [&](int t) {
           return AluKernel(alu_iters, static_cast<uint64_t>(t) + 2);
         })) {
      sum += alu_ops / ns;
    }
    return sum;
  });

  std::vector<std::vector<uint64_t>> data(static_cast<size_t>(r.threads),
                                          std::vector<uint64_t>(words, 1));
  const double bytes = static_cast<double>(words * sizeof(uint64_t));
  r.mem_bw_1c_gbs = MedianOf3([&] { return bytes / BandwidthKernel(data[0], 1); });
  r.mem_bw_all_gbs = MedianOf3([&] {
    double sum = 0;
    for (double ns : RunParallel(r.threads, [&](int t) {
           return BandwidthKernel(data[static_cast<size_t>(t)], 1);
         })) {
      sum += bytes / ns;
    }
    return sum;
  });
  data.clear();

  std::vector<std::vector<uint32_t>> cycles;
  for (int t = 0; t < r.threads; ++t) {
    cycles.push_back(RandomCycle(chase, static_cast<uint64_t>(t) + 7));
  }
  const double n = static_cast<double>(loads);
  r.mem_lat_1c_ns = MedianOf3([&] { return LatencyKernel(cycles[0], loads) / n; });
  r.mem_lat_all_ns = MedianOf3([&] {
    std::vector<double> ns = RunParallel(r.threads, [&](int t) {
      return LatencyKernel(cycles[static_cast<size_t>(t)], loads);
    });
    return std::accumulate(ns.begin(), ns.end(), 0.0) / n / static_cast<double>(r.threads);
  });
  return r;
}

double ProbeDrift(const ProbeResult& before, const ProbeResult& after) {
  double drift = 0;
  auto a = before.Fields();
  auto b = after.Fields();
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].second > 0) {
      drift = std::max(drift, std::abs(b[i].second - a[i].second) / a[i].second);
    }
  }
  return drift;
}

}  // namespace perfbench
