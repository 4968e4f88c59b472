// Sample statistics shared by the workloads: percentiles with the
// "at least ten samples beyond" rule, and timing summaries in which a task
// that was never placed counts as beyond every percentile. Quantiles come
// from firmament::Distribution (linear interpolation between closest ranks).

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/metrics.h"

namespace perfbench {

// Samples lying strictly beyond quantile q of n samples: floor(n * (1 - q)).
size_t SamplesBeyond(size_t n, double q);

// The highest of p99.9, p99, p90 and p50 that has at least `min_beyond`
// samples beyond it among n samples; 0 when even p50 has fewer.
double HighestReportableQuantile(size_t n, size_t min_beyond = 10);

// A timing metric as reported: the median, one tail quantile, and the
// sample count.
struct TimingSummary {
  size_t samples = 0;
  size_t never = 0;  // tasks never placed, included in `samples`
  double p50 = 0;
  double tail = 0;   // value at tail_q
  double tail_q = 0;
};

// p50 and quantile tail_q of `samples`; zeros when there are none.
TimingSummary Summarize(const std::vector<double>& samples, double tail_q);

// Latency samples of the tasks sent (or due) within [start_ns, end_ns);
// tasks outside the window are dropped. All samples of the window are
// pooled, so a stall in any part of it reaches the tail.
class WindowSamples {
 public:
  WindowSamples(int64_t start_ns, int64_t end_ns) : start_ns_(start_ns), end_ns_(end_ns) {}

  void Add(int64_t time_ns, double value);
  // A task sent at `time_ns` that was never placed.
  void AddNever(int64_t time_ns);
  size_t count() const { return placed_.count() + never_; }

  // A never-placed task ranks beyond every placed one and reads as
  // `never_value` (the run's whole elapsed time) when a quantile lands on
  // it, so the figure stays finite.
  TimingSummary Summarize(double tail_q, double never_value) const;

 private:
  bool InWindow(int64_t time_ns) const { return time_ns >= start_ns_ && time_ns < end_ns_; }

  int64_t start_ns_;
  int64_t end_ns_;
  firmament::Distribution placed_;
  size_t never_ = 0;
};

// Events timed within [start_ns, end_ns), as a count and a rate.
class WindowCount {
 public:
  WindowCount(int64_t start_ns, int64_t end_ns) : start_ns_(start_ns), end_ns_(end_ns) {}
  void Add(int64_t time_ns) { count_ += time_ns >= start_ns_ && time_ns < end_ns_ ? 1 : 0; }
  uint64_t count() const { return count_; }
  double PerSecond() const {
    return static_cast<double>(count_) / (static_cast<double>(end_ns_ - start_ns_) / 1e9);
  }

 private:
  int64_t start_ns_;
  int64_t end_ns_;
  uint64_t count_ = 0;
};

// Median of a vector; 0 for an empty one.
double Median(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
