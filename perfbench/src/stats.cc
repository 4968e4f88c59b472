#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using firmament::Distribution;

namespace {

TimingSummary SummarizeDistribution(const Distribution& dist, double tail_q) {
  TimingSummary summary;
  summary.samples = dist.count();
  summary.tail_q = tail_q;
  if (!dist.empty()) {
    summary.p50 = dist.Median();
    summary.tail = dist.Percentile(tail_q);
  }
  return summary;
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  // Integer arithmetic on per-mille steps keeps 1000 * 0.01 from rounding
  // down to 9.
  const long long permille_beyond = std::llround((1.0 - q) * 1000.0);
  return static_cast<size_t>(static_cast<long long>(n) * permille_beyond / 1000);
}

double HighestReportableQuantile(size_t n, size_t min_beyond) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (SamplesBeyond(n, q) >= min_beyond) {
      return q;
    }
  }
  return 0;
}

TimingSummary Summarize(const std::vector<double>& samples, double tail_q) {
  Distribution dist;
  for (double v : samples) {
    dist.Add(v);
  }
  return SummarizeDistribution(dist, tail_q);
}

void WindowSamples::Add(int64_t time_ns, double value) {
  if (InWindow(time_ns)) {
    placed_.Add(value);
  }
}

void WindowSamples::AddNever(int64_t time_ns) {
  if (InWindow(time_ns)) {
    ++never_;
  }
}

TimingSummary WindowSamples::Summarize(double tail_q, double never_value) const {
  Distribution all = placed_;
  if (!placed_.empty()) {
    never_value = std::max(never_value, placed_.Max());
  }
  for (size_t i = 0; i < never_; ++i) {
    all.Add(never_value);
  }
  TimingSummary summary = SummarizeDistribution(all, tail_q);
  summary.never = never_;
  return summary;
}

double Median(const std::vector<double>& values) {
  return Summarize(values, 0.5).p50;
}

}  // namespace perfbench
