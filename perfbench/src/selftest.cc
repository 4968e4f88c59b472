// Unit tests of the benchmark's own code: percentile selection, window
// summaries, span self time, the Chrome trace writer, and stage-sum
// reconciliation on a synthetic span set. Exits non-zero on any failure.
//
//   perfbench_selftest [scratch-dir]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/stats.h"
#include "src/tracer.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double actual, double expected, const std::string& what) {
  Expect(std::abs(actual - expected) <= 1e-9 + 1e-9 * std::abs(expected),
         what + ": got " + std::to_string(actual) + ", expected " + std::to_string(expected));
}

void TestPercentileSelection() {
  ExpectNear(static_cast<double>(SamplesBeyond(1000, 0.99)), 10, "10 beyond p99 of 1000");
  ExpectNear(static_cast<double>(SamplesBeyond(999, 0.99)), 9, "9 beyond p99 of 999");
  ExpectNear(HighestReportableQuantile(19), 0, "19 samples: nothing reportable");
  ExpectNear(HighestReportableQuantile(20), 0.5, "20 samples: p50");
  ExpectNear(HighestReportableQuantile(99), 0.5, "99 samples: p50");
  ExpectNear(HighestReportableQuantile(100), 0.9, "100 samples: p90");
  ExpectNear(HighestReportableQuantile(999), 0.9, "999 samples: p90");
  ExpectNear(HighestReportableQuantile(1000), 0.99, "1000 samples: p99");
  ExpectNear(HighestReportableQuantile(10000), 0.999, "10000 samples: p99.9");

  // Never-placed tasks rank beyond every percentile and read as the
  // stand-in value when a quantile lands on them.
  WindowSamples w(0, 2000);
  for (int i = 1; i <= 1000; ++i) w.Add(i, i);
  for (int i = 0; i < 20; ++i) w.AddNever(1500);
  TimingSummary s = w.Summarize(0.99, 12345);
  Expect(s.samples == 1020 && s.never == 20, "summary counts the never-placed samples");
  ExpectNear(s.tail, 12345, "p99 lands on a never-placed sample");
  Expect(s.p50 > 500 && s.p50 < 512, "median stays among the placed samples");
  ExpectNear(WindowSamples(0, 10).Summarize(0.99, 7).tail, 0, "no samples read as zero");
  ExpectNear(Summarize({1, 2, 3, 4}, 0.99).p50, 2.5, "interpolated median");
  ExpectNear(Median({}), 0, "median of nothing");
}

void TestWindows() {
  // Samples outside the window are dropped; inside it they are pooled, so
  // a stall confined to a short stretch of the window reaches the tail.
  WindowSamples w(1000, 1300);
  for (int i = 0; i < 280; ++i) w.Add(1000 + i, 1.0);
  for (int i = 0; i < 20; ++i) w.Add(1280 + i, 100.0);  // a stall near the end
  w.Add(999, 7.0);   // before the window: dropped
  w.Add(1300, 7.0);  // at its end: dropped
  w.AddNever(2000);  // never placed, but sent after the window: dropped
  TimingSummary s = w.Summarize(0.95, 0);
  Expect(w.count() == 300 && s.samples == 300 && s.never == 0,
         "only samples inside the window count");
  ExpectNear(s.p50, 1.0, "median of the pooled samples");
  ExpectNear(s.tail, 100.0, "a short stall reaches the pooled p95");

  WindowCount rate(0, 2'000'000'000);  // two seconds
  for (int i = 0; i < 100; ++i) rate.Add(i * 10'000'000);
  rate.Add(-1);
  rate.Add(2'000'000'000);
  Expect(rate.count() == 100, "rate counts events inside the window");
  ExpectNear(rate.PerSecond(), 50.0, "events per second over the window");
}

Span MakeSpan(const char* name, const char* layer, int64_t start, int64_t end, uint64_t id,
              uint64_t parent, uint64_t key) {
  return Span{name, layer, start, end, id, parent, key, 0};
}

void TestSelfTime() {
  std::vector<Span> spans = {
      MakeSpan("parent", "service", 0, 100, 1, 0, 0),
      MakeSpan("a", "graph", 10, 30, 2, 1, 0),
      MakeSpan("b", "graph", 20, 50, 3, 1, 0),    // overlaps a
      MakeSpan("c", "solver", 90, 120, 4, 1, 0),  // runs past the parent
      MakeSpan("d", "view", 95, 100, 5, 4, 0),
  };
  std::map<std::string, int64_t> self = SelfTimeByLayer(spans);
  ExpectNear(static_cast<double>(self["service"]), 100 - 40 - 10, "parent self time");
  ExpectNear(static_cast<double>(self["graph"]), 20 + 30, "children self time");
  ExpectNear(static_cast<double>(self["solver"]), 30 - 5, "nested child self time");
  ExpectNear(static_cast<double>(self["view"]), 5, "leaf self time");
}

void TestTracerAndChromeTrace(const std::string& dir) {
  Tracer tracer;
  auto record = [&tracer](int base) {
    for (int i = 0; i < 100; ++i) {
      tracer.Add(MakeSpan("x", "gen", base + i, base + i + 1, 0, 0, 0));
    }
  };
  std::thread other(record, 1000);
  record(0);
  other.join();
  std::vector<Span> spans = tracer.Collect();
  Expect(spans.size() == 200, "spans from two threads are all collected");
  bool sorted = true;
  for (size_t i = 1; i < spans.size(); ++i) sorted &= spans[i - 1].start_ns <= spans[i].start_ns;
  Expect(sorted, "collected spans are ordered by start");
  Expect(spans.front().id != spans.back().id, "span ids are distinct");

  const std::string path = dir + "/selftest.trace.json";
  Expect(WriteChromeTrace(path, spans, 150), "trace file written");
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  Expect(text.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0) == 0,
         "trace file is Chrome trace-event JSON");
  Expect(text.find("\"ph\": \"X\"") != std::string::npos, "events are complete events");
  size_t events = 0;
  for (size_t at = text.find("\"ph\""); at != std::string::npos; at = text.find("\"ph\"", at + 1)) {
    ++events;
  }
  Expect(events == 150, "the trace file holds the first max_events spans");
  std::remove(path.c_str());
}

// Three tasks through the synthetic spans of two rounds and one template
// install; every stage and the unattributed remainder is known exactly.
void TestReconciliation() {
  const int64_t ms = 1'000'000;
  std::vector<Span> spans = {
      // Submission 1 (task 10): due 0, sent 1 ms late.
      MakeSpan("gen.late", "gen", 0, 1 * ms, 1, 0, 1),
      MakeSpan("service.submit", "service", 1 * ms, 2 * ms, 2, 0, 1),
      MakeSpan("cb.on_admitted", "gen", 3 * ms, 4 * ms, 3, 0, 1),
      // Round 0 ends at 6 ms; round 1 runs 8..20 ms with its phases.
      MakeSpan("service.round", "service", 5 * ms, 6 * ms, 4, 0, 0),
      MakeSpan("service.round", "service", 8 * ms, 20 * ms, 5, 0, 1),
      MakeSpan("graph.update", "graph", 8 * ms, 10 * ms, 6, 5, 1),
      MakeSpan("solver.solve", "solver", 10 * ms, 15 * ms, 7, 5, 1),
      MakeSpan("view.prep", "view", 10 * ms, 11 * ms, 8, 7, 1),
      MakeSpan("round.apply", "round", 15 * ms, 18 * ms, 9, 5, 1),
      MakeSpan("cb.on_placed", "gen", 19 * ms, 19 * ms + 1, 10, 5, 10),
      // Submission 2 (task 11): admitted after round 0 ended, same round.
      MakeSpan("gen.late", "gen", 6 * ms, 6 * ms, 11, 0, 2),
      MakeSpan("service.submit", "service", 6 * ms, 7 * ms, 12, 0, 2),
      MakeSpan("cb.on_admitted", "gen", 7 * ms, 7 * ms, 13, 0, 2),
      MakeSpan("cb.on_placed", "gen", 20 * ms, 20 * ms, 14, 5, 11),
      // Submission 3 (task 12): a template install, placed at admission.
      MakeSpan("gen.late", "gen", 30 * ms, 30 * ms, 15, 0, 3),
      MakeSpan("service.submit", "service", 30 * ms, 31 * ms, 16, 0, 3),
      MakeSpan("cb.on_admitted", "gen", 32 * ms, 33 * ms, 17, 0, 3),
      MakeSpan("cb.on_placed", "gen", 34 * ms, 34 * ms, 18, 0, 12),
  };
  std::vector<TaskLink> links = {{10, 1, 1}, {11, 2, 1}, {12, 3, -1}, {13, 4, 1}};
  std::vector<TaskStages> stages = DeriveTaskStages(spans, links);
  Expect(stages.size() == 3, "the task without spans is skipped");
  if (stages.size() != 3) {
    return;
  }
  // Task 10: 19 ms = late 1 + submit 1 + admit 2 + queue 2 (to round 0's
  // end at 6) + round 10 (update 2 + solve 5 + apply 3) + callback 1, and
  // 2 ms unattributed (round 0's end at 6 -> round 1's start at 8).
  const TaskStages& a = stages[0];
  ExpectNear(a.latency_ms, 19, "task 10 latency");
  ExpectNear(a.stage_ms[kGenLate], 1, "task 10 gen_late");
  ExpectNear(a.stage_ms[kSubmit], 1, "task 10 submit");
  ExpectNear(a.stage_ms[kAdmitWait], 2, "task 10 admit_wait");
  ExpectNear(a.stage_ms[kRoundQueue], 2, "task 10 round_queue");
  ExpectNear(a.stage_ms[kRound], 10, "task 10 round");
  ExpectNear(a.stage_ms[kCallback], 1, "task 10 callback");
  ExpectNear(a.Unattributed(), 2, "task 10 unattributed");
  // Task 11: admitted at 7 after round 0 ended: no queue, 1 ms unattributed.
  const TaskStages& b = stages[1];
  ExpectNear(b.latency_ms, 14, "task 11 latency");
  ExpectNear(b.stage_ms[kRoundQueue], 0, "task 11 round_queue");
  ExpectNear(b.stage_ms[kCallback], 2, "task 11 callback");
  ExpectNear(b.Unattributed(), 1, "task 11 unattributed");
  // Task 12: template install, no round stages at all.
  const TaskStages& c = stages[2];
  ExpectNear(c.latency_ms, 4, "task 12 latency");
  ExpectNear(c.stage_ms[kRound], 0, "task 12 has no round");
  ExpectNear(c.stage_ms[kAdmitWait], 2, "task 12 admit_wait");
  ExpectNear(c.stage_ms[kCallback], 1, "task 12 callback");
  ExpectNear(c.Unattributed(), 0, "task 12 fully attributed");

  // The reconciliation band around the median holds only task 11.
  Reconciliation r = Reconcile(stages, 0.5, 0.1);
  Expect(r.band == 1, "median band of three tasks holds one");
  ExpectNear(r.latency_ms, 14, "median band latency");
  ExpectNear(r.unattributed_ms, 1, "median band unattributed");
  double sum = r.unattributed_ms;
  for (double stage : r.stage_ms) sum += stage;
  ExpectNear(sum, r.latency_ms, "stages plus unattributed sum to the latency");
  Reconciliation all = Reconcile(stages, 0.5, 0.5);
  Expect(all.band == 3, "a full band averages every task");
  ExpectNear(all.unattributed_ms, 1, "mean unattributed over all tasks");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  perfbench::TestPercentileSelection();
  perfbench::TestWindows();
  perfbench::TestSelfTime();
  perfbench::TestTracerAndChromeTrace(dir);
  perfbench::TestReconciliation();
  std::printf("perfbench_selftest: %s\n",
              perfbench::g_failures == 0 ? "all passed"
                                         : (std::to_string(perfbench::g_failures) + " failed").c_str());
  return perfbench::g_failures == 0 ? 0 : 1;
}
