// The benchmark binary: runs one workload for a fixed wall window and
// prints every metric by name, with its unit and sample count, then one
// JSON result line (the last line of standard output).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--tiny] [--break-output]
//   perfbench --probe [--tiny]      calibration probe only, as JSON
//   perfbench --list-metrics        metric names and units, as JSON
//
// perfbench/run.py builds this binary and wraps it with the calibration
// probe; see perfbench/METRICS.md for the metric definitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "src/probe.h"
#include "src/workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --selftest compares them).
constexpr MetricDef kEndToEnd[] = {
    {"place_p50_ms", "ms"}, {"place_p90_ms", "ms"}, {"round_p50_ms", "ms"},
    {"round_p90_ms", "ms"}, {"tasks_per_s", "1/s"}, {"spread_cost", "cost"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.admit_wait_ms.p50", "ms"},
    {"service.admit_wait_ms.p99", "ms"},
    {"service.round_queue_ms.p50", "ms"},
    {"service.round_queue_ms.p99", "ms"},
    {"service.loop_busy_share", "ratio"},
    {"service.loop_cpu_share", "ratio"},
    {"service.tasks_per_round", "tasks/round"},
    {"service.ingest_overlap_share", "ratio"},
    {"service.self_ms", "ms"},
    {"templates.hit_rate", "ratio"},
    {"templates.install_us.p50", "us"},
    {"graph.update_ms.p50", "ms"},
    {"graph.update_ms.p90", "ms"},
    {"graph.class_cache_hit_rate", "ratio"},
    {"graph.tasks_refreshed", "tasks/round"},
    {"graph.self_ms", "ms"},
    {"view.prep_ms.p50", "ms"},
    {"view.patched_share", "ratio"},
    {"view.self_ms", "ms"},
    {"solver.solve_ms.p50", "ms"},
    {"solver.solve_ms.p90", "ms"},
    {"solver.iterations", "count/round"},
    {"solver.win_share.relaxation", "ratio"},
    {"solver.degraded_share", "ratio"},
    {"solver.self_ms", "ms"},
    {"round.start_ms.p50", "ms"},
    {"round.apply_ms.p50", "ms"},
    {"round.deltas", "count/round"},
    {"round.preemptions", "count/round"},
    {"round.migrations", "count/round"},
    {"round.self_ms", "ms"},
    {"federation.cell_skip_share", "ratio"},
    {"federation.spills", "count"},
    {"federation.spill_conflicts", "count"},
    {"federation.rebalance_moves", "count"},
    {"federation.self_ms", "ms"},
    {"quality.locality_share", "ratio"},
    {"quality.failed_share", "ratio"},
    {"recon.p50.unattributed_ms", "ms"},
    {"recon.p99.unattributed_ms", "ms"},
    {"trace.place_p50_ms", "ms"},
    {"trace.place_p90_ms", "ms"},
    {"trace.place_p99_ms", "ms"},
    {"trace.round_p50_ms", "ms"},
    {"trace.spans", "count"},
    {"gen.late_p99_ms", "ms"},
    {"gen.self_ms", "ms"},
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <replay_steady|locality_burst|federated_saturated>\n"
               "                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--tiny] [--break-output]\n"
               "       perfbench --probe [--tiny]\n"
               "       perfbench --list-metrics\n");
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

// The canonical list, in order, with the workload's value where it has one
// and 0 where the layer is absent from the workload.
template <size_t N>
std::vector<Metric> Canonical(const MetricDef (&defs)[N], const std::vector<Metric>& measured,
                              std::vector<std::string>* failures) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : measured) {
    by_name[m.name] = m;
  }
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    auto it = by_name.find(def.name);
    Metric m{def.name, 0, def.unit, 0};
    if (it != by_name.end()) {
      m.value = it->second.value;
      m.samples = it->second.samples;
      if (it->second.unit != def.unit && failures != nullptr) {
        failures->push_back(std::string("metric ") + def.name + " measured in " +
                            it->second.unit + ", defined in " + def.unit);
      }
    }
    out.push_back(m);
  }
  return out;
}

int ListMetrics() {
  auto list = [](const auto& defs) {
    std::string out = "[";
    bool first = true;
    for (const MetricDef& def : defs) {
      out += (first ? "" : ", ") + std::string("[") + Quote(def.name) + ", " + Quote(def.unit) +
             "]";
      first = false;
    }
    return out + "]";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n", list(kEndToEnd).c_str(),
              list(kPerLayer).c_str());
  return 0;
}

int Probe(bool tiny) {
  ProbeResult probe = RunProbe(tiny);
  std::string out = "{";
  for (const auto& [name, value] : probe.Fields()) {
    out += (out.size() > 1 ? ", " : "") + Quote(name) + ": " + Number(value);
  }
  std::printf("%s, \"threads\": %d}\n", out.c_str(), probe.threads);
  return 0;
}

int Run(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  WorkloadConfig config;
  bool traced = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      return ListMetrics();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--break-output") {
      config.break_output = true;
    } else if (arg == "--probe") {
      bool tiny = false;
      for (int j = 1; j < argc; ++j) tiny |= std::strcmp(argv[j], "--tiny") == 0;
      return Probe(tiny);
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    PrintUsage();
    return 2;
  }
  if (config.tiny) {
    config.setup_reps = 1;
  }

  Tracer tracer;
  Tracer* active = traced ? &tracer : nullptr;
  WorkloadResult result;
  if (workload == "replay_steady") {
    result = RunReplaySteady(config, active);
  } else if (workload == "locality_burst") {
    result = RunLocalityBurst(config, active);
  } else if (workload == "federated_saturated") {
    result = RunFederatedSaturated(config, active);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const double failed_share =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  result.per_layer.push_back({"quality.failed_share", failed_share, "ratio", 0});
  if (result.attempted == 0) {
    result.check_failures.push_back("no task was submitted in the measured window");
  }

  std::vector<Metric> e2e = Canonical(kEndToEnd, result.end_to_end, &result.check_failures);
  std::vector<Metric> layer = Canonical(kPerLayer, result.per_layer, &result.check_failures);

  std::printf("workload %s seed %llu seconds %g trace %d%s\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, traced ? 1 : 0,
              config.tiny ? " (tiny)" : "");
  std::printf("attempted %llu tasks, failed %llu (failed_share %.6g)\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), failed_share);
  // Sampled figures also show the highest percentile their sample count
  // supports (at least ten samples beyond it).
  for (const Metric& m : e2e) {
    std::printf("metric %-28s %14.6g %-6s n=%zu", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
    if (m.samples > 0) {
      std::printf("  (highest reportable: p%g)", 100 * HighestReportableQuantile(m.samples));
    }
    std::printf("\n");
  }
  for (const Metric& m : layer) {
    std::printf("layer  %-28s %14.6g %-12s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.check_failures.empty();
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(config.seed) +
                             "-trace" + (traced ? "1" : "0");
    std::ofstream file(stem + ".json");
    file << "{\"workload\": " << Quote(workload) << ", \"seed\": " << config.seed
         << ", \"seconds\": " << Number(config.seconds) << ", \"traced\": " << traced
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
         << ", \"end_to_end\": " << MetricsJson(e2e) << ", \"per_layer\": " << MetricsJson(layer)
         << ", \"check_failures\": [";
    for (size_t i = 0; i < result.check_failures.size(); ++i) {
      file << (i == 0 ? "" : ", ") << Quote(result.check_failures[i]);
    }
    file << "]}\n";
    if (traced) {
      constexpr size_t kMaxTraceEvents = 200'000;
      if (!WriteChromeTrace(stem + ".trace.json", result.spans, kMaxTraceEvents)) {
        std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
      }
      std::printf("trace file: the first %zu of %zu spans (self times use all of them)\n",
                  std::min(result.spans.size(), kMaxTraceEvents), result.spans.size());
    }
  }

  // The result line: end-to-end metrics untraced, per-layer metrics traced;
  // a run that failed a check reports the failures above instead of numbers.
  const std::vector<Metric>& reported = traced ? layer : e2e;
  std::string metrics = "{";
  if (correct) {
    for (size_t i = 0; i < reported.size(); ++i) {
      metrics += (i == 0 ? "" : ", ") + Quote(reported[i].name) +
                 ": {\"value\": " + Number(reported[i].value) +
                 ", \"unit\": " + Quote(reported[i].unit) + "}";
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
