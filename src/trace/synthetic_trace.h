// Trace-shaped synthetic workload emitter.
//
// The paper's headline experiments replay the 2011 Google trace, which is
// not redistributable with this repository. This emitter closes the gap for
// CI: it runs the TraceGenerator workload model and the FaultInjector
// decision stream through a small event walk and serializes the result into
// the same CSV tables the streaming parser reads (trace_reader.h), so the
// full parse -> merge -> replay path is exercised end to end on a workload
// with the trace's statistical shape (heavy-tailed job sizes, batch/service
// split, Poisson arrivals, rack-correlated failure storms).
//
// Emission semantics (what the driver must reproduce):
//  * one SUBMIT row per lineage — kill/evict/fail/lost rows do NOT get a
//    companion resubmit SUBMIT; the replay driver owns kill-and-resubmit
//    with the shared capped backoff (replay_feedback.h), and the lineage's
//    single FINISH row is re-timed to land after that backoff;
//  * at most one FINISH row per lineage, only if it lands inside the
//    horizon (service tasks and late batch tasks are still running when the
//    trace window closes, exactly as in the real trace);
//  * machine ADD rows at t=0 plus a late-arriving fraction, REMOVE rows
//    from the injector's crash/storm timeline, optional re-ADD after a
//    restart delay, and a sprinkling of UPDATE rows (recognized, ignored);
//  * a stride of task UPDATE_PENDING rows exercising the driver's
//    recognized-but-ignored path.

#ifndef SRC_TRACE_SYNTHETIC_TRACE_H_
#define SRC_TRACE_SYNTHETIC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/fault_injector.h"
#include "src/sim/trace_generator.h"
#include "src/trace/trace_event.h"

namespace firmament {

struct SyntheticTraceParams {
  TraceGeneratorParams workload;
  FaultInjectorParams faults;
  SimTime horizon = 60 * kMicrosPerSecond;
  // Rack grouping for storm escalation: machine ids are dealt into racks of
  // this size (the replay driver groups the same way via the service's
  // machines_per_rack option).
  int machines_per_rack = 48;
  // Fraction of machines whose ADD row lands in (0, horizon/2] instead of
  // t=0 — mid-stream capacity arrival.
  double late_machine_fraction = 0.02;
  // Crashed machines re-ADD after this delay (0 = stay dead).
  SimTime machine_restart_us = 5 * 60 * kMicrosPerSecond;
  // Every Nth submitted task also gets an UPDATE_PENDING row (0 = none).
  int update_event_stride = 64;
};

struct SyntheticTraceCounts {
  uint64_t machine_events = 0;  // rows in the machine_events table
  uint64_t task_events = 0;     // rows in the task_events table
  uint64_t lineages = 0;        // distinct (job id, task index) pairs
  uint64_t finishes = 0;        // FINISH rows emitted (inside the horizon)
  uint64_t kills = 0;           // EVICT/FAIL/KILL/LOST rows
  uint64_t machine_adds = 0;
  uint64_t machine_removes = 0;
};

class SyntheticTraceEmitter {
 public:
  explicit SyntheticTraceEmitter(SyntheticTraceParams params);

  // The full event list in canonical stream order (TraceEventOrder; stable
  // within a table). Deterministic in params. Also fills counts().
  std::vector<TraceEvent> Emit();

  // Emit() + serialize into the two CSV tables via TraceWriter.
  SyntheticTraceCounts WriteCsv(const std::string& machine_events_csv,
                                const std::string& task_events_csv);

  const SyntheticTraceCounts& counts() const { return counts_; }

 private:
  SyntheticTraceParams params_;
  SyntheticTraceCounts counts_;
};

}  // namespace firmament

#endif  // SRC_TRACE_SYNTHETIC_TRACE_H_
