// Google-cluster-trace event model (§7: the headline evaluation replays the
// 2011 Google trace; clusterdata-2011 format, v2 schema).
//
// The trace is a set of CSV tables; the two the scheduler needs are
//  * task_events:     one row per task lifecycle transition
//    (submit/schedule/evict/fail/finish/kill/lost/update), and
//  * machine_events:  one row per machine add/remove/update.
// Both tables are timestamp-ordered streams of small records, which is what
// makes streaming ingestion possible: the parser in trace_reader.h holds one
// chunk of file bytes and one lookahead event per table — O(live state), not
// O(trace) — and the replay driver keys everything off (job id, task index)
// lineages that die when their task finishes.
//
// TraceEvent is the union row for both tables. The synthetic emitter
// (synthetic_trace.h) produces the same struct, so CI exercises the full
// serialize -> parse -> replay path without the non-redistributable trace.

#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstdint>

#include "src/core/types.h"

namespace firmament {

enum class TraceTable : uint8_t {
  kMachineEvents = 0,  // sorts before task events at equal timestamps
  kTaskEvents = 1,
};

// task_events column 5 ("event type"), clusterdata-2011 codes.
enum TaskEventCode : int32_t {
  kTaskSubmit = 0,         // task becomes eligible for scheduling
  kTaskSchedule = 1,       // the trace's own placement decision (ignored:
                           // this scheduler makes its own)
  kTaskEvict = 2,          // descheduled for a higher-priority task / crash
  kTaskFail = 3,           // task failed
  kTaskFinish = 4,         // normal completion
  kTaskKill = 5,           // cancelled by user or dependency
  kTaskLost = 6,           // presumed dead; record lost
  kTaskUpdatePending = 7,  // attribute update while waiting (ignored)
  kTaskUpdateRunning = 8,  // attribute update while running (ignored)
};

// machine_events column 2 ("event type").
enum MachineEventCode : int32_t {
  kMachineAdd = 0,
  kMachineRemove = 1,
  kMachineUpdate = 2,  // capacity change (recognized, not replayed)
};

// Resource-request encoding shared by the synthetic emitter and the replay
// driver: the trace normalizes requests and capacities to [0, 1] of a full
// machine, so the emitter divides by these full-machine scales and the
// driver multiplies back.
constexpr double kTraceFullMachineBandwidthMbps = 10'000.0;  // 10 Gbps NIC
constexpr double kTraceFullMachineInputBytes = 16e9;

// One row of either table. Missing CSV fields parse as 0; resource
// requests/capacities are normalized to [0, 1] of a full machine as in the
// published trace (the replay driver scales them to slots/bytes/mbps).
struct TraceEvent {
  SimTime time = 0;
  TraceTable table = TraceTable::kTaskEvents;
  int32_t code = 0;

  // task_events fields. A (job_id, task_index) pair names a task *lineage*:
  // the same pair persists across evict/fail/resubmit cycles.
  uint64_t job_id = 0;
  uint32_t task_index = 0;
  int32_t scheduling_class = 0;
  int32_t priority = 0;
  double cpu_request = 0;
  double ram_request = 0;

  // machine_events fields (machine_id is also set on task SCHEDULE rows).
  uint64_t machine_id = 0;
  double cpu_capacity = 0;
  double ram_capacity = 0;
};

// Canonical stream order: by timestamp, machine events before task events at
// ties (capacity changes precede the work that needs them). Within one table
// at one timestamp, file order is preserved by the merge, so this comparator
// is intentionally a strict weak order over (time, table) only — use it with
// stable_sort.
inline bool TraceEventOrder(const TraceEvent& a, const TraceEvent& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return static_cast<uint8_t>(a.table) < static_cast<uint8_t>(b.table);
}

// Structured error counters for one parsed table. The parser never
// CHECK-aborts on bad input: every rejected line lands in exactly one
// counter, so `events + dropped()` accounts for every non-empty line seen
// (the zero-event-loss identity the round-trip test pins).
struct TraceParseStats {
  uint64_t lines = 0;                // non-empty lines consumed
  uint64_t events = 0;               // well-formed, in-order events emitted
  uint64_t malformed_lines = 0;      // wrong arity or unparseable field
  uint64_t unknown_event_codes = 0;  // event type outside the table's enum
  uint64_t out_of_order_events = 0;  // timestamp regressed within the table
  uint64_t truncated_tail_lines = 0; // file ended mid-record (no newline)
  uint64_t bytes = 0;                // file bytes consumed
  size_t max_buffered_bytes = 0;     // line-assembly high-water (O(chunk))

  uint64_t dropped() const {
    return malformed_lines + unknown_event_codes + out_of_order_events +
           truncated_tail_lines;
  }

  void MergeFrom(const TraceParseStats& other) {
    lines += other.lines;
    events += other.events;
    malformed_lines += other.malformed_lines;
    unknown_event_codes += other.unknown_event_codes;
    out_of_order_events += other.out_of_order_events;
    truncated_tail_lines += other.truncated_tail_lines;
    bytes += other.bytes;
    if (other.max_buffered_bytes > max_buffered_bytes) {
      max_buffered_bytes = other.max_buffered_bytes;
    }
  }
};

}  // namespace firmament

#endif  // SRC_TRACE_TRACE_EVENT_H_
