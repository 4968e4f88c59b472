// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around every call into
// the scheduler's public interface (producer calls, callback arrivals,
// StartRound/ApplyRound); round-internal phases become child spans built
// from the round result fields. Each thread appends to its own buffer, so
// recording takes no lock; Collect() merges the buffers once every
// recording thread has quiesced. Untraced runs pass a null Tracer* and
// record nothing.

#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock), the time base of every span.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // static string, e.g. "service.submit"
  const char* layer = "";  // module name: service, graph, view, solver, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t key = 0;     // task, submission or round id the span belongs to
  uint32_t thread = 0;  // recording thread's ordinal
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Appends a finished span (id assigned when 0) to the calling thread's
  // buffer and returns its id.
  uint64_t Add(Span span);
  // Merges every thread's buffer, ordered by start time. Call only after
  // all recording threads have stopped.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const uint64_t generation_ = next_generation_.fetch_add(1);
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_

  static std::atomic<uint64_t> next_generation_;
};

// Records [construction, destruction) as a span when the tracer is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer, uint64_t key = 0,
             uint64_t parent = 0)
      : tracer_(tracer), start_ns_(NowNs()) {
    if (tracer_ != nullptr) {
      span_.name = name;
      span_.layer = layer;
      span_.key = key;
      span_.parent = parent;
      span_.id = tracer_->NewId();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      span_.start_ns = start_ns_;
      span_.end_ns = NowNs();
      tracer_->Add(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  int64_t start_ns() const { return start_ns_; }

 private:
  Tracer* tracer_;
  int64_t start_ns_;
  Span span_;
};

// Self time of a span: its duration minus the part of it covered by the
// union of its children's intervals. Summed per layer, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" complete events), which Perfetto opens.
// `spans` must be ordered by start (Collect() order); at most `max_events`
// of the earliest are written, which keeps a busy run's file to tens of
// MB. Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events);

// --- Stage reconciliation ---------------------------------------------------
//
// A placed task's submit-to-placement time split into stages, derived from
// the spans of its submission, its admission callback, the round that
// placed it and its placement callback:
//   gen_late     due time -> send          ("gen.late", key = submission)
//   submit       the Submit call           ("service.submit", key = submission)
//   admit_wait   Submit return -> on_admitted ("cb.on_admitted", key = submission)
//   round_queue  on_admitted -> end of the round before the placing one
//   round        graph update + solve + apply child spans of the placing
//                round ("service.round", key = round number)
//   callback     end of the round's apply -> on_placed ("cb.on_placed", key = task)
// Whatever the stages leave of the measured latency is `unattributed`.
enum Stage : int { kGenLate, kSubmit, kAdmitWait, kRoundQueue, kRound, kCallback, kNumStages };
const char* StageName(int stage);

struct TaskLink {
  uint64_t task = 0;
  uint64_t submission = 0;
  int64_t round = -1;  // -1 = placed without a round (template install)
};

struct TaskStages {
  double latency_ms = 0;
  double stage_ms[kNumStages] = {};
  double Unattributed() const;
};

// Tasks whose spans are incomplete are skipped.
std::vector<TaskStages> DeriveTaskStages(const std::vector<Span>& spans,
                                         const std::vector<TaskLink>& links);

struct Reconciliation {
  double quantile = 0;
  size_t band = 0;  // tasks averaged
  double latency_ms = 0;
  double stage_ms[kNumStages] = {};
  double unattributed_ms = 0;
};

// Averages the stages of the tasks whose latency ranks within +-half_band
// of quantile q.
Reconciliation Reconcile(std::vector<TaskStages> tasks, double q, double half_band = 0.005);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
