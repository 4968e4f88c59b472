#include "src/tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::atomic<uint64_t> Tracer::next_generation_{1};

Tracer::Buffer* Tracer::LocalBuffer() {
  // One cached buffer per thread; the generation tag keeps a thread from
  // reusing a buffer that belonged to an earlier tracer.
  thread_local uint64_t cached_generation = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    cached = buffers_.back().get();
    cached->thread = static_cast<uint32_t>(buffers_.size());
    cached_generation = generation_;
  }
  return cached;
}

uint64_t Tracer::Add(Span span) {
  Buffer* buffer = LocalBuffer();
  if (span.id == 0) {
    span.id = NewId();
  }
  span.thread = buffer->thread;
  buffer->spans.push_back(span);
  return span.id;
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, int64_t> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    self[span.layer] += std::max<int64_t>(0, span.end_ns - span.start_ns - covered);
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::min(spans.size(), max_events);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"key\": %" PRIu64 "}}%s\n",
                 s.name, s.layer, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread, s.id, s.parent,
                 s.key, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

const char* StageName(int stage) {
  static const char* const kNames[kNumStages] = {"gen_late",    "submit", "admit_wait",
                                                 "round_queue", "round",  "callback"};
  return kNames[stage];
}

double TaskStages::Unattributed() const {
  double sum = 0;
  for (double ms : stage_ms) {
    sum += ms;
  }
  return latency_ms - sum;
}

namespace {

using SpanIndex = std::unordered_map<uint64_t, const Span*>;

const Span* Find(const SpanIndex& index, uint64_t key) {
  auto it = index.find(key);
  return it == index.end() ? nullptr : it->second;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::vector<TaskStages> DeriveTaskStages(const std::vector<Span>& spans,
                                         const std::vector<TaskLink>& links) {
  SpanIndex late, submit, admitted, placed, rounds;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name == "gen.late") late[span.key] = &span;
    else if (name == "service.submit") submit[span.key] = &span;
    else if (name == "cb.on_admitted") admitted[span.key] = &span;
    else if (name == "cb.on_placed") placed.emplace(span.key, &span);  // first placement
    else if (name == "service.round") rounds[span.key] = &span;
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::vector<TaskStages> out;
  out.reserve(links.size());
  for (const TaskLink& link : links) {
    const Span* l = Find(late, link.submission);
    const Span* s = Find(submit, link.submission);
    const Span* a = Find(admitted, link.submission);
    const Span* p = Find(placed, link.task);
    if (l == nullptr || s == nullptr || a == nullptr || p == nullptr) {
      continue;
    }
    TaskStages t;
    t.latency_ms = Ms(p->start_ns - l->start_ns);
    t.stage_ms[kGenLate] = Ms(l->end_ns - l->start_ns);
    t.stage_ms[kSubmit] = Ms(s->end_ns - s->start_ns);
    t.stage_ms[kAdmitWait] = Ms(a->end_ns - s->end_ns);
    int64_t work_end = a->end_ns;  // template installs place at admission
    if (link.round >= 0) {
      const Span* r = Find(rounds, static_cast<uint64_t>(link.round));
      if (r == nullptr) {
        continue;
      }
      const Span* prev = link.round > 0 ? Find(rounds, static_cast<uint64_t>(link.round - 1))
                                        : nullptr;
      if (prev != nullptr) {
        t.stage_ms[kRoundQueue] = Ms(std::max<int64_t>(0, prev->end_ns - a->end_ns));
      }
      int64_t round_ns = 0;
      work_end = r->start_ns;
      for (const Span* child : children[r->id]) {
        const std::string layer = child->layer;
        if (layer == "graph" || layer == "solver" || layer == "round") {
          round_ns += child->end_ns - child->start_ns;
          work_end = std::max(work_end, child->end_ns);
        }
      }
      t.stage_ms[kRound] = Ms(round_ns);
    }
    t.stage_ms[kCallback] = Ms(std::max<int64_t>(0, p->start_ns - work_end));
    out.push_back(t);
  }
  return out;
}

Reconciliation Reconcile(std::vector<TaskStages> tasks, double q, double half_band) {
  Reconciliation r;
  r.quantile = q;
  if (tasks.empty()) {
    return r;
  }
  std::sort(tasks.begin(), tasks.end(), [](const TaskStages& a, const TaskStages& b) {
    return a.latency_ms < b.latency_ms;
  });
  const double n = static_cast<double>(tasks.size());
  size_t lo = static_cast<size_t>(std::max(0.0, (q - half_band) * n));
  size_t hi = static_cast<size_t>(std::min(n, (q + half_band) * n));
  lo = std::min(lo, tasks.size() - 1);
  hi = std::max(hi, lo + 1);
  for (size_t i = lo; i < hi; ++i) {
    r.latency_ms += tasks[i].latency_ms;
    for (int s = 0; s < kNumStages; ++s) {
      r.stage_ms[s] += tasks[i].stage_ms[s];
    }
  }
  r.band = hi - lo;
  const double band = static_cast<double>(r.band);
  r.latency_ms /= band;
  double staged = 0;
  for (double& ms : r.stage_ms) {
    ms /= band;
    staged += ms;
  }
  r.unattributed_ms = r.latency_ms - staged;
  return r;
}

}  // namespace perfbench
