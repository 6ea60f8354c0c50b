#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

using spcube::Result;
using spcube::Status;

// The map task running on this thread; the engine calls the partitioner
// from inside MapContext::Emit, on the task's own thread.
thread_local TaskStats* tl_map_task = nullptr;

std::atomic<int> next_thread_id{0};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsPerTick() {
  static const double kSecondsPerTick = [] {
    const int64_t ns0 = NowNs();
    const int64_t t0 = Ticks();
    timespec nap{0, 20000000};  // 20 ms
    nanosleep(&nap, nullptr);
    const int64_t ns1 = NowNs();
    const int64_t t1 = Ticks();
    return t1 > t0 ? 1e-9 * static_cast<double>(ns1 - ns0) /
                         static_cast<double>(t1 - t0)
                   : 1e-9;
  }();
  return kSecondsPerTick;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int HostThreadId() {
  thread_local const int id = next_thread_id.fetch_add(1);
  return id;
}

void Tracer::BeginJob(int64_t job) {
  job_ = job;
  round_ = 0;
}

int Tracer::Open(const std::string& name, int parent, int machine) {
  Span span;
  span.job = job_;
  span.round = round_;
  span.machine = machine;
  span.thread = HostThreadId();
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

TaskStats* Tracer::NewTask(bool is_map) {
  std::lock_guard<std::mutex> lock(mu_);
  TaskStats& stats = tasks_.emplace_back();
  stats.is_map = is_map;
  stats.job = job_;
  stats.round = round_;
  return &stats;
}

std::vector<const TaskStats*> Tracer::JobTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const TaskStats*> out;
  for (const TaskStats& stats : tasks_) {
    if (stats.job == job_) out.push_back(&stats);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [this](int64_t ns) {
    return static_cast<double>(ns - origin_ns_) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"job\": %lld, \"round\": %d, "
                 "\"machine\": %d}}",
                 first ? "" : ",\n", s.name.c_str(), s.thread, us(s.start_ns),
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.job), s.round, s.machine);
    first = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const TaskStats& t : tasks_) {
    auto stat = [](const char* name, const CallStat& c) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", \"%s_calls\": %lld, \"%s_us\": %.1f",
                    name, static_cast<long long>(c.calls), name,
                    1e6 * c.seconds());
      return std::string(buf);
    };
    const std::string args = stat("setup", t.setup) + stat("body", t.body) +
                             stat("finish", t.finish) +
                             stat("emit", t.emit) +
                             stat("emit_to_partition", t.emit_to_partition) +
                             stat("partition", t.partition_calls) +
                             stat("next", t.next) + stat("output", t.output);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"job\": %lld, "
                 "\"round\": %d, \"machine\": %d, \"partition\": %d%s}}",
                 first ? "" : ",\n", t.is_map ? "map.task" : "reduce.task",
                 t.thread, us(t.start_ns),
                 static_cast<double>(t.end_ns - t.start_ns) / 1e3,
                 static_cast<long long>(t.job), t.round, t.machine,
                 t.partition, args.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Status TracingMapContext::Emit(std::string_view key, std::string_view value) {
  const int64_t start = Ticks();
  Status status = inner_->Emit(key, value);
  stats_->emit.Add(start, Ticks());
  return status;
}

Status TracingMapContext::EmitToPartition(int partition, std::string_view key,
                                          std::string_view value) {
  const int64_t start = Ticks();
  Status status = inner_->EmitToPartition(partition, key, value);
  stats_->emit_to_partition.Add(start, Ticks());
  return status;
}

Status TracingMapper::Setup(const spcube::TaskContext& task) {
  stats_->thread = HostThreadId();
  stats_->machine = task.worker_id;
  stats_->partition = task.reduce_partition;
  stats_->start_ns = NowNs();
  const int64_t start = Ticks();
  Status status = inner_->Setup(task);
  stats_->setup.Add(start, Ticks());
  return status;
}

Status TracingMapper::Map(const spcube::RelationView& input, int64_t row,
                          spcube::MapContext& context) {
  context_.Bind(&context);
  tl_map_task = stats_;
  const int64_t start = Ticks();
  Status status = inner_->Map(input, row, context_);
  stats_->body.Add(start, Ticks());
  return status;
}

Status TracingMapper::Finish(spcube::MapContext& context) {
  context_.Bind(&context);
  tl_map_task = stats_;
  const int64_t emits_before = stats_->emit.calls;
  const int64_t start = Ticks();
  Status status = inner_->Finish(context_);
  stats_->finish.Add(start, Ticks());
  stats_->end_ns = NowNs();
  stats_->finish_emits = stats_->emit.calls - emits_before;
  tl_map_task = nullptr;
  return status;
}

Result<bool> TracingValueStream::Next(std::string* value) {
  const int64_t start = Ticks();
  Result<bool> more = inner_->Next(value);
  stats_->next.Add(start, Ticks());
  return more;
}

Status TracingReduceContext::Output(std::string_view key,
                                    std::string_view value) {
  const int64_t start = Ticks();
  Status status = inner_->Output(key, value);
  stats_->output.Add(start, Ticks());
  return status;
}

Status TracingReducer::Setup(const spcube::TaskContext& task) {
  stats_->thread = HostThreadId();
  stats_->machine = task.worker_id;
  stats_->partition = task.reduce_partition;
  stats_->start_ns = NowNs();
  const int64_t start = Ticks();
  Status status = inner_->Setup(task);
  stats_->setup.Add(start, Ticks());
  return status;
}

Status TracingReducer::Reduce(const std::string& key,
                              spcube::ValueStream& values,
                              spcube::ReduceContext& context) {
  TracingValueStream traced_values(&values, stats_);
  context_.Bind(&context);
  const int64_t start = Ticks();
  Status status = inner_->Reduce(key, traced_values, context_);
  stats_->body.Add(start, Ticks());
  return status;
}

Status TracingReducer::Finish(spcube::ReduceContext& context) {
  context_.Bind(&context);
  const int64_t start = Ticks();
  Status status = inner_->Finish(context_);
  stats_->finish.Add(start, Ticks());
  stats_->end_ns = NowNs();
  return status;
}

int TracingPartitioner::Partition(std::string_view key,
                                  int num_reducers) const {
  const int64_t start = Ticks();
  const int partition = inner_->Partition(key, num_reducers);
  if (tl_map_task != nullptr) tl_map_task->partition_calls.Add(start, Ticks());
  return partition;
}

Status TracingCollector::Collect(int reducer_id, std::string_view key,
                                 std::string_view value) {
  const int64_t start = Ticks();
  Status status = inner_->Collect(reducer_id, key, value);
  ticks_.fetch_add(Ticks() - start, std::memory_order_relaxed);
  return status;
}

}  // namespace perfbench
