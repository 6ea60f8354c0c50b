// Traced run of the repo benchmark: decorators around the library's public
// task, partitioner, context and collector interfaces that record where a
// job's time goes, layer by layer, from outside the library.
//
// Hot per-call boundaries (emit, partition, next, output, collect) are
// accumulated as count + duration per task instance; only task- and
// round-level intervals become spans. Everything is kept in memory and
// written once when the benchmark ends (Tracer::WriteChromeTrace).

#ifndef SPCUBE_PERFBENCH_TRACE_H_
#define SPCUBE_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/api.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Cheap monotonic tick counter for the per-call boundaries: the TSC on
/// x86-64 (a fraction of a clock_gettime call), nanoseconds elsewhere.
inline int64_t Ticks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}
/// Seconds per tick, calibrated against steady_clock on first use.
double SecondsPerTick();
inline double TickSeconds(int64_t ticks) {
  return static_cast<double>(ticks) * SecondsPerTick();
}
/// Process CPU seconds (user + sys, all threads).
double ProcessCpuSeconds();
/// Small dense id of the calling host thread (0 = first thread seen).
int HostThreadId();

/// Count and summed duration (in Ticks) of calls across one boundary.
struct CallStat {
  int64_t calls = 0;
  int64_t ticks = 0;
  void Add(int64_t start, int64_t end) {
    ++calls;
    ticks += end - start;
  }
  double seconds() const { return TickSeconds(ticks); }
};

/// Boundary costs of one Mapper or Reducer instance (one task attempt).
/// Written only by the host thread running the task.
struct TaskStats {
  bool is_map = true;
  int64_t job = 0;
  int round = 0;
  int machine = -1;    // TaskContext::worker_id
  int partition = -1;  // TaskContext::reduce_partition
  int thread = -1;
  int64_t start_ns = 0;  // Setup entry
  int64_t end_ns = 0;    // Finish exit
  CallStat setup;
  CallStat body;  // Map/Reduce calls
  CallStat finish;
  CallStat emit;
  int64_t finish_emits = 0;  // Emit calls made from Finish (skew partials)
  CallStat emit_to_partition;
  CallStat partition_calls;  // SketchRangePartitioner::Partition (in Emit)
  CallStat next;
  CallStat output;
};

/// A closed interval of one layer, for the timeline file.
struct Span {
  int64_t job = 0;
  int round = 0;
  int machine = -1;
  int thread = 0;
  int parent = -1;  // index into the span list, -1 for a job root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory recorder of spans and task stats. The calling thread opens
/// job/round/step spans; task decorators register their TaskStats from
/// pool threads (NewTask is the only call made concurrently).
class Tracer {
 public:
  /// Job and round that tasks created from now on belong to. Set by the
  /// calling thread between Engine::Run calls only.
  void BeginJob(int64_t job);
  void SetRound(int round) { round_ = round; }
  int64_t job() const { return job_; }

  /// Opens a span on the calling thread, child of `parent` (-1: root).
  int Open(const std::string& name, int parent, int machine = -1);
  void Close(int span);

  TaskStats* NewTask(bool is_map);

  /// Task stats of the current job.
  std::vector<const TaskStats*> JobTasks() const;

  /// Writes every span and task (as Chrome trace-event JSON, microseconds
  /// on a host wall axis) to `path`. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t job_ = 0;
  int round_ = 0;
  int64_t origin_ns_ = NowNs();
  std::vector<Span> spans_;
  mutable std::mutex mu_;
  std::deque<TaskStats> tasks_;  // guarded by mu_; deque keeps addresses
};

/// MapContext decorator: times Emit/EmitToPartition into the task's stats.
class TracingMapContext : public spcube::MapContext {
 public:
  explicit TracingMapContext(TaskStats* stats) : stats_(stats) {}
  void Bind(spcube::MapContext* inner) { inner_ = inner; }

  void IncrementCounter(const std::string& name, int64_t delta) override {
    inner_->IncrementCounter(name, delta);
  }
  spcube::Status Emit(std::string_view key, std::string_view value) override;
  spcube::Status EmitToPartition(int partition, std::string_view key,
                                 std::string_view value) override;

 private:
  TaskStats* stats_;
  spcube::MapContext* inner_ = nullptr;
};

class TracingMapper : public spcube::Mapper {
 public:
  TracingMapper(std::unique_ptr<spcube::Mapper> inner, Tracer* tracer)
      : inner_(std::move(inner)),
        stats_(tracer->NewTask(/*is_map=*/true)),
        context_(stats_) {}

  spcube::Status Setup(const spcube::TaskContext& task) override;
  spcube::Status Map(const spcube::RelationView& input, int64_t row,
                     spcube::MapContext& context) override;
  spcube::Status Finish(spcube::MapContext& context) override;

 private:
  std::unique_ptr<spcube::Mapper> inner_;
  TaskStats* stats_;
  TracingMapContext context_;
};

/// ValueStream decorator: times Next into the task's stats.
class TracingValueStream : public spcube::ValueStream {
 public:
  TracingValueStream(spcube::ValueStream* inner, TaskStats* stats)
      : inner_(inner), stats_(stats) {}
  spcube::Result<bool> Next(std::string* value) override;

 private:
  spcube::ValueStream* inner_;
  TaskStats* stats_;
};

/// ReduceContext decorator: times Output into the task's stats.
class TracingReduceContext : public spcube::ReduceContext {
 public:
  explicit TracingReduceContext(TaskStats* stats) : stats_(stats) {}
  void Bind(spcube::ReduceContext* inner) { inner_ = inner; }

  spcube::Status Output(std::string_view key, std::string_view value) override;
  void IncrementCounter(const std::string& name, int64_t delta) override {
    inner_->IncrementCounter(name, delta);
  }

 private:
  TaskStats* stats_;
  spcube::ReduceContext* inner_ = nullptr;
};

class TracingReducer : public spcube::Reducer {
 public:
  TracingReducer(std::unique_ptr<spcube::Reducer> inner, Tracer* tracer)
      : inner_(std::move(inner)),
        stats_(tracer->NewTask(/*is_map=*/false)),
        context_(stats_) {}

  spcube::Status Setup(const spcube::TaskContext& task) override;
  spcube::Status Reduce(const std::string& key, spcube::ValueStream& values,
                        spcube::ReduceContext& context) override;
  spcube::Status Finish(spcube::ReduceContext& context) override;

 private:
  std::unique_ptr<spcube::Reducer> inner_;
  TaskStats* stats_;
  TracingReduceContext context_;
};

/// Partitioner decorator; charges each call to the map task running on the
/// calling thread (the engine partitions inside MapContext::Emit).
class TracingPartitioner : public spcube::Partitioner {
 public:
  explicit TracingPartitioner(std::shared_ptr<const spcube::Partitioner> inner)
      : inner_(std::move(inner)) {}
  int Partition(std::string_view key, int num_reducers) const override;

 private:
  std::shared_ptr<const spcube::Partitioner> inner_;
};

/// OutputCollector decorator; thread-safe like the collectors it wraps.
class TracingCollector : public spcube::OutputCollector {
 public:
  explicit TracingCollector(spcube::OutputCollector* inner) : inner_(inner) {}
  spcube::Status Collect(int reducer_id, std::string_view key,
                         std::string_view value) override;
  double seconds() const { return TickSeconds(ticks_.load()); }

 private:
  spcube::OutputCollector* inner_;
  std::atomic<int64_t> ticks_{0};
};

}  // namespace perfbench

#endif  // SPCUBE_PERFBENCH_TRACE_H_
