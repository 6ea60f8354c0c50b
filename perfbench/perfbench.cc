// The repo benchmark's measuring program. perfbench/run.py builds it, runs
// it once in --mode=verify and once in --mode=time (end-to-end metrics) or
// --mode=trace (per-layer metrics), and turns the raw samples it prints into
// the benchmark's metrics. Every mode prints human-readable lines followed
// by one JSON object on the last line of stdout.
//
//   spcube_perfbench --mode=verify|time|trace --workload=<name> --seed=<n>
//                    [--seconds=<s>] [--expect=<counters>]
//                    [--trace-out=<path>]
//
// The library is driven through its public API only: CubeAlgorithm::Run,
// Engine::Run, and the public task, partitioner, context and collector
// classes. Inputs are generated here from --seed; the library receives
// only the generated Relation.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "bench_util.h"
#include "common/task_pool.h"
#include "core/cube_output.h"
#include "core/sp_cube.h"
#include "relation/generators.h"
#include "sketch/builder.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using spcube::AggregateKind;
using spcube::CubeAlgorithm;
using spcube::CubeResult;
using spcube::CubeRunOptions;
using spcube::CubeRunOutput;
using spcube::DistributedFileSystem;
using spcube::Engine;
using spcube::EngineConfig;
using spcube::JobMetrics;
using spcube::JobSpec;
using spcube::Relation;
using spcube::Result;
using spcube::RunMetrics;
using spcube::Status;

constexpr int kClusterMachines = 16;  // k, the figure benches' setting
// Pool threads of the threaded workload. On a shared 4-vCPU host, medians
// of the same job spread 20-30% between runs on 4 threads (the pool's idle
// threads spin on sched_yield), 7-16% on 2 threads and 2-5% serially.
constexpr int kPoolThreads = 2;
constexpr char kCubeRoot[] = "perfbench/cube";
// Set-up is repeated at least kSetupRepeats times and for at least
// kSetupSeconds (cheap set-ups get more repeats), at most kSetupMaxRepeats.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.25;
constexpr int kSetupMaxRepeats = 100;
// Tolerance of the traced run's self-time sum check on serial workloads.
constexpr double kSelfSumTolerance = 0.05;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool wiki = false;  // GenWikiLike, else GenZipfPaper
  int64_t rows = 0;
  // Relations generated per run (from --seed); jobs cycle through them, so
  // one run's medians average over several inputs of the same shape.
  int inputs = 1;
  bool threaded = false;  // kPoolThreads (at most nproc), else serial
  bool collect = false;   // CubeResult sink (collect_output)
  bool dfs_sink = false;  // DFS part files (dfs_output_root)
  std::vector<std::string> algorithms;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"zipf-spill", false, 50000, 4, false, false, false, {"sp-cube"}},
      {"wiki-sinks", true, 8000, 8, false, true, true, {"sp-cube"}},
      {"baselines-zipf", false, 5000, 4, true, false, false,
       {"hive", "mr-cube", "naive"}},
  };
  return kWorkloads;
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return spcube::TaskPool::HostThreads();
}

int PoolThreads(const Workload& w) {
  return w.threaded ? std::min(kPoolThreads, HostCpus()) : 1;
}

std::unique_ptr<CubeAlgorithm> MakeAlgorithm(const std::string& name) {
  if (name == "sp-cube") return std::make_unique<spcube::SpCubeAlgorithm>();
  if (name == "hive") return std::make_unique<spcube::HiveCubeAlgorithm>();
  if (name == "mr-cube") return std::make_unique<spcube::MrCubeAlgorithm>();
  return std::make_unique<spcube::NaiveCubeAlgorithm>();
}

/// Input relations, the engine and its DFS (shared by the workload's
/// algorithms; the DFS is cleared between jobs), and the algorithms.
struct Setup {
  std::vector<std::unique_ptr<Relation>> inputs;
  std::unique_ptr<DistributedFileSystem> dfs;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<CubeAlgorithm>> algorithms;
  double gen_s = 0;    // input generation
  double total_s = 0;  // generation + engine/DFS construction
};

Setup MakeSetup(const Workload& w, uint64_t seed) {
  Setup s;
  const int64_t t0 = NowNs();
  for (int i = 0; i < w.inputs; ++i) {
    const uint64_t input_seed = seed * 16 + static_cast<uint64_t>(i);
    s.inputs.push_back(std::make_unique<Relation>(
        w.wiki ? spcube::GenWikiLike(w.rows, input_seed)
               : spcube::GenZipfPaper(w.rows, input_seed)));
  }
  s.gen_s = 1e-9 * static_cast<double>(NowNs() - t0);
  const Relation& first = *s.inputs.front();
  EngineConfig config = spcube::bench::MakeClusterConfig(
      first.num_rows(), first.num_dims(), kClusterMachines);
  config.host_threads = PoolThreads(w);
  s.dfs = std::make_unique<DistributedFileSystem>();
  s.engine = std::make_unique<Engine>(config, s.dfs.get());
  for (const std::string& name : w.algorithms) {
    s.algorithms.push_back(MakeAlgorithm(name));
  }
  s.total_s = 1e-9 * static_cast<double>(NowNs() - t0);
  return s;
}

/// Builds the set-up repeatedly (see kSetupRepeats); keeps the last one.
Setup RepeatSetup(const Workload& w, uint64_t seed, std::vector<double>* total_s,
                  std::vector<double>* gen_s) {
  Setup s;
  const int64_t start = NowNs();
  for (int i = 0; i < kSetupMaxRepeats; ++i) {
    if (i >= kSetupRepeats && NowNs() - start >= kSetupSeconds * 1e9) break;
    s = Setup();  // release the previous input before building the next
    s = MakeSetup(w, seed);
    total_s->push_back(s.total_s);
    gen_s->push_back(s.gen_s);
  }
  return s;
}

CubeRunOptions JobOptions(const Workload& w, bool collect) {
  CubeRunOptions options;
  options.aggregate = AggregateKind::kCount;
  options.collect_output = collect;
  if (w.dfs_sink) options.dfs_output_root = kCubeRoot;
  return options;
}

// ---------------------------------------------------------------------------
// Exact counters every job of a workload must reproduce

struct Counters {
  int64_t output_records = 0;
  int64_t shuffle_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t dfs_bytes = 0;

  std::string ToString() const {
    return std::to_string(output_records) + ":" + std::to_string(shuffle_bytes) +
           ":" + std::to_string(spill_bytes) + ":" + std::to_string(dfs_bytes);
  }
  bool operator==(const Counters&) const = default;
};

Counters CountersOf(const RunMetrics& metrics, const DistributedFileSystem& dfs,
                    const Workload& w) {
  Counters c;
  c.output_records = metrics.OutputRecords();
  c.shuffle_bytes = metrics.ShuffleBytes();
  c.spill_bytes = metrics.SpillBytes();
  c.dfs_bytes = w.dfs_sink ? dfs.TotalBytes(kCubeRoot) : 0;
  return c;
}

/// --expect: one "<out>:<shuffle>:<spill>:<dfs>" entry per (input,
/// algorithm), comma-separated, input-major in workload order.
std::vector<Counters> ParseExpect(const std::string& text) {
  std::vector<Counters> out;
  std::stringstream entries(text);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    Counters c;
    long long a = 0, b = 0, d = 0, e = 0;
    if (std::sscanf(entry.c_str(), "%lld:%lld:%lld:%lld", &a, &b, &d, &e) == 4) {
      c = {a, b, d, e};
    }
    out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// One untraced algorithm run

struct AlgoRun {
  Status status;
  double wall_s = 0;
  double cpu_s = 0;
  RunMetrics metrics;
  Counters counters;
  std::unique_ptr<CubeResult> cube;
};

AlgoRun RunAlgorithm(Setup& s, size_t input, size_t a, const Workload& w,
                     bool collect) {
  AlgoRun run;
  const CubeRunOptions options = JobOptions(w, collect);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  Result<CubeRunOutput> out =
      s.algorithms[a]->Run(*s.engine, *s.inputs[input], options);
  run.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!out.ok()) {
    run.status = out.status();
    return run;
  }
  run.metrics = std::move(out->metrics);
  run.cube = std::move(out->cube);
  run.counters = CountersOf(run.metrics, *s.dfs, w);
  return run;
}

/// Clears everything a job left in the DFS (untimed, between jobs).
void ResetDfs(Setup& s) { s.dfs->DeletePrefix(""); }

double MaxImbalance(const RunMetrics& metrics) {
  double worst = 0;
  for (const JobMetrics& round : metrics.rounds) {
    worst = std::max(worst, round.ReducerImbalance());
  }
  return worst;
}

// ---------------------------------------------------------------------------
// SP-Cube composed from its public classes, with tracing decorators around
// its tasks, partitioner and DFS sink. Follows the steps of
// src/core/sp_cube.cc (SpCubeAlgorithm::Run with default SpCubeOptions);
// CheckFidelity verifies that it reproduces the algorithm exactly.

struct ComposedRun {
  Status status;
  CubeRunOutput output;
  int64_t sketch_bytes = 0;
  int64_t sketch_skews = 0;
  // Host-side intervals of the job (seconds).
  double wall_s = 0;
  double sketch_round_s = 0;
  double cube_round_s = 0;
  double cube_round_cpu_s = 0;
  double rounds_cpu_s = 0;  // process CPU inside both Engine::Run calls
  double collect_s = 0;
  double dfs_collect_s = 0;
};

ComposedRun RunSpCubeComposed(Engine& engine, const Relation& input,
                              const CubeRunOptions& options,
                              const std::string& sketch_path, Tracer& tracer) {
  ComposedRun run;
  const int64_t job_start = NowNs();
  const int job_span = tracer.Open("job", -1);
  const int k = engine.config().num_workers;
  const int d = input.num_dims();
  const int64_t n = input.num_rows();
  auto fail = [&](Status status) {
    run.status = std::move(status);
    tracer.Close(job_span);
    return std::move(run);
  };

  // Round 1: Bernoulli sample -> SP-Sketch published to the DFS.
  spcube::SketchBuildConfig config;
  config.num_partitions = k;
  config.memory_tuples_m = std::max<int64_t>(1, n / k);
  const double alpha = config.SampleAlpha(n);
  {
    JobSpec spec;
    spec.name = "spcube-sketch";
    spec.num_reducers = 1;
    spec.mapper_factory = [alpha, seed = config.seed]() {
      return std::make_unique<spcube::SketchSampleMapper>(alpha, seed);
    };
    spec.reducer_factory = [d, n, config, sketch_path]() {
      return std::make_unique<spcube::SketchBuildReducer>(d, n, config,
                                                          sketch_path);
    };
    spcube::NullOutputCollector stats_sink;
    tracer.SetRound(1);
    const int span = tracer.Open("sketch.round", job_span);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    Result<JobMetrics> round = engine.Run(spec, input, &stats_sink);
    run.sketch_round_s = 1e-9 * static_cast<double>(NowNs() - t0);
    run.rounds_cpu_s += ProcessCpuSeconds() - cpu0;
    tracer.Close(span);
    if (!round.ok()) return fail(round.status());
    run.output.metrics.Add(std::move(round).value());

    bool degraded = false;
    auto sketch = spcube::LoadSketchOrDegrade(engine.dfs(), sketch_path, d, k,
                                              &degraded);
    if (!sketch.ok()) return fail(sketch.status());
    run.sketch_bytes = degraded ? 0 : (*sketch)->SerializedByteSize();
    run.sketch_skews = degraded ? 0 : (*sketch)->TotalSkewedGroups();
  }

  // Round 2: the cube round.
  bool degraded = false;
  auto loaded =
      spcube::LoadSketchOrDegrade(engine.dfs(), sketch_path, d, k, &degraded);
  if (!loaded.ok()) return fail(loaded.status());
  std::shared_ptr<const spcube::SpSketch> sketch(std::move(loaded).value());
  run.output.metrics.algorithm = "sp-cube";

  spcube::VectorOutputCollector cube_collector;
  spcube::NullOutputCollector null_collector;
  std::unique_ptr<spcube::DfsCubeWriter> dfs_writer;
  std::unique_ptr<TracingCollector> traced_dfs;
  std::unique_ptr<spcube::TeeOutputCollector> tee;
  {
    JobSpec spec;
    spec.name = "spcube-cube";
    spec.num_reducers = k + 1;
    std::shared_ptr<const spcube::Partitioner> partitioner;
    if (!degraded) {
      partitioner = std::make_shared<spcube::SketchRangePartitioner>(sketch);
    } else {
      partitioner = std::make_shared<spcube::SkewAwareHashPartitioner>(sketch);
    }
    spec.partitioner = std::make_shared<TracingPartitioner>(partitioner);
    const spcube::SpCubeTuning tuning;
    const AggregateKind aggregate = options.aggregate;
    const int64_t min_count = options.iceberg_min_count;
    Tracer* traced = &tracer;
    spec.mapper_factory = [sketch_path, d, aggregate, tuning, traced]() {
      return std::make_unique<TracingMapper>(
          std::make_unique<spcube::SpCubeMapper>(sketch_path, d, aggregate,
                                                 tuning),
          traced);
    };
    spec.reducer_factory = [sketch_path, d, aggregate, tuning, min_count,
                            traced]() {
      return std::make_unique<TracingReducer>(
          std::make_unique<spcube::SpCubeReducer>(sketch_path, d, aggregate,
                                                  tuning, min_count),
          traced);
    };
    spcube::OutputCollector* sink =
        options.collect_output
            ? static_cast<spcube::OutputCollector*>(&cube_collector)
            : static_cast<spcube::OutputCollector*>(&null_collector);
    if (!options.dfs_output_root.empty()) {
      dfs_writer = std::make_unique<spcube::DfsCubeWriter>(
          engine.dfs(), options.dfs_output_root);
      traced_dfs = std::make_unique<TracingCollector>(dfs_writer.get());
      tee = std::make_unique<spcube::TeeOutputCollector>(sink,
                                                         traced_dfs.get());
      sink = tee.get();
    }
    tracer.SetRound(2);
    const int span = tracer.Open("cube.round", job_span);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    Result<JobMetrics> round = engine.Run(spec, input, sink);
    run.cube_round_s = 1e-9 * static_cast<double>(NowNs() - t0);
    run.cube_round_cpu_s = ProcessCpuSeconds() - cpu0;
    run.rounds_cpu_s += run.cube_round_cpu_s;
    tracer.Close(span);
    if (!round.ok()) return fail(round.status());
    run.output.metrics.Add(std::move(round).value());
  }
  if (traced_dfs) run.dfs_collect_s = traced_dfs->seconds();

  if (options.collect_output) {
    const int span = tracer.Open("core.collect", job_span);
    const int64_t t0 = NowNs();
    Result<CubeResult> cube = spcube::CollectCube(cube_collector, d);
    run.collect_s = 1e-9 * static_cast<double>(NowNs() - t0);
    tracer.Close(span);
    if (!cube.ok()) return fail(cube.status());
    run.output.cube = std::make_unique<CubeResult>(std::move(cube).value());
  }
  run.wall_s = 1e-9 * static_cast<double>(NowNs() - job_start);
  tracer.Close(job_span);
  return run;
}

/// Compares every deterministic counter of two runs (measured busy times
/// are host clock readings and excluded). Empty when equal.
std::string DiffDeterministic(const RunMetrics& a, const RunMetrics& b) {
  if (a.algorithm != b.algorithm) return "algorithm name";
  if (a.rounds.size() != b.rounds.size()) return "round count";
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    const JobMetrics& x = a.rounds[i];
    const JobMetrics& y = b.rounds[i];
    const std::string at = " (round " + std::to_string(i) + ")";
#define PERFBENCH_SAME(field) \
  if (!(x.field == y.field)) return #field + at;
    PERFBENCH_SAME(job_name)
    PERFBENCH_SAME(map_input_records)
    PERFBENCH_SAME(map_output_records)
    PERFBENCH_SAME(map_output_bytes)
    PERFBENCH_SAME(shuffle_records)
    PERFBENCH_SAME(shuffle_bytes)
    PERFBENCH_SAME(combine_input_records)
    PERFBENCH_SAME(combine_output_records)
    PERFBENCH_SAME(spill_bytes)
    PERFBENCH_SAME(spill_bytes_uncompressed)
    PERFBENCH_SAME(shuffle_bytes_compressed)
    PERFBENCH_SAME(shuffle_bytes_uncompressed)
    PERFBENCH_SAME(reducer_input_records)
    PERFBENCH_SAME(reducer_input_bytes)
    PERFBENCH_SAME(reducer_wire_bytes)
    PERFBENCH_SAME(reducer_output_records)
    PERFBENCH_SAME(output_records)
    PERFBENCH_SAME(task_retries)
    PERFBENCH_SAME(tasks_reexecuted_after_crash)
    PERFBENCH_SAME(workers_crashed)
    PERFBENCH_SAME(tasks_speculatively_reexecuted)
    PERFBENCH_SAME(shuffle_checksum_mismatches)
    PERFBENCH_SAME(fault_recovery_seconds)
    PERFBENCH_SAME(reduce_partitions_split)
    PERFBENCH_SAME(recovery_rounds)
    PERFBENCH_SAME(recovery_bytes_reshuffled)
    PERFBENCH_SAME(recovery_seconds)
    PERFBENCH_SAME(reducer_imbalance_alerts)
    PERFBENCH_SAME(custom_counters)
    PERFBENCH_SAME(shuffle_seconds)
    PERFBENCH_SAME(round_overhead_seconds)
#undef PERFBENCH_SAME
    if (x.map_phase.per_worker_seconds.size() !=
            y.map_phase.per_worker_seconds.size() ||
        x.reduce_phase.per_worker_seconds.size() !=
            y.reduce_phase.per_worker_seconds.size()) {
      return "phase worker count" + at;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced job

using LayerMetrics = std::map<std::string, double>;

/// Fields read from the returned JobMetrics, summed over the job's runs.
void AddJobMetricLayers(const RunMetrics& m, LayerMetrics* out) {
  LayerMetrics& l = *out;
  for (const JobMetrics& round : m.rounds) {
    l["mapreduce.map_busy_max_s"] += round.map_phase.MaxSeconds();
    l["mapreduce.reduce_busy_max_s"] += round.reduce_phase.MaxSeconds();
    l["mapreduce.map_busy_sum_s"] += round.map_phase.SumSeconds();
    l["mapreduce.reduce_busy_sum_s"] += round.reduce_phase.SumSeconds();
    l["mapreduce.shuffle_modeled_s"] += round.shuffle_seconds;
    l["mapreduce.map_output_records"] +=
        static_cast<double>(round.map_output_records);
    l["combine_in"] += static_cast<double>(round.combine_input_records);
    l["combine_out"] += static_cast<double>(round.combine_output_records);
    l["io.spill_bytes"] += static_cast<double>(round.spill_bytes);
    l["shuffle_bytes"] += static_cast<double>(round.shuffle_bytes);
  }
}

/// Turns the summed helper fields into ratios and drops the helpers.
void FinishLayers(LayerMetrics* out) {
  LayerMetrics& l = *out;
  l["mapreduce.combine_ratio"] =
      l["combine_in"] > 0 ? l["combine_out"] / l["combine_in"] : 1.0;
  l["io.spill_per_shuffle_byte"] =
      l["shuffle_bytes"] > 0 ? l["io.spill_bytes"] / l["shuffle_bytes"] : 0.0;
  l.erase("combine_in");
  l.erase("combine_out");
  l.erase("shuffle_bytes");
}

LayerMetrics SpCubeLayers(const ComposedRun& run, const Tracer& tracer,
                          const Workload& w, int threads,
                          const DistributedFileSystem& dfs) {
  LayerMetrics l;
  double children_s = 0;  // task-level time inside the cube round
  double map_body = 0, emit = 0, partition = 0, setup = 0;
  double reduce_body = 0, next = 0, output = 0;
  int64_t emits = 0, skew_partials = 0, partition_calls = 0, groups = 0;
  int64_t next_calls = 0, output_calls = 0;
  for (const TaskStats* t : tracer.JobTasks()) {
    if (t->round != 2) continue;
    setup += t->setup.seconds();
    children_s += t->setup.seconds() + t->body.seconds() + t->finish.seconds();
    if (t->is_map) {
      map_body += t->body.seconds() + t->finish.seconds();
      emit += t->emit.seconds() + t->emit_to_partition.seconds();
      partition += t->partition_calls.seconds();
      emits += t->emit.calls - t->finish_emits;
      skew_partials += t->finish_emits + t->emit_to_partition.calls;
      partition_calls += t->partition_calls.calls;
    } else {
      reduce_body += t->body.seconds() + t->finish.seconds();
      next += t->next.seconds();
      output += t->output.seconds();
      groups += t->body.calls;
      next_calls += t->next.calls;
      output_calls += t->output.calls;
    }
  }
  children_s += run.dfs_collect_s;
  l["sketch.round_s"] = run.sketch_round_s;
  l["sketch.bytes"] = static_cast<double>(run.sketch_bytes);
  l["sketch.skewed_groups"] = static_cast<double>(run.sketch_skews);
  l["core.map_self_s"] = map_body - emit;
  l["core.emits"] = static_cast<double>(emits);
  l["core.skew_partials"] = static_cast<double>(skew_partials);
  l["core.partition_s"] = partition;
  l["core.partition_calls"] = static_cast<double>(partition_calls);
  l["core.task_setup_s"] = setup;
  l["core.reduce_self_s"] = reduce_body - next - output;
  l["core.reduce_groups"] = static_cast<double>(groups);
  l["core.collect_s"] = run.collect_s;
  l["mapreduce.emit_s"] = emit - partition;
  l["mapreduce.emit_calls"] = static_cast<double>(emits + skew_partials);
  l["mapreduce.next_s"] = next;
  l["mapreduce.next_calls"] = static_cast<double>(next_calls);
  l["mapreduce.output_s"] = output;
  l["mapreduce.output_calls"] = static_cast<double>(output_calls);
  // Serial: the cube round's wall not covered by task-level spans. Threaded:
  // its process CPU not covered by them (children are on-CPU task time).
  l["mapreduce.engine_self_s"] =
      (threads > 1 ? run.cube_round_cpu_s : run.cube_round_s) - children_s;
  l["io.dfs_write_s"] = run.dfs_collect_s;
  l["io.dfs_stored_bytes"] =
      w.dfs_sink ? static_cast<double>(dfs.TotalBytes(kCubeRoot)) : 0.0;
  l["common.pool_busy_frac"] =
      run.rounds_cpu_s / ((run.sketch_round_s + run.cube_round_s) *
                          static_cast<double>(threads));
  AddJobMetricLayers(run.output.metrics, &l);
  FinishLayers(&l);
  // Self-time sum over every layer, for the serial sum check. Since
  // engine_self_s is the cube round's residual, the check bounds what no
  // span covers: the composition's own steps between rounds (sketch loads,
  // partitioner set-up).
  l["self_sum_s"] = l["sketch.round_s"] + l["core.task_setup_s"] +
                    l["core.map_self_s"] + l["mapreduce.emit_s"] +
                    l["core.partition_s"] + l["core.reduce_self_s"] +
                    l["mapreduce.next_s"] + l["mapreduce.output_s"] +
                    l["io.dfs_write_s"] + l["mapreduce.engine_self_s"] +
                    l["core.collect_s"];
  return l;
}

// ---------------------------------------------------------------------------
// Output helpers

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string Object(const LayerMetrics& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    out += (first ? "" : ", ") + Quote(key) + ": " + Num(value);
    first = false;
  }
  return out + "}";
}

const char* FsTypeName(int64_t magic) {
  switch (magic) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: return "other";
  }
}

/// Host context recorded with every result.
std::string HostJson(const Workload& w) {
  std::error_code ec;
  const std::string tmp = std::filesystem::temp_directory_path(ec).string();
  struct statfs fs{};
  const bool have_fs = statfs(tmp.c_str(), &fs) == 0;
  char magic[32];
  std::snprintf(magic, sizeof(magic), "0x%llx",
                have_fs ? static_cast<unsigned long long>(fs.f_type) : 0ull);
  return std::string("{\"nproc\": ") + std::to_string(HostCpus()) +
         ", \"pool_threads\": " + std::to_string(PoolThreads(w)) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"spill_dir\": " + Quote(tmp) + ", \"spill_fs\": " +
         Quote(have_fs ? FsTypeName(static_cast<int64_t>(fs.f_type)) : "?") +
         ", \"spill_fs_magic\": " + Quote(magic) +
         ", \"rows\": " + std::to_string(w.rows) +
         ", \"inputs\": " + std::to_string(w.inputs) + "}";
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string expect;
  std::string trace_out;
};

/// Runs one verification job per (input, algorithm): its cube must equal
/// ComputeCubeReference exactly (and, with a DFS sink, so must the cube
/// read back from the DFS). Prints the counters later jobs must reproduce.
int Verify(const Workload& w, const Args& args) {
  Setup s = MakeSetup(w, args.seed);
  std::string expect;
  std::string error;
  int jobs = 0;
  for (size_t i = 0; i < s.inputs.size() && error.empty(); ++i) {
    const Relation& input = *s.inputs[i];
    const CubeResult reference =
        spcube::ComputeCubeReference(input, AggregateKind::kCount);
    for (size_t a = 0; a < w.algorithms.size() && error.empty(); ++a) {
      AlgoRun run = RunAlgorithm(s, i, a, w, /*collect=*/true);
      ++jobs;
      const std::string who =
          w.algorithms[a] + " on input " + std::to_string(i);
      std::string diff;
      if (!run.status.ok()) {
        error = who + ": " + run.status.ToString();
      } else if (!CubeResult::ApproxEqual(*run.cube, reference, 0.0, &diff)) {
        error = who + " cube differs from reference: " + diff;
      } else if (w.dfs_sink) {
        Result<CubeResult> stored =
            spcube::ReadCubeFromDfs(*s.dfs, kCubeRoot, input.num_dims());
        if (!stored.ok()) {
          error = who + " DFS read: " + stored.status().ToString();
        } else if (!CubeResult::ApproxEqual(*stored, reference, 0.0, &diff)) {
          error = who + " DFS cube differs from reference: " + diff;
        }
      }
      std::printf("verify %s: %lld groups, counters %s%s\n", who.c_str(),
                  static_cast<long long>(run.cube ? run.cube->num_groups() : 0),
                  run.counters.ToString().c_str(),
                  error.empty() ? "" : " FAILED");
      expect += (expect.empty() ? "" : ",") + run.counters.ToString();
      ResetDfs(s);
    }
  }
  std::printf("{\"ok\": %s, \"jobs\": %d, \"expect\": %s, \"error\": %s}\n",
              error.empty() ? "true" : "false", jobs, Quote(expect).c_str(),
              Quote(error).c_str());
  return 0;
}

/// One untraced job on one input: every algorithm of the workload, in order.
struct JobSample {
  std::string error;  // empty when every run succeeded with exact counters
  double wall_s = 0;
  double cpu_s = 0;
  double modeled_s = 0;
  double shuffle_bytes = 0;
  double imbalance = 0;
};

JobSample RunJob(Setup& s, size_t input, const Workload& w,
                 const std::vector<Counters>& expect) {
  JobSample job;
  for (size_t a = 0; a < w.algorithms.size(); ++a) {
    AlgoRun run = RunAlgorithm(s, input, a, w, w.collect);
    const size_t slot = input * w.algorithms.size() + a;
    if (!run.status.ok()) {
      job.error = w.algorithms[a] + ": " + run.status.ToString();
    } else if (slot >= expect.size() || !(run.counters == expect[slot])) {
      job.error = w.algorithms[a] + " counters " + run.counters.ToString() +
                  " differ from the verified job";
    }
    job.wall_s += run.wall_s;
    job.cpu_s += run.cpu_s;
    job.modeled_s += run.metrics.TotalSeconds();
    job.shuffle_bytes += static_cast<double>(run.metrics.ShuffleBytes());
    job.imbalance = std::max(job.imbalance, MaxImbalance(run.metrics));
    run.cube.reset();
    ResetDfs(s);
  }
  return job;
}

/// Counts attempted and failed jobs, keeping the first error.
struct FailureCount {
  int attempted = 0;
  int failed = 0;
  std::string first_error;

  bool Note(const std::string& error) {
    ++attempted;
    if (error.empty()) return true;
    ++failed;
    if (first_error.empty()) first_error = error;
    return false;
  }
};

/// End-to-end samples: set-up repetitions, one untimed warm-up job, then
/// timed jobs for --seconds, cycling through the inputs. Every job's
/// counters must equal --expect.
int Time(const Workload& w, const Args& args) {
  const std::vector<Counters> expect = ParseExpect(args.expect);
  std::vector<double> setup_s, gen_s;
  Setup s = RepeatSetup(w, args.seed, &setup_s, &gen_s);

  FailureCount failures;
  failures.Note(RunJob(s, 0, w, expect).error);  // warm-up
  std::vector<double> inputs, wall, cpu, modeled, shuffle, imbalance;
  const int64_t loop_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t job = 0; job == 0 || NowNs() - loop_start < budget_ns; ++job) {
    const size_t input = job % s.inputs.size();
    const JobSample sample = RunJob(s, input, w, expect);
    if (!failures.Note(sample.error)) continue;
    inputs.push_back(static_cast<double>(input));
    wall.push_back(sample.wall_s);
    cpu.push_back(sample.cpu_s);
    modeled.push_back(sample.modeled_s);
    shuffle.push_back(sample.shuffle_bytes);
    imbalance.push_back(sample.imbalance);
  }
  // Set up again after the jobs, so that the samples span the run: engine
  // construction creates a temp dir, whose cost follows the filesystem's
  // state, which drifts over seconds. (Set-up between jobs would disturb
  // the jobs; it made them about 15% slower.)
  s = Setup();
  RepeatSetup(w, args.seed, &setup_s, &gen_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::string host = HostJson(w);
  std::printf("host %s\n", host.c_str());
  if (!failures.first_error.empty()) {
    std::printf("job error: %s\n", failures.first_error.c_str());
  }
  std::printf(
      "{\"host\": %s, \"rows\": %lld, \"algorithms\": %zu, \"attempted\": %d, "
      "\"failed\": %d, \"error\": %s, \"setup_s\": %s, \"gen_s\": %s, "
      "\"input\": %s, \"wall_s\": %s, \"cpu_s\": %s, \"modeled_s\": %s, "
      "\"shuffle_bytes\": %s, \"reducer_imbalance\": %s, \"peak_rss_kb\": "
      "%ld}\n",
      host.c_str(), static_cast<long long>(w.rows), w.algorithms.size(),
      failures.attempted, failures.failed,
      Quote(failures.first_error).c_str(), Array(setup_s).c_str(),
      Array(gen_s).c_str(), Array(inputs).c_str(), Array(wall).c_str(),
      Array(cpu).c_str(), Array(modeled).c_str(), Array(shuffle).c_str(),
      Array(imbalance).c_str(), usage.ru_maxrss);
  return 0;
}

/// One traced SP-Cube job through the composition. `keep` (optional)
/// receives the run, cube included.
LayerMetrics TracedSpCubeJob(Setup& s, size_t input, const Workload& w,
                             bool collect, int threads, Tracer* tracer,
                             const std::vector<Counters>& expect,
                             FailureCount* failures, ComposedRun* keep) {
  const std::string sketch_path =
      "perfbench/sketch/job_" + std::to_string(tracer->job());
  ComposedRun run = RunSpCubeComposed(*s.engine, *s.inputs[input],
                                      JobOptions(w, collect), sketch_path,
                                      *tracer);
  LayerMetrics l;
  std::string error;
  if (!run.status.ok()) {
    error = "traced sp-cube: " + run.status.ToString();
  } else {
    l = SpCubeLayers(run, *tracer, w, threads, *s.dfs);
    l["job_wall_s"] = run.wall_s;
    const Counters c = CountersOf(run.output.metrics, *s.dfs, w);
    if (input >= expect.size() || !(c == expect[input])) {
      error = "traced sp-cube counters " + c.ToString() +
              " differ from the verified job";
    }
  }
  failures->Note(error);
  if (keep != nullptr) *keep = std::move(run);
  ResetDfs(s);
  return l;
}

/// One traced baselines job: spans stop at CubeAlgorithm::Run (the
/// baselines' tasks are file-local); the split comes from the returned
/// JobMetrics.
LayerMetrics TracedBaselinesJob(Setup& s, size_t input, const Workload& w,
                                int threads, Tracer* tracer,
                                const std::vector<Counters>& expect,
                                FailureCount* failures) {
  LayerMetrics l;
  const int job_span = tracer->Open("job", -1);
  double cpu_sum = 0, wall_sum = 0, busy_sum = 0;
  RunMetrics all;
  std::string error;
  for (size_t a = 0; a < w.algorithms.size(); ++a) {
    const std::string key =
        w.algorithms[a] == "mr-cube" ? "mrcube" : w.algorithms[a];
    tracer->SetRound(static_cast<int>(a) + 1);
    const int span = tracer->Open("baselines." + key, job_span);
    AlgoRun run = RunAlgorithm(s, input, a, w, w.collect);
    tracer->Close(span);
    const size_t slot = input * w.algorithms.size() + a;
    if (!run.status.ok()) {
      error = w.algorithms[a] + ": " + run.status.ToString();
    } else if (slot >= expect.size() || !(run.counters == expect[slot])) {
      error = w.algorithms[a] + " counters differ from the verified job";
    }
    l["baselines." + key + "_s"] = run.wall_s;
    l["baselines." + key + "_modeled_s"] = run.metrics.TotalSeconds();
    l["baselines." + key + "_shuffle_bytes"] =
        static_cast<double>(run.metrics.ShuffleBytes());
    for (const JobMetrics& round : run.metrics.rounds) {
      busy_sum +=
          round.map_phase.SumSeconds() + round.reduce_phase.SumSeconds();
      all.Add(round);
    }
    cpu_sum += run.cpu_s;
    wall_sum += run.wall_s;
    ResetDfs(s);
  }
  tracer->Close(job_span);
  failures->Note(error);
  AddJobMetricLayers(all, &l);
  FinishLayers(&l);
  // Process CPU not spent in tasks, as JobMetrics measures task busy time.
  l["mapreduce.engine_self_s"] = cpu_sum - busy_sum;
  l["common.pool_busy_frac"] =
      cpu_sum / (wall_sum * static_cast<double>(threads));
  l["job_wall_s"] = wall_sum;
  return l;
}

/// The composition must reproduce SpCubeAlgorithm::Run's cube and every
/// deterministic counter bit for bit. Returns "exact" or the difference.
std::string CheckFidelity(Setup& s, size_t input, const Workload& w,
                          int threads, Tracer* tracer,
                          const std::vector<Counters>& expect,
                          FailureCount* failures) {
  AlgoRun algo = RunAlgorithm(s, input, 0, w, /*collect=*/true);
  const auto* sp =
      static_cast<const spcube::SpCubeAlgorithm*>(s.algorithms[0].get());
  const int64_t sketch_bytes = sp->last_sketch_bytes();
  const int64_t sketch_skews = sp->last_sketch_skews();
  ResetDfs(s);
  ComposedRun composed;
  TracedSpCubeJob(s, input, w, /*collect=*/true, threads, tracer, expect,
                  failures, &composed);
  std::string diff;
  if (!algo.status.ok() || !composed.status.ok()) return "run failed";
  if (!CubeResult::ApproxEqual(*algo.cube, *composed.output.cube, 0.0,
                               &diff)) {
    return "cube differs: " + diff;
  }
  diff = DiffDeterministic(algo.metrics, composed.output.metrics);
  if (!diff.empty()) return "counter differs: " + diff;
  if (sketch_bytes != composed.sketch_bytes ||
      sketch_skews != composed.sketch_skews) {
    return "sketch differs";
  }
  return "exact";
}

/// Per-layer samples: fidelity jobs (SP-Cube workloads), then untraced and
/// traced jobs alternating for --seconds, cycling through the inputs.
int Trace(const Workload& w, const Args& args) {
  const std::vector<Counters> expect = ParseExpect(args.expect);
  std::vector<double> setup_s, gen_s;
  Setup s = RepeatSetup(w, args.seed, &setup_s, &gen_s);
  const int threads = PoolThreads(w);
  const bool spcube = w.algorithms.size() == 1 && w.algorithms[0] == "sp-cube";
  Tracer tracer;
  FailureCount failures;
  int64_t job_id = 0;

  std::string fidelity = "not applicable: baselines are file-local";
  if (spcube) {
    tracer.BeginJob(++job_id);
    fidelity = CheckFidelity(s, 0, w, threads, &tracer, expect, &failures);
    failures.Note(fidelity == "exact" ? "" : "fidelity: " + fidelity);
  }

  failures.Note(RunJob(s, 0, w, expect).error);  // warm-up
  std::vector<double> untraced, untraced_inputs, self_sum_error;
  std::vector<LayerMetrics> traced;
  const int64_t loop_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t job = 0; job == 0 || NowNs() - loop_start < budget_ns; ++job) {
    const size_t input = job % s.inputs.size();
    const JobSample plain = RunJob(s, input, w, expect);
    if (failures.Note(plain.error)) {
      untraced.push_back(plain.wall_s);
      untraced_inputs.push_back(static_cast<double>(input));
    }
    tracer.BeginJob(++job_id);
    LayerMetrics l =
        spcube ? TracedSpCubeJob(s, input, w, w.collect, threads, &tracer,
                                 expect, &failures, nullptr)
               : TracedBaselinesJob(s, input, w, threads, &tracer, expect,
                                    &failures);
    if (l.empty()) continue;
    if (spcube && threads == 1) {
      self_sum_error.push_back(l["self_sum_s"] / l["job_wall_s"] - 1.0);
    }
    l.erase("self_sum_s");
    l["input"] = static_cast<double>(input);
    traced.push_back(std::move(l));
  }

  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::printf("could not write %s\n", args.trace_out.c_str());
  }
  const std::string host = HostJson(w);
  std::printf("host %s\n", host.c_str());
  std::printf("fidelity: %s\n", fidelity.c_str());
  if (!failures.first_error.empty()) {
    std::printf("job error: %s\n", failures.first_error.c_str());
  }
  std::string jobs = "[";
  for (size_t i = 0; i < traced.size(); ++i) {
    jobs += (i ? ", " : "") + Object(traced[i]);
  }
  jobs += "]";
  std::printf(
      "{\"host\": %s, \"attempted\": %d, \"failed\": %d, \"error\": %s, "
      "\"fidelity\": %s, \"self_sum_tolerance\": %s, \"self_sum_error\": %s, "
      "\"gen_s\": %s, \"untraced_input\": %s, \"untraced_wall_s\": %s, "
      "\"traced\": %s}\n",
      host.c_str(), failures.attempted, failures.failed,
      Quote(failures.first_error).c_str(), Quote(fidelity).c_str(),
      Num(kSelfSumTolerance).c_str(), Array(self_sum_error).c_str(),
      Array(gen_s).c_str(), Array(untraced_inputs).c_str(),
      Array(untraced).c_str(), jobs.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "mode") {
      args->mode = value;
    } else if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "expect") {
      args->expect = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: %s --mode=verify|time|trace --workload=<name> "
                 "--seed=<n> [--seconds=<s>] [--expect=<counters>] "
                 "[--trace-out=<path>]\n", argv[0]);
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (w.name != args.workload) continue;
    if (args.mode == "verify") return Verify(w, args);
    if (args.mode == "time") return Time(w, args);
    if (args.mode == "trace") return Trace(w, args);
  }
  std::fprintf(stderr, "unknown mode or workload\n");
  return 2;
}
