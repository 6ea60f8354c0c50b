#!/usr/bin/env python3
"""The repo benchmark: SP-Cube and baseline cube jobs, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf-spill --seed 1 --seconds 10 --trace 0

Builds the measuring program (perfbench/perfbench.cc) from the checkout's
sources into .bench_build/, then runs it twice:

  1. --mode=verify: one job per (input, algorithm) whose cube must equal
     ComputeCubeReference exactly (on wiki-sinks, also the cube read back
     from the DFS part files). Prints the exact counters later jobs must
     reproduce.
  2. --mode=time (--trace 0): set-up repetitions, one warm-up job, then
     timed jobs for --seconds; prints every end-to-end metric.
     --mode=trace (--trace 1): a fidelity job, then untraced and traced jobs
     alternating for --seconds; prints every per-layer metric.

Verification runs in its own process so that the reference cube does not
set the timed process's peak resident memory. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. METRICS.md
defines every metric and the layer -> end-to-end metric -> workload map.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "spcube_perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
# Spills go to std::filesystem::temp_directory_path(); pointing TMPDIR into
# the checkout keeps every file the run writes inside it.
SPILL_DIR = os.path.join(BUILD_DIR, "tmp")

WORKLOADS = ("zipf-spill", "wiki-sinks", "baselines-zipf")

END_TO_END = (
    ("setup_s", "s"),
    ("job_wall_p50_s", "s"),
    ("job_wall_tail_s", "s"),
    ("tuples_per_s", "1/s"),
    ("job_cpu_s", "s"),
    ("modeled_total_s", "s"),
    ("shuffle_bytes", "B"),
    ("reducer_imbalance", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("relation.gen_s", "s"),
    ("sketch.round_s", "s"),
    ("sketch.bytes", "B"),
    ("sketch.skewed_groups", "count"),
    ("core.map_self_s", "s"),
    ("core.emits", "count"),
    ("core.skew_partials", "count"),
    ("core.partition_s", "s"),
    ("core.partition_calls", "count"),
    ("core.task_setup_s", "s"),
    ("core.reduce_self_s", "s"),
    ("core.reduce_groups", "count"),
    ("core.collect_s", "s"),
    ("mapreduce.emit_s", "s"),
    ("mapreduce.emit_calls", "count"),
    ("mapreduce.next_s", "s"),
    ("mapreduce.next_calls", "count"),
    ("mapreduce.output_s", "s"),
    ("mapreduce.output_calls", "count"),
    ("mapreduce.engine_self_s", "s"),
    ("mapreduce.map_busy_max_s", "s"),
    ("mapreduce.reduce_busy_max_s", "s"),
    ("mapreduce.map_busy_sum_s", "s"),
    ("mapreduce.reduce_busy_sum_s", "s"),
    ("mapreduce.shuffle_modeled_s", "s"),
    ("mapreduce.map_output_records", "count"),
    ("mapreduce.combine_ratio", "ratio"),
    ("io.spill_bytes", "B"),
    ("io.spill_per_shuffle_byte", "ratio"),
    ("io.dfs_write_s", "s"),
    ("io.dfs_stored_bytes", "B"),
    ("common.pool_busy_frac", "ratio"),
    ("baselines.hive_s", "s"),
    ("baselines.mrcube_s", "s"),
    ("baselines.naive_s", "s"),
    ("baselines.hive_modeled_s", "s"),
    ("baselines.mrcube_modeled_s", "s"),
    ("baselines.naive_modeled_s", "s"),
    ("baselines.hive_shuffle_bytes", "B"),
    ("baselines.mrcube_shuffle_bytes", "B"),
    ("baselines.naive_shuffle_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring program."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--parallel", jobs,
                   "--target", "spcube_perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_program(args, timeout):
    """Runs the measuring program; returns its last stdout line as JSON."""
    env = dict(os.environ, TMPDIR=SPILL_DIR)
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %ds" % (args[0], timeout))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "p100 of %d jobs (fewer than 11)" % n
    return ordered[n - 11], "p%.0f of %d jobs" % (100.0 * (n - 10) / n, n)


def input_median(values, inputs):
    """Median over each input's jobs, averaged over the run's inputs.

    Jobs cycle through inputs whose costs differ; a plain median of that
    mixture would jump between the inputs' levels from run to run.
    """
    jobs = {}
    for value, which in zip(values, inputs):
        jobs.setdefault(which, []).append(value)
    return statistics.fmean(statistics.median(v) for v in jobs.values())


def end_to_end(samples):
    wall, inputs = samples["wall_s"], samples["input"]
    if not wall:
        raise BenchError("no timed job completed")
    tail_value, tail_note = tail(wall)
    tuples = samples["rows"] * samples["algorithms"] * len(wall)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "job_wall_p50_s": input_median(wall, inputs),
        "job_wall_tail_s": tail_value,
        "tuples_per_s": tuples / sum(wall),
        "job_cpu_s": input_median(samples["cpu_s"], inputs),
        "modeled_total_s": input_median(samples["modeled_s"], inputs),
        "shuffle_bytes": input_median(samples["shuffle_bytes"], inputs),
        "reducer_imbalance": input_median(samples["reducer_imbalance"],
                                          inputs),
        "peak_rss_mb": samples["peak_rss_kb"] / 1024.0,
    }
    per_input = "median per input over %d jobs, mean of %d inputs" % (
        len(wall), len(set(inputs)))
    notes = {
        "setup_s": "median of %d set-ups" % len(samples["setup_s"]),
        "job_wall_p50_s": per_input,
        "job_wall_tail_s": tail_note,
        "job_cpu_s": per_input,
        "modeled_total_s": per_input,
        "shuffle_bytes": "exact per input, mean over inputs",
        "reducer_imbalance": "exact per input (worst round), mean over inputs",
    }
    return metrics, notes, END_TO_END


def per_layer(samples):
    traced = samples["traced"]
    if not traced or not samples["untraced_wall_s"]:
        raise BenchError("no traced job completed")
    inputs = [job["input"] for job in traced]
    metrics, notes = {}, {}
    for name, _ in PER_LAYER:
        if name in traced[0]:
            metrics[name] = input_median([job[name] for job in traced], inputs)
            notes[name] = "median per input over %d traced jobs" % len(traced)
        else:
            metrics[name] = 0.0
            notes[name] = "not on this workload"
    metrics["relation.gen_s"] = statistics.median(samples["gen_s"])
    notes["relation.gen_s"] = "median of %d set-ups" % len(samples["gen_s"])
    traced_wall = input_median([job["job_wall_s"] for job in traced], inputs)
    untraced_wall = input_median(samples["untraced_wall_s"],
                                 samples["untraced_input"])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    notes["trace.overhead_frac"] = "median traced %.4f s / untraced %.4f s" % (
        traced_wall, untraced_wall)
    return metrics, notes, PER_LAYER


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        os.makedirs(SPILL_DIR, exist_ok=True)
        os.makedirs(TRACE_DIR, exist_ok=True)
        common = ["--workload=" + args.workload, "--seed=%d" % args.seed]
        verified = run_program(["--mode=verify"] + common, timeout=90)
        common += ["--seconds=%g" % args.seconds,
                   "--expect=" + verified["expect"]]
        timeout = int(args.seconds) + 90
        if args.trace:
            trace_out = os.path.join(
                TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
            samples = run_program(["--mode=trace", "--trace-out=" + trace_out]
                                  + common, timeout=timeout)
            metrics, notes, spec = per_layer(samples)
        else:
            samples = run_program(["--mode=time"] + common, timeout=timeout)
            metrics, notes, spec = end_to_end(samples)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("benchmark failed:", error)
        return 1

    attempted = verified["jobs"] + samples["attempted"]
    failed = (0 if verified["ok"] else 1) + samples["failed"]
    correct = failed == 0
    problems = [] if verified["ok"] else ["verify: " + verified["error"]]
    if samples["error"]:
        problems.append("job: " + samples["error"])
    if args.trace:
        if samples["fidelity"] != "exact" and \
                not samples["fidelity"].startswith("not applicable"):
            correct = False
            problems.append("fidelity: " + samples["fidelity"])
        tolerance = samples["self_sum_tolerance"]
        worst = max((abs(e) for e in samples["self_sum_error"]), default=0.0)
        if worst > tolerance:
            correct = False
            problems.append("layer self times miss job wall by %.1f%%" %
                            (100 * worst))
        print("fidelity (composition vs SpCubeAlgorithm::Run): %s" %
              samples["fidelity"])
        if samples["self_sum_error"]:
            print("self-time sum vs job wall: worst %.2f%% over %d jobs "
                  "(tolerance %.0f%%)" % (100 * worst,
                                          len(samples["self_sum_error"]),
                                          100 * tolerance))
        print("timeline: %s" % os.path.relpath(trace_out, ROOT))
    print("host: %s" % json.dumps(samples["host"]))
    print("workload %s, seed %d: %d jobs attempted, %d failed "
          "(failed_frac %.4f)" % (args.workload, args.seed, attempted, failed,
                                  failed / attempted))
    for name, unit in spec:
        print("  %-32s %14.6g %-6s %s" % (name, metrics[name], unit,
                                         notes.get(name, "")))
    for problem in problems:
        print("INCORRECT:", problem)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
