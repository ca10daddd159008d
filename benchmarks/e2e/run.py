"""End-to-end CryptoNN training benchmark.

    python -m benchmarks.e2e --workload mlp-serial --seed 3 --seconds 32 --trace 0
    python -m benchmarks.e2e --seed 0                # every workload
    python -m benchmarks.e2e --seed 0 --trace 1      # per-layer metrics
    python -m benchmarks.e2e --seed 0 --check-counts

For each workload this process runs whole jobs -- set up, encrypt, fit,
evaluate; one fresh process each, see ``job.py`` -- until ``--seconds``
are used up, and reports the median of each metric over the jobs.  With ``--trace 1``
every second job is traced and the run reports the median per-layer
metrics of the traced jobs.  It prints every metric with its unit, checks
every job against the plaintext replay (and the three MLP workloads
against each other when they run together), and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

This process never imports ``repro``: every job runs in a child process
with ``src`` on its path, so nothing carries over between jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent

WORKLOADS = ("mlp-serial", "mlp-pooled", "cnn-serial", "mlp-rpc")
#: Same task, seed and size: these must end with identical weights.
SAME_TASK = ("mlp-serial", "mlp-pooled", "mlp-rpc")

#: A workload that has not finished by then fails, so that a run always
#: ends within 180 s.
HARD_LIMIT_S = 170.0

#: End-to-end metrics, with units, in print order.
E2E_METRICS = {
    "setup_s": "s",
    "encrypt_samples_per_s": "samples/s",
    "first_epoch_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "iter_p50_s": "s",
    "predict_samples_per_s": "samples/s",
    "time_to_model_s": "s",
    "wire_bytes_per_iter": "bytes",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced job, with units.
LAYER_METRICS = {
    "entities.derive_febo_s": "s",
    "entities.febo_keys": "count",
    "entities.derive_feip_s": "s",
    "entities.feip_keys": "count",
    "entities.key_requests": "count",
    "entities.encrypt_s": "s",
    "fe.feip_decrypt_rows_s": "s",
    "fe.feip_rows": "count",
    "fe.feip_decrypt_raw_s": "s",
    "fe.febo_decrypt_many_s": "s",
    "fe.febo_values": "count",
    "fe.engine_prefill_s": "s",
    "fe.engine_misses": "count",
    "mathutils.dlog_solve_many_s": "s",
    "mathutils.dlog_solve_s": "s",
    "mathutils.dlog_targets": "count",
    "mathutils.solver_builds": "count",
    "mathutils.solver_hits": "count",
    "mathutils.comb_tables": "count",
    "matrix.pool_dot_s": "s",
    "matrix.pool_elementwise_s": "s",
    "matrix.pool_dispatches": "count",
    "matrix.pool_executors_created": "count",
    "matrix.pool_degraded_dispatches": "count",
    "secure_layers.input_forward_s": "s",
    "secure_layers.input_backward_s": "s",
    "secure_layers.loss_forward_s": "s",
    "secure_layers.loss_backward_s": "s",
    "secure_layers.reconstruct_hit_ratio": "fraction",
    "nn.plain_s": "s",
    "rpc.key_fetch_s": "s",
    "rpc.key_round_trips": "count",
    "rpc.bytes": "bytes",
    "rpc.retries": "count",
    "rpc.server_decrypt_s": "s",
    "trace_overhead_frac": "fraction",
    "trace_coverage_frac": "fraction",
}

#: Deterministic operation counts pinned by ``baseline_counts.json``.
COUNT_METRICS = ("entities.febo_keys", "entities.feip_keys", "fe.feip_rows",
                 "fe.febo_values", "mathutils.dlog_targets",
                 "matrix.pool_dispatches", "rpc.key_round_trips",
                 "wire_bytes_per_iter")
BASELINE_COUNTS = HERE / "baseline_counts.json"

#: Below this share of each iteration explained by named layer self
#: times, the traced breakdown is not trustworthy.
MIN_COVERAGE = 0.9


class BenchError(RuntimeError):
    """A job crashed or timed out: no result can be reported."""


# -- jobs ----------------------------------------------------------------------

def _job_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_job(workload: str, seed: int, size: str, out: pathlib.Path,
            index: int, deadline: float, traced: bool) -> dict:
    """Run one job process and return what it measured."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.job",
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--out", str(out), "--index", str(index),
           "--spawned-at", repr(time.time())]
    if traced:
        cmd.append("--trace")
    # own process group, so a timeout also takes down the services and
    # pool workers the job started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_job_env(),
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"{workload} job {index} exited with code {code}")
    return json.loads((out / f"job-{index}.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, out: pathlib.Path) -> dict:
    """The jobs of one workload, then their summary."""
    out = out / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    started = time.monotonic()
    window_end = started + seconds
    hard_end = started + HARD_LIMIT_S
    try:
        jobs: list[dict] = []
        while True:
            begun = time.monotonic()
            # a traced run alternates untraced and traced jobs
            jobs.append(run_job(workload, seed, size, out, len(jobs),
                                hard_end, trace and len(jobs) % 2 == 1))
            # start another job only if it should end inside the window
            if len(jobs) >= (2 if trace else 1) and \
                    time.monotonic() + (time.monotonic() - begun) > window_end:
                break
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} exceeded {HARD_LIMIT_S:.0f} s") from exc
    return summarize(workload, jobs)


def e2e_metrics(jobs: list[dict]) -> dict:
    """End-to-end metrics: medians over the run's untraced jobs."""
    median = statistics.median
    return {
        "setup_s": median([j["setup_s"] for j in jobs]),
        "encrypt_samples_per_s":
            median([j["samples"] / j["encrypt_s"] for j in jobs]),
        "first_epoch_samples_per_s":
            median([j["samples"] / j["first_epoch_s"] for j in jobs]),
        "train_samples_per_s":
            median([(j["epochs"] - 1) * j["samples"] / j["warm_s"]
                    for j in jobs]),
        "iter_p50_s": median([t for j in jobs for t in j["warm_iter_s"]]),
        "predict_samples_per_s":
            median([j["samples"] / j["predict_s"] for j in jobs]),
        "time_to_model_s": median([j["time_to_model_s"] for j in jobs]),
        "wire_bytes_per_iter":
            median([j["key_bytes"] / j["iterations"] for j in jobs]),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in jobs]),
    }


def summarize(workload: str, jobs: list[dict]) -> dict:
    untraced = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    median = statistics.median
    e2e = e2e_metrics(untraced)
    problems = [f"{workload} job {job['index']}: {p}"
                for job in jobs for p in job["problems"]]
    summary = {
        "workload": workload,
        "e2e": e2e,
        "slowdown": median([s for job in untraced for s in job["slowdown"]]),
        "setup_samples": len(untraced),
        "iter_samples": sum(len(job["warm_iter_s"]) for job in untraced),
        "jobs": len(jobs),
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(job["failed"] for job in jobs),
        "problems": problems,
        "weights_file": untraced[0]["weights_file"],
    }
    if traced:
        names = set(LAYER_METRICS) - {"trace_overhead_frac"}
        for job in traced:
            if set(job["layers"]) != names:
                raise BenchError(
                    f"{workload} job {job['index']}: per-layer metrics "
                    f"{sorted(set(job['layers']) ^ names)} missing or "
                    f"unexpected")
        # median_low keeps counts integral: it returns an observed value
        layers = {name: statistics.median_low([job["layers"][name]
                                               for job in traced])
                  for name in names}
        layers["trace_overhead_frac"] = (
            median([job["time_to_model_s"] for job in traced])
            / e2e["time_to_model_s"] - 1)
        summary["layers"] = layers
    return summary


# -- checks --------------------------------------------------------------------

def weight_mismatches(path_a, path_b) -> list[str]:
    """Parameters that are not ``np.array_equal`` in two weight archives."""
    with np.load(path_a) as a, np.load(path_b) as b:
        if sorted(a.files) != sorted(b.files):
            return [f"parameter names {sorted(a.files)} != {sorted(b.files)}"]
        return [key for key in sorted(a.files)
                if not np.array_equal(a[key], b[key])]


def cross_mode_problems(weight_files: dict[str, str]) -> list[str]:
    """Same-task workloads of one seed must end with identical weights."""
    names = [w for w in SAME_TASK if w in weight_files]
    problems = []
    for other in names[1:]:
        bad = weight_mismatches(weight_files[names[0]], weight_files[other])
        if bad:
            problems.append(f"{other} weights differ from {names[0]}: {bad}")
    return problems


def count_drift(workload: str, summary: dict) -> list[str]:
    """Operation counts that moved away from ``baseline_counts.json``."""
    baseline = json.loads(BASELINE_COUNTS.read_text(encoding="utf-8"))
    counts = _counts(summary)
    return [f"{workload} {name}: {counts[name]} != baseline {expected}"
            for name, expected in baseline[workload].items()
            if counts[name] != expected]


def _counts(summary: dict) -> dict:
    values = {**summary["layers"], **summary["e2e"]}
    return {name: int(values[name]) if float(values[name]).is_integer()
            else values[name] for name in COUNT_METRICS}


# -- output --------------------------------------------------------------------

def print_summary(summary: dict) -> None:
    name = summary["workload"]
    notes = {
        "setup_s": f"median of {summary['setup_samples']} set-ups",
        "iter_p50_s": f"median of {summary['iter_samples']} warm iterations",
    }
    print(f"== {name}: {summary['jobs']} jobs, "
          f"error_rate {summary['failed'] / summary['attempted']:.4f} "
          f"({summary['failed']} of {summary['attempted']} operations), "
          f"machine slowdown {summary['slowdown']:.3f}")
    for metric, unit in E2E_METRICS.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name:<11} {metric:<36} {summary['e2e'][metric]:>14.6g} "
              f"{unit}{note}")
    if "layers" in summary:
        for metric, unit in LAYER_METRICS.items():
            print(f"{name:<11} {metric:<36} "
                  f"{summary['layers'][metric]:>14.6g} {unit}")
    coverage = summary.get("layers", {}).get("trace_coverage_frac")
    if coverage is not None and coverage < MIN_COVERAGE:
        print(f"WARNING: {name}: named layer self times explain only "
              f"{coverage:.1%} of the least-covered iteration "
              f"(< {MIN_COVERAGE:.0%}); the breakdown misses a layer",
              file=sys.stderr)
    for problem in summary["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)


def _metric_values(summary: dict, trace: bool) -> dict:
    if trace:
        return {m: {"value": summary["layers"][m], "unit": unit}
                for m, unit in LAYER_METRICS.items()}
    return {m: {"value": summary["e2e"][m], "unit": unit}
            for m, unit in E2E_METRICS.items()}


# -- entry point ---------------------------------------------------------------

def _workload_list(values: list[str] | None) -> list[str]:
    names: list[str] = []
    for value in values or ["all"]:
        for name in value.split(","):
            if name == "all":
                names += [w for w in WORKLOADS if w not in names]
            elif name not in WORKLOADS:
                raise SystemExit(f"unknown workload {name!r}; choose from "
                                 f"{', '.join(WORKLOADS)} or all")
            elif name not in names:
                names.append(name)
    return names


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end CryptoNN training benchmark.")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        action="append", metavar="NAME[,NAME...]",
                        help=f"workloads to run: {', '.join(WORKLOADS)} or "
                             f"all (the default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives data, model init and shuffle order")
    parser.add_argument("--seconds", type=float,
                        help="how long each workload measures (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics of traced jobs")
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / ".bench_build" / "e2e",
                        help="where jobs write results, weights and spans; "
                             "each run appends a line to results.jsonl")
    parser.add_argument("--check-counts", action="store_true",
                        help="fail if an operation count drifts from "
                             "baseline_counts.json (implies --trace 1)")
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: 32-bit group and a handful of samples, "
                             "for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    if args.check_counts:
        if args.size != "full":
            parser.error("the count baseline is for --size full")
        args.trace = 1
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads = _workload_list(args.workloads)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark failed: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # a terminated benchmark still tears down its job process groups
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, trace,
                                  args.size, args.out) for w in workloads]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = cross_mode_problems({s["workload"]: s["weights_file"]
                                    for s in summaries})
    if args.check_counts:
        problems += [p for s in summaries
                     for p in count_drift(s["workload"], s)]
    with open(args.out / "results.jsonl", "a", encoding="utf-8") as fh:
        for s in summaries:
            fh.write(json.dumps({
                "workload": s["workload"], "seed": args.seed,
                "size": args.size, "seconds": args.seconds, "trace": trace,
                "correct": not s["problems"], "metrics": s["e2e"],
                "slowdown": s["slowdown"],
                **({"layers": s["layers"]} if trace else {})}) + "\n")

    for summary in summaries:
        print_summary(summary)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems and not any(s["problems"] for s in summaries)
    if len(summaries) == 1:
        metrics = _metric_values(summaries[0], trace)
    else:
        metrics = {s["workload"]: _metric_values(s, trace) for s in summaries}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
