"""Compare two sets of e2e benchmark runs against the bounds in BENCHMARK.json.

    python -m benchmarks.e2e.compare BASE.jsonl CHANGE.jsonl
    python -m benchmarks.e2e.compare --same-code RUNS.jsonl [MORE.jsonl]

Inputs are the ``results.jsonl`` files the benchmark appends to (one
line per workload run); only untraced runs count.  For every
(workload, end-to-end metric) the report gives each side's median and
quartiles, the parent's spread (quartile distance over median) and a
verdict:

* counts (unit ``bytes`` or ``count``) must repeat exactly: equal is
  ``unchanged``, anything else ``improved`` or ``regressed`` -- or
  ``unresolved`` when a side does not repeat itself;
* ``improved``: at least 10 pairs, the change wins at least 90% of them
  (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread exceeds the bound, unless
  every run of the change reads better than every run of the parent;
* ``unchanged`` otherwise.

``--same-code`` compares two sets of runs of the same code and exits
non-zero unless every verdict is ``unchanged``.  Given one file it
splits each workload's runs alternately into the two sets, so seeds
alternate between them.  Without it the exit status is non-zero when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
COUNT_UNITS = ("bytes", "count")
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(path) -> dict[str, list[dict]]:
    """Untraced runs per workload (and size, if not full), in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            if not run["trace"]:
                key = run["workload"] if run["size"] == "full" \
                    else f"{run['workload']}/{run['size']}"
                runs[key].append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], unit: str, better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0   # > 0: change is worse
    if unit in COUNT_UNITS:
        if len(set(base)) != 1 or len(set(change)) != 1:
            return "unresolved"
        diff = sign * (change[0] - base[0])
        return "unchanged" if diff == 0 else \
            "regressed" if diff > 0 else "improved"
    q1, median_base, q3 = quartiles(base)
    median_change = statistics.median(change)
    worse_by = sign * (median_change - median_base) / median_base
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and worse_by < 0 and abs(median_change - median_base) > q3 - q1):
        return "improved"
    if (q3 - q1) / median_base > bound:
        all_better = max(sign * c for c in change) < min(sign * b for b in base)
        return "unchanged" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "unchanged"


def compare(base: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in base[workload]]
            b = [run["metrics"][name] for run in change[workload]]
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": qa, "change": qb, "n": (len(a), len(b)),
                "spread": (qa[2] - qa[0]) / qa[1], "bound": metric["bound"],
                "verdict": verdict(a, b, metric["unit"], metric["better"],
                                   metric["bound"]),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<11} {'metric':<26} {'base median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34} {'spread':>7} {'bound':>6}  "
             f"verdict"]
    for row in rows:
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                 for q in (row["base"], row["change"])]
        lines.append(f"{row['workload']:<11} {row['metric']:<26} "
                     f"{cells[0]:>34} {cells[1]:>34} {row['spread']:>7.2%} "
                     f"{row['bound']:>6.1%}  {row['verdict']} "
                     f"(n={row['n'][0]}/{row['n'][1]})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description="Compare two sets of e2e benchmark runs.")
    parser.add_argument("results", nargs="+", type=pathlib.Path,
                        help="results.jsonl files: BASE CHANGE, or with "
                             "--same-code one file to split alternately")
    parser.add_argument("--same-code", action="store_true",
                        help="both sets ran the same code: every verdict "
                             "must be 'unchanged'")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    if len(args.results) == 2:
        base, change = (load_runs(p) for p in args.results)
    elif len(args.results) == 1 and args.same_code:
        runs = load_runs(args.results[0])
        base = {w: r[0::2] for w, r in runs.items()}
        change = {w: r[1::2] for w, r in runs.items()}
    else:
        parser.error("give BASE and CHANGE, or one file with --same-code")
    rows = compare(base, change, spec)
    if not rows:
        parser.error("no workload has untraced runs on both sides")
    print(render(rows))
    verdicts = [row["verdict"] for row in rows]
    if args.same_code:
        ok = all(v == "unchanged" for v in verdicts)
    else:
        ok = "regressed" not in verdicts
    print(f"{len(rows)} comparisons: "
          + ", ".join(f"{verdicts.count(v)} {v}" for v in sorted(set(verdicts))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
