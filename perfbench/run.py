"""Benchmark of combcluster: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cluster-sim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --smoke

It measures the combcluster package under src/ of the checkout that holds
this file, and exits 2 without a result if that source is missing.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics named in BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  The lines before it give the machine
facts and a readable summary.  ``--workload all`` measures every workload in
turn; ``--smoke`` runs every workload once at M=6, traced and untraced, and
checks that every metric of BENCHMARK.json is reported.  BENCHMARK.json
gates three workloads; verify-suite runs only when named, with ``all`` or
with ``--smoke``, because on a shared 2-core host its spread exceeds the
wall-time bound.  See README.md in this directory for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cluster-sim", "cluster-reduce", "lattice-pump", "verify-suite")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env(threads: int) -> dict:
    """Environment of every measured process: src/ on the path, BLAS capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(spec: dict, threads: int) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=child_env(threads), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']}: measuring process timed out")
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"{spec['workload']}: measuring process exited "
                     f"{proc.returncode}:\n{proc.stderr.strip()}")


def setup_times(threads: int, repeats: int) -> list:
    """Wall times of fresh interpreters that import combcluster.

    The first start is discarded: it may compile the .pyc files and load
    the libraries into the page cache, which a user pays only once.
    """
    cmd = [sys.executable, "-c", "import combcluster"]
    env = child_env(threads)
    times = []
    for _ in range(repeats + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import combcluster failed:\n{proc.stderr.strip()}")
    return times[1:]


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, nproc: int) -> tuple:
    """One measurement; returns (child result, metric values by name)."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "warm": not smoke}
    res = run_child(spec, nproc)
    values = {}
    if trace:
        values.update(res["layers"])
        values["trace.overhead_frac"] = (statistics.median(res["traced_wall_s"])
                                         / statistics.median(res["wall_s"]) - 1)
        ref = run_child({**spec, "trace": 0, "seconds": 0}, 1)
        values["ref.blas1_wall_s"] = statistics.median(ref["wall_s"])
        for key in ("attempted", "failed", "messages"):
            res[key] += ref[key]
    else:
        values["wall_s"] = statistics.median(res["wall_s"])
        values["peak_rss_mb"] = res["peak_rss_mb"]
        values["setup_s"] = statistics.median(
            setup_times(nproc, 1 if smoke else SETUP_REPEATS))
    values["check.failed_ops"] = res["failed"] / res["attempted"]
    values["check.result_err"] = res["result_err"]
    return res, values


def summary_line(workload: str, res: dict, values: dict, units: dict) -> str:
    shown = [k for k in ("wall_s", "setup_s", "peak_rss_mb") if k in values]
    shown += ["check.failed_ops", "check.result_err"]
    if "trace.overhead_frac" in values:
        shown += ["trace.overhead_frac", "ref.blas1_wall_s"]
    parts = [f"{k}={values[k]:.6g} {units.get(k, '')}".rstrip() for k in shown]
    if "wall_s" not in values:
        parts.append(f"untraced pass={statistics.median(res['wall_s']):.6g} s")
    n = len(res["traced_wall_s"] or res["wall_s"])
    return f"{workload}: " + "  ".join(parts) + f"  ({n} passes, inputs {res['inputs']})"


def shares_lines(res: dict) -> list:
    """Largest self-time shares of each operation in the last traced pass."""
    return [f"  {s['op']} ({s['wall_s']:.3g} s traced): "
            + ", ".join(f"{name} {share:.0%}" for name, share in s["shares"])
            for s in res["op_shares"]]


def select(workload: str, values: dict, specs: list) -> dict:
    """The metrics named in ``specs``, each with its unit; all must be finite."""
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{workload}: metric {spec['name']} not measured "
                             f"({value!r})")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at M=6, traced and untraced")
    args = ap.parse_args(argv)
    if args.seconds is not None and not 0 <= args.seconds < math.inf:
        ap.error("--seconds must be a finite number >= 0")

    if not (ROOT / "src" / "combcluster" / "__init__.py").is_file():
        print(f"error: no combcluster source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    nproc = len(os.sched_getaffinity(0))

    if args.smoke:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        seconds = 0.0
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [(w, args.trace) for w in names]
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload, trace in runs:
            res, values = measure(workload, args.seed, seconds, trace,
                                  args.smoke, nproc)
            print(json.dumps({"machine": res["machine"]}))
            print(summary_line(workload, res, values, units))
            for line in shares_lines(res):
                print(line)
            for msg in res["messages"] + res["span_problems"]:
                print(f"  check failed: {msg}")
            correct &= res["failed"] == 0 and not res["span_problems"]
            attempted += res["attempted"]
            failed += res["failed"]
            selected = select(workload, values,
                              bench["per_layer"] if trace else bench["end_to_end"])
            if len(runs) == 1:
                metrics = selected
            else:
                metrics.update({f"{workload}/{k}": m for k, m in selected.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.smoke:
        print(f"smoke: all {len(units)} metrics of BENCHMARK.json reported "
              f"on every workload")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
