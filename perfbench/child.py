"""One measuring process: runs a workload's passes and prints one JSON line.

run.py starts a fresh interpreter for every measurement, so the peak
resident memory reported here (a high-water mark) belongs to one workload
alone.  The argument is a JSON object with the keys workload, seed,
seconds, trace (0 or 1), smoke and warm.

A pass runs every operation of the workload once, in order; its wall time
is the sum of the operations' call times, and each result is checked after
its call, outside the timed region.  After an optional warm-up pass at the
smoke sizes, passes repeat while another one fits in ``seconds`` (at least
one pass runs).  With trace 1 each untraced pass is followed by a traced
one, so their medians give the tracing overhead under the same conditions.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import combcluster
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


class Tally:
    """Operations attempted and failed, and the largest checked float error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.result_err = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_pass(wl, tally: Tally, out: Path, tr=None) -> float:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wall = 0.0
    for op in wl.ops:
        tally.attempted += 1
        t0 = perf_counter()
        try:
            if tr is None:
                result = op.call()
            else:
                with tr.op(op.label):
                    result = op.call()
        except Exception as exc:   # a failed operation is counted, not fatal
            wall += perf_counter() - t0
            traceback.print_exc()
            tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        wall += perf_counter() - t0
        try:
            errs = op.check(result)
        except Exception as exc:   # malformed output fails the check
            tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        tally.result_err = max([tally.result_err, *errs])
    return wall


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def main(spec: dict) -> dict:
    src = (ROOT / "src").resolve()
    if src not in Path(combcluster.__file__).resolve().parents:
        raise SystemExit(f"combcluster imported from {combcluster.__file__}, "
                         f"not from {src}")
    out = STATE / f"work-{os.getpid()}"
    sizes = workloads.SMOKE if spec["smoke"] else workloads.FULL
    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], sizes, out)
    size = "-smoke" if spec["smoke"] else ""
    trace_path = STATE / f"trace-{wl.name}-seed{spec['seed']}{size}.jsonl"
    if spec["trace"]:
        trace_path.unlink(missing_ok=True)
    tally = Tally()
    if spec["warm"]:
        # Warm-up at the smoke sizes: it loads and initialises every code
        # path the timed passes use, at a fraction of a full pass's cost.
        warm = workloads.WORKLOADS[spec["workload"]](spec["seed"], workloads.SMOKE, out)
        run_pass(warm, tally, out)
    plain, traced, layer_runs, problems, shares = [], [], [], [], []
    deadline = perf_counter() + spec["seconds"]
    while True:
        start = perf_counter()
        plain.append(run_pass(wl, tally, out))
        if spec["trace"]:
            tr = tracer.Tracer()
            with tr.installed():
                traced.append(run_pass(wl, tally, out, tr))
            layer_runs.append(tracer.layer_metrics(tr))
            shares = tr.op_shares()
            problems += [p for p in tr.problems(wl.spans) if p not in problems]
            tr.write_jsonl(trace_path, {"workload": wl.name, "seed": spec["seed"],
                                        "pass": len(traced) - 1})
        # Stop when another round like this one would end after the deadline.
        if 2 * perf_counter() - start > deadline:
            break
    shutil.rmtree(out, ignore_errors=True)
    result = {"workload": wl.name, "inputs": wl.inputs,
              "wall_s": plain, "traced_wall_s": traced,
              "attempted": tally.attempted, "failed": tally.failed,
              "messages": tally.messages, "result_err": tally.result_err,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "machine": machine_facts(), "span_problems": problems,
              "op_shares": shares}
    if layer_runs:
        result["layers"] = {k: statistics.median(run[k] for run in layer_runs)
                            for k in layer_runs[0]}
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
