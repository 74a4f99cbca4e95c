"""Span tracer that wraps combcluster's layer functions from outside.

The library has no instrumentation of its own, so the tracer replaces each
layer function, in every namespace that binds it, with a wrapper that
records a span (name, start, end, parent, op id) and counts calls and
errors per layer.  `installed()` restores every binding on exit.  Spans are
kept in memory; `write_jsonl` writes them out at the end of a run.

A layer's self time is its spans' durations minus the part covered by their
child spans.  Each operation gets a root span named "op"; its self time is
the time no layer span covers (argument parsing, file writing), reported as
``cli.self_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import combcluster
from combcluster import cli, gaussian, hankel, lattice, verify

# Module-level function -> span name.  The layer is the part before the dot.
FUNCTION_SPANS = {
    lattice: {
        "build_torus_supergraph": "lattice.build",
        "build_ring_supergraph": "lattice.build",
        "expand": "lattice.build",
        "coordinates": "lattice.build",
        "check_orthogonal": "lattice.orthogonal",
        "bicoloring": "lattice.bicolor",
        "export_triplets": "lattice.export",
        "export_super_triplets": "lattice.export",
        "export_dot": "lattice.export",
        "renumber_to_block_hankel": "lattice.renumber",
    },
    hankel: {
        "shorthand_of": "hankel.shorthand",
        "matrix_of": "hankel.shorthand",
        "compile_pump": "hankel.pump",
        "lattice_pump_spectrum": "hankel.pump",
        "scaling_report": "hankel.pump",
        "pump_file": "hankel.files",
        "shorthand_file": "hankel.files",
        "scaling_table": "hankel.files",
    },
    gaussian: {
        "vacuum": "gaussian.evolve",
        "evolve": "gaussian.evolve",
        "evolution_symplectic": "gaussian.evolve",
        "rotate_color_class": "gaussian.rotate",
        "best_phase_convention": "gaussian.convention",
        "nullifier_variances": "gaussian.nullifier",
        "measure_q": "gaussian.measure",
        "effective_graph": "gaussian.effective_graph",
        "reduce_and_cut": "gaussian.reduce",
        "ideal_graph_delete": "gaussian.reduce",
        "lattice_cut_nodes": "gaussian.reduce",
        "support_graph_stats": "gaussian.reduce",
        "nullifier_table": "gaussian.format",
        "nullifier_records": "gaussian.format",
        "effective_graph_dump": "gaussian.format",
    },
    verify: {
        "ode_oracle_covariance": "verify.oracle",
        "walk_refutation": "verify.walk",
        "outer_support": "verify.walk",
        "layout_outer_support": "verify.walk",
        "criterion_exact_orthogonality": "verify.criteria",
        "criterion_block_hankel_structure": "verify.criteria",
        "criterion_pump_constancy": "verify.criteria",
        "criterion_evolution_oracle": "verify.criteria",
        "criterion_nullifier_decay": "verify.criteria",
        "criterion_crown_to_ring": "verify.criteria",
        "criterion_layer_reduction": "verify.criteria",
        "criterion_torus_cut": "verify.criteria",
        "run_criteria": "verify.criteria",
        "render_report": "verify.criteria",
        "verify_all": "verify.criteria",
    },
}

# (class, method) -> span name.
METHOD_SPANS = {(gaussian.GaussianState, "purity_defect"): "gaussian.purity"}

LAYERS = ("lattice", "hankel", "gaussian", "verify")
SPAN_NAMES = sorted({s for spans in FUNCTION_SPANS.values()
                     for s in spans.values()} | set(METHOD_SPANS.values()))

# Every namespace that may bind a layer function: the layer modules bind
# each other's functions through from-imports (hankel binds expand,
# build_torus_supergraph and renumber_to_block_hankel), the package
# re-exports them.
NAMESPACES = (combcluster, lattice, hankel, gaussian, verify, cli)


def _count_results(counts: Counter, fn_name: str, result) -> None:
    """Counters computed from a layer call's result."""
    if fn_name == "expand":
        counts["lattice.dense_bytes"] += 8 * result.n ** 2
    elif fn_name == "evolve":
        counts["gaussian.modes"] += result.n
    elif fn_name == "walk_refutation" and result is not None:
        counts["verify.walk_k"] = max(counts["verify.walk_k"], result[0])


class Tracer:
    """Collects spans and counters while `installed()` is active."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op_labels = []      # indexed by op id
        self._stack = []

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        fn_name = fn.__name__
        spans, stack, counts, ops = self.spans, self._stack, self.counts, self.op_labels

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(ops) - 1]
            stack.append(len(spans))
            spans.append(rec)
            counts[layer + ".calls"] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[layer + ".errors"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _count_results(counts, fn_name, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every layer function; restore on exit."""
        patches = []   # (owner, attribute, original)
        try:
            for module, table in FUNCTION_SPANS.items():
                for fn_name, span in table.items():
                    original = getattr(module, fn_name)
                    wrapper = self._wrap(span, original)
                    for ns in NAMESPACES:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                patches.append((ns, attr, original))
                                setattr(ns, attr, wrapper)
            for (cls, meth), span in METHOD_SPANS.items():
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
            cls = gaussian.GaussianState
            post_init = cls.__dict__["__post_init__"]
            counts = self.counts

            def counting_post_init(state):
                post_init(state)
                counts["gaussian.cov_bytes"] += 8 * state.mean.size ** 2

            patches.append((cls, "__post_init__", post_init))
            cls.__post_init__ = counting_post_init
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one operation; layer spans inside it are its children."""
        self.op_labels.append(label)
        rec = ["op", 0.0, 0.0, -1, len(self.op_labels) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def self_time_by_name(self) -> dict:
        totals = defaultdict(float)
        for (name, *_), t in zip(self.spans, self.self_times()):
            totals[name] += t
        return dict(totals)

    def op_shares(self, top: int = 4) -> list:
        """Per operation: label, wall time, and its largest self-time shares."""
        walls = {}
        totals = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, op_id), t in zip(self.spans, self.self_times()):
            totals[op_id]["cli.self" if name == "op" else name] += t
            if name == "op":
                walls[op_id] = end - start
        return [{"op": self.op_labels[op_id], "wall_s": wall,
                 "shares": sorted(((n, t / wall) for n, t in totals[op_id].items()),
                                  key=lambda kv: -kv[1])[:top]}
                for op_id, wall in sorted(walls.items())]

    def problems(self, expected_spans) -> list:
        """Consistency of the recorded spans; empty when all checks hold.

        Every expected span name appears; children lie inside their parent;
        no self time is negative; and per operation the layer self times
        plus the op span's own self time add up to the op's wall time.
        """
        out = []
        seen = {s[0] for s in self.spans}
        missing = sorted(set(expected_spans) - seen)
        if missing:
            out.append(f"spans missing: {missing}")
        selfs = self.self_times()
        op_wall = {}
        op_sum = defaultdict(float)
        for (name, start, end, parent, op_id), t in zip(self.spans, selfs):
            if parent >= 0:
                _, ps, pe, _, _ = self.spans[parent]
                if start < ps or end > pe:
                    out.append(f"span {name} lies outside its parent")
            if t < -1e-9:
                out.append(f"span {name} has negative self time {t:.3g}")
            if name == "op":
                op_wall[op_id] = end - start
            op_sum[op_id] += t
        for op_id, wall in op_wall.items():
            if abs(op_sum[op_id] - wall) > 1e-9 + 1e-9 * wall:
                out.append(f"op {op_id}: self times sum to {op_sum[op_id]:.9f} s, "
                           f"wall {wall:.9f} s")
        return out

    def write_jsonl(self, path, tag: dict) -> None:
        with open(path, "a") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({**tag, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op_id,
                                     "op_label": self.op_labels[op_id]}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass (self times and counts)."""
    selfs = tracer.self_time_by_name()
    out = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
    out["cli.self_s"] = selfs.get("op", 0.0)
    for key in ("lattice.dense_bytes", "gaussian.cov_bytes", "gaussian.modes",
                "verify.walk_k"):
        out[key] = tracer.counts[key]
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.counts[f"{layer}.calls"]
        out[f"{layer}.errors"] = tracer.counts[f"{layer}.errors"]
    return out
