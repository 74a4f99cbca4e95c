"""One traced pass of each gated benchmark workload at its smoke sizes.

The benchmark in ``perfbench/`` wraps library functions by name; this pass
fails when one of them is renamed or deleted, or when a workload's check
no longer holds.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["cluster-sim", "cluster-reduce", "lattice-pump"])
def test_traced_smoke_pass(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import tracer
    import workloads

    out = tmp_path / "work"
    wl = workloads.WORKLOADS[name](1, workloads.SMOKE, out)
    tally = child.Tally()
    tr = tracer.Tracer()
    with tr.installed():
        child.run_pass(wl, tally, out, tr)
    assert tally.messages == []
    assert (tally.attempted, tally.failed) == (len(wl.ops), 0)
    assert tr.problems(wl.spans) == []
