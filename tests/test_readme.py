"""README's quick tour runs as written, and its comments hold."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first ```python block after the "## Quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_quick_tour_runs_and_its_comments_hold():
    namespace = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    assert namespace["A"].n == 144
    assert namespace["cc"].check_orthogonal(namespace["A"]).is_orthogonal
    assert len(namespace["pump"].lines) == 15
    conv = namespace["conv"]
    assert conv.state.n == 144
    assert np.allclose(conv.nullifiers.variances, np.exp(-4.0), atol=1e-12)
    assert conv.nullifiers.max_variance == pytest.approx(np.exp(-4.0))
