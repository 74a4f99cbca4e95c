import io
import os
from pathlib import Path

import numpy as np
import pytest

import combcluster

from combcluster import (build_ring_supergraph, build_torus_supergraph,
                         expand)


def written(writer, *args) -> str:
    """The text that ``writer(*args, fh)`` writes to its text stream fh."""
    fh = io.StringIO()
    writer(*args, fh)
    return fh.getvalue()


@pytest.fixture(scope="session")
def torus6():
    return build_torus_supergraph(6)


@pytest.fixture(scope="session")
def lattice6(torus6):
    return expand(torus6)


@pytest.fixture(scope="session")
def ring4():
    return build_ring_supergraph(4)


@pytest.fixture(scope="session")
def crown8(ring4):
    return expand(ring4)


@pytest.fixture(scope="session")
def two_mode():
    return np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="session")
def child_env():
    """Environment of a child python that imports this same package."""
    src = str(Path(combcluster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
