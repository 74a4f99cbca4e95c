"""Shorthand encoding, pump compilation, scaling."""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from combcluster import (HankelShorthand, NotHankelError, PhysAdjacency,
                         PumpCompileError, build_torus_supergraph, compile_pump,
                         lattice_pump_spectrum, matrix_of,
                         pump_file, renumber_to_block_hankel, scaling_report,
                         scaling_table, shorthand_file, shorthand_of)


# ============================================================
# Shorthand round trips
# ============================================================

def test_scalar_hankel_round_trip():
    # shorthand [0, a, 0 / b / 0, a, 0] -> 4x4 with two constant skew-diagonals
    a, b = 3, -2
    entries = [np.array([[v]]) for v in (0, a, 0, b, 0, a, 0)]
    short = HankelShorthand(entries=entries, block_side=1)
    assert short.n_blocks == 4
    assert short.corner_index == 3
    M = matrix_of(short)
    expected = np.array([[0, a, 0, b],
                         [a, 0, b, 0],
                         [0, b, 0, a],
                         [b, 0, a, 0]])
    assert np.array_equal(M.toarray(), expected)
    back = shorthand_of(M, block_side=1)
    assert [int(e[0, 0]) for e in back.entries] == [0, a, 0, b, 0, a, 0]


def test_zero_matrix_shorthand():
    short = shorthand_of(np.zeros((6, 6), dtype=np.int64), block_side=2)
    assert short.length == 2 * 3 - 1
    assert short.nonzero_indices() == []


def test_round_trip_on_renumbered_lattice(lattice6):
    result = renumber_to_block_hankel(lattice6, 6)
    short = shorthand_of(result.renumbered, block_side=2)
    assert np.array_equal(matrix_of(short).toarray(), result.renumbered.quarters)


@pytest.mark.parametrize("n,side", [(37, 1), (10, 3)])
def test_random_hankel_round_trip(n, side):
    rng = np.random.default_rng(7)
    nb = n if side == 1 else n
    entries = [rng.integers(-3, 4, size=(side, side)) for _ in range(2 * nb - 1)]
    short = HankelShorthand(entries=entries, block_side=side)
    M = matrix_of(short)
    back = shorthand_of(M, block_side=side)
    for e1, e2 in zip(short.entries, back.entries):
        assert np.array_equal(np.asarray(e1), e2)


def test_even_length_shorthand_rejected():
    with pytest.raises(NotHankelError):
        HankelShorthand(entries=[np.zeros((1, 1))] * 4, block_side=1)


def test_shorthand_rejects_bad_entry_shape():
    entries = [np.zeros((1, 1))] * 3
    entries[1] = np.zeros((2, 2))
    with pytest.raises(NotHankelError):
        HankelShorthand(entries=entries, block_side=1)
    with pytest.raises(NotHankelError):
        HankelShorthand(entries=np.zeros((3, 2, 2)), block_side=1)


def test_shorthand_of_reads_a_vector_as_one_row():
    # a 1-D input is one row, as for a 1x1 matrix, never a 1-D sparse array
    with pytest.raises(NotHankelError, match=r"got \(1, 3\)"):
        shorthand_of(np.array([1, 2, 3]))
    assert shorthand_of(np.array(5)).entries.tolist() == [[[5]]]


@pytest.mark.parametrize("A,block_side,match", [
    (np.array([[0.5]]), 1, r"entry \(0, 0\) is 0.5, not an integer"),
    (np.array([[1.9, 0], [0, 1.9]]), 1, r"entry \(0, 0\) is 1.9, not an integer"),
    (np.eye(2, dtype=np.int64), 0, "block_side must be a positive integer, got 0"),
    (np.eye(2, dtype=np.int64), -1, "block_side must be a positive integer, got -1"),
    (np.eye(2, dtype=np.int64), 1.5, "block_side must be a positive integer, got 1.5"),
])
def test_shorthand_of_refuses_what_it_cannot_read(A, block_side, match):
    # non-integer values used to be truncated and a bad block side raised
    # ZeroDivisionError or numpy's negative-dimensions error
    with pytest.raises(NotHankelError, match=match):
        shorthand_of(A, block_side=block_side)


@pytest.mark.parametrize("entries,block_side,match", [
    ([[[1.9]]], 1, r"entry \(0, 0, 0\) is 1.9, not an integer"),
    ([[[0]], [[2.5]], [[0]]], 1, r"entry \(1, 0, 0\) is 2.5, not an integer"),
    (np.array([[[0, 0], [0, 4]], [[0, 0], [np.nan, 1]], [[0, 0], [0, 0]]]),
     2, r"entry \(1, 1, 0\) is nan, not an integer"),
])
def test_shorthand_refuses_a_non_integer_entry(entries, block_side, match):
    # entries used to be cast: [[[1.9]]] became [[[1]]]
    with pytest.raises(NotHankelError, match=match):
        HankelShorthand(entries, block_side)


def test_shorthand_keeps_integral_floats_exact():
    short = HankelShorthand([[[4.0]], [[-2.0]], [[0.0]]], 1)
    assert short.entries.dtype == np.int64
    assert short.entries.ravel().tolist() == [4, -2, 0]


def test_shorthand_refuses_a_bad_block_side():
    with pytest.raises(NotHankelError, match="block_side must be a positive"):
        HankelShorthand(np.zeros((3, 0, 0)), 0)


def test_shorthand_of_reads_a_sparse_array():
    # the package's own matrix type; it used to raise TypeError
    back = shorthand_of(sp.csr_array(np.eye(2, dtype=np.int64)))
    assert back.entries.ravel().tolist() == [1, 0, 1]


@settings(max_examples=60, deadline=None)
@given(nb=st.integers(1, 12), s=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_matrix_of_is_the_sparse_block_hankel_matrix(nb, s, data):
    entries = data.draw(hnp.arrays(np.int64, (2 * nb - 1, s, s),
                                   elements=st.sampled_from([0, 0, 1, -3])))
    short = HankelShorthand(entries=entries, block_side=s)
    Q = matrix_of(short)
    # dense oracle: block (i, j) is entries[i + j]
    blocks = np.arange(nb)
    dense = entries[np.add.outer(blocks, blocks)].transpose(0, 2, 1, 3)
    assert isinstance(Q, sp.csr_array) and Q.dtype == np.int64
    assert Q.has_canonical_format and Q.nnz == np.count_nonzero(dense)
    assert np.array_equal(Q.toarray(), dense.reshape(nb * s, nb * s))
    assert np.array_equal(shorthand_of(Q, short.block_side).entries, entries)


@settings(max_examples=60, deadline=None)
@given(nb=st.integers(1, 12), s=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_codec_round_trip_and_first_violation(nb, s, data):
    entries = data.draw(hnp.arrays(np.int64, (2 * nb - 1, s, s),
                                   elements=st.integers(-3, 3)))
    Q = matrix_of(HankelShorthand(entries=entries, block_side=s)).toarray()
    assert np.array_equal(shorthand_of(Q, block_side=s).entries, entries)
    # one perturbed entry breaks its block's skew-diagonal, unless that
    # diagonal holds a single block
    r = data.draw(st.integers(0, nb * s - 1))
    c = data.draw(st.integers(0, nb * s - 1))
    Q[r, c] += 1
    d = r // s + c // s
    if d in (0, 2 * nb - 2):
        back = shorthand_of(Q, block_side=s)
        assert back.entries[d, r % s, c % s] == entries[d, r % s, c % s] + 1
        return
    with pytest.raises(NotHankelError) as err:
        shorthand_of(Q, block_side=s)
    (i1, j1), (i2, j2) = err.value.first_violation
    assert i1 + j1 == i2 + j2 == d


def test_unrenumbered_lattice_not_2x2_hankel(lattice6):
    # only the 4x4 granularity certifies before renumbering
    short4 = shorthand_of(lattice6, block_side=4)
    assert len(short4.nonzero_indices()) == 7
    with pytest.raises(NotHankelError) as err:
        shorthand_of(lattice6, block_side=2)
    assert err.value.first_violation is not None


def test_not_hankel_diagnostics():
    M = np.zeros((4, 4), dtype=np.int64)
    M[0, 1] = M[1, 0] = 1          # breaks skew-diagonal 1 constancy? no:
    M[0, 1] = 1
    M[1, 0] = 2                    # same diagonal, different values
    with pytest.raises(NotHankelError) as err:
        shorthand_of(M, block_side=1)
    (i1, j1), (i2, j2) = err.value.first_violation
    assert i1 + j1 == i2 + j2 == 1


# ============================================================
# Pump compilation
# ============================================================

def test_m6_pump_fifteen_equal_lines(lattice6):
    result = renumber_to_block_hankel(lattice6, 6)
    spectrum = compile_pump(shorthand_of(result.renumbered, block_side=2))
    assert len(spectrum.lines) == 15
    assert all(ln.amplitude == 1.0 for ln in spectrum.lines)
    ds = [ln.frequency_index for ln in spectrum.lines]
    assert ds == sorted(ds)
    assert spectrum.n_qumodes == 144
    assert spectrum.bandwidth_span == ds[-1] - ds[0] == 136
    # sign encoding: three negated blocks carry the 180-degree flag
    assert sum(ln.y_phase == 180 for ln in spectrum.lines) == 3
    pols = [ln.polarization for ln in spectrum.lines]
    assert pols == ["-45" if k % 2 == 0 else "+45" for k in range(15)]


def test_pump_line_coupled_pairs(lattice6):
    result = renumber_to_block_hankel(lattice6, 6)
    spectrum = compile_pump(shorthand_of(result.renumbered, block_side=2))
    B = result.renumbered.quarters
    nb = 72
    for ln in spectrum.lines:
        pairs = spectrum.coupled_pairs(ln)
        # the coupled pairs exactly cover this skew-diagonal's nonzero blocks
        covered = {(m, n) for m, n in pairs}
        actual = {(i, ln.frequency_index - i)
                  for i in range(max(0, ln.frequency_index - nb + 1),
                                 min(nb - 1, ln.frequency_index) + 1)
                  if np.any(B[2 * i:2 * i + 2,
                              2 * (ln.frequency_index - i):
                              2 * (ln.frequency_index - i) + 2])}
        assert covered == {(min(p), max(p)) for p in actual}


def test_all_zero_shorthand_compiles_to_empty():
    short = shorthand_of(np.zeros((8, 8), dtype=np.int64), block_side=2)
    spectrum = compile_pump(short)
    assert spectrum.lines == []
    assert spectrum.bandwidth_span == 0


def test_non_pi_block_rejected():
    entries = [np.zeros((2, 2), dtype=np.int64) for _ in range(3)]
    entries[1] = np.array([[1, 1], [1, -1]])
    with pytest.raises(PumpCompileError):
        compile_pump(HankelShorthand(entries=entries, block_side=2))


def test_mixed_magnitudes_rejected():
    entries = [np.zeros((2, 2), dtype=np.int64) for _ in range(5)]
    entries[0] = np.array([[1, 1], [1, 1]])
    entries[4] = np.array([[2, 2], [2, 2]])
    with pytest.raises(PumpCompileError):
        compile_pump(HankelShorthand(entries=entries, block_side=2))


def test_ring_is_block_hankel_under_renumbering(ring4, crown8):
    # finding: relabeling the ring macronodes (evens fixed, odds reversed)
    # puts the crown adjacency into 2x2 block-Hankel form with three
    # nonzero diagonals, so the ring compiles to a three-line pump
    n = 4
    rho = [0, 3, 2, 1]                       # macronode relabel, new -> old
    perm = np.array([2 * rho[a] + z for a in range(n) for z in (0, 1)])
    B = crown8.quarters[np.ix_(perm, perm)]
    short = shorthand_of(B, block_side=2)
    assert short.nonzero_indices() == [1, 3, 5]
    spectrum = compile_pump(short)
    assert len(spectrum.lines) == 3
    pols = {ln.frequency_index: ln.polarization for ln in spectrum.lines}
    assert pols == {1: "-45", 3: "+45", 5: "-45"}


# ============================================================
# Scaling
# ============================================================

def test_scaling_rows_m6_to_m10():
    rows = scaling_report([6, 8, 10])
    for r in rows:
        assert r.pump_lines == 15
        assert r.physical_modes == 4 * r.M ** 2
        assert r.superedges == 2 * r.M ** 2
        assert r.physical_edges == 32 * r.M ** 2
        assert r.bandwidth_span == 4 * r.M ** 2 - r.M - 2
    # edges per macronode constant across sizes
    ratios = {r.physical_edges / r.N for r in rows}
    assert ratios == {32.0}


def test_scaling_report_builds_each_size_once(monkeypatch):
    import combcluster.hankel as hk
    built = []

    def counting_build(M):
        built.append(M)
        return build_torus_supergraph(M)

    monkeypatch.setattr(hk, "build_torus_supergraph", counting_build)
    scaling_report([6, 8])
    assert built == [6, 8]


def test_scaling_table_format():
    text = scaling_table(scaling_report([6]))
    lines = text.splitlines()
    assert lines[0].split() == ["M", "N", "physical_modes", "superedges",
                                "physical_edges", "pump_lines",
                                "bandwidth_span"]
    assert lines[1].split() == ["6", "36", "144", "72", "1152", "15", "136"]


# ============================================================
# File formats
# ============================================================

def test_pump_file_layout():
    spectrum = lattice_pump_spectrum(6)
    text = pump_file(spectrum)
    lines = text.splitlines()
    assert lines[0].startswith("n_qumodes=144 block_side=2 sign_convention=")
    assert len(lines) == 16
    assert lines[1] == "d=5 amp=1 pol=-45 yphase=0"
    assert all(ln.startswith("d=") for ln in lines[1:])


def test_shorthand_file_payloads(lattice6):
    result = renumber_to_block_hankel(lattice6, 6)
    short = shorthand_of(result.renumbered, block_side=2)
    text = shorthand_file(short)
    lines = text.splitlines()
    assert lines[0] == "length=143 corner_index=71 block_side=2 nonzero=15"
    assert lines[1] == "5 pi-/2"
    assert any(ln.endswith("-pi+/2") for ln in lines)   # negated corner


def dense_first_violation(Q, s):
    """The dense block-row scan: first offending block in row-major order,
    paired with its diagonal's first block; None for a Hankel matrix."""
    nb = len(Q) // s
    V = Q.reshape(nb, s, nb, s)
    entries = np.concatenate([V[0].transpose(1, 0, 2), V[1:, :, -1]])
    E = entries.transpose(1, 0, 2)
    for i in range(1, nb):
        bad = (V[i] != E[:, i:i + nb]).any(axis=(0, 2))
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            i0 = max(0, i + j - nb + 1)
            return (i0, i + j - i0), (i, j)
    return None


def first_violation_or_none(Q, s):
    try:
        shorthand_of(Q, block_side=s)
    except NotHankelError as err:
        return err.first_violation
    return None


@settings(max_examples=80, deadline=None)
@given(nb=st.integers(1, 10), s=st.sampled_from([1, 2, 3]), data=st.data())
def test_first_violation_matches_dense_scan(nb, s, data):
    # sparse entries, then whole blocks emptied or single values changed
    entries = data.draw(hnp.arrays(np.int64, (2 * nb - 1, s, s),
                                   elements=st.sampled_from([0, 0, 1, -2])))
    Q = matrix_of(HankelShorthand(entries=entries, block_side=s)).toarray()
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, nb - 1)), data.draw(st.integers(0, nb - 1))
        if data.draw(st.booleans()):
            Q[i * s:i * s + s, j * s:j * s + s] = 0
        else:
            Q[i * s + data.draw(st.integers(0, s - 1)),
              j * s + data.draw(st.integers(0, s - 1))] += data.draw(st.integers(-2, 2))
    want = dense_first_violation(Q, s)
    assert first_violation_or_none(Q, s) == want
    assert first_violation_or_none(PhysAdjacency(Q), s) == want


def test_first_violation_is_first_in_block_row_major_order():
    # the first differing element, row by row, lies in block (1, 2); the
    # first offending block in row-major order is (1, 0)
    entries = np.ones((7, 2, 2), dtype=np.int64)
    Q = matrix_of(HankelShorthand(entries, block_side=2)).toarray()
    Q[3, 0] += 1                        # block (1, 0), its second row
    Q[2, 4] += 1                        # block (1, 2), its first row
    with pytest.raises(NotHankelError) as err:
        shorthand_of(Q, block_side=2)
    assert err.value.first_violation == ((0, 1), (1, 0))
    assert dense_first_violation(Q, 2) == ((0, 1), (1, 0))


def test_shorthand_sees_an_emptied_block(lattice6):
    B = renumber_to_block_hankel(lattice6, 6).renumbered.quarters
    # block (3, 2) lies on the nonzero skew-diagonal 5, whose entry is
    # read from block (0, 5)
    assert B[6:8, 4:6].any()
    B[6:8, 4:6] = 0
    for A in (B, PhysAdjacency(B)):
        with pytest.raises(NotHankelError) as err:
            shorthand_of(A, block_side=2)
        assert err.value.first_violation == ((0, 5), (3, 2))
