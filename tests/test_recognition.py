"""Pair evaluations, USO/PUSO recognizers, and the four-way classifier."""

import functools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uso_kit import (
    ClassificationReport,
    FaceSpec,
    Outmap,
    PairEvalCounter,
    Verdict,
    classify,
    cyclic_puso,
    flip,
    is_orientation,
    is_puso,
    is_uso_fast,
    is_uso_naive,
    klee_minty,
    odd_family,
)
from uso_kit import recognition
from uso_kit.cube import face_schedule
from uso_kit.enumeration import _orientation_values
from uso_kit.recognition import _face_failures, _puso_rows

from conftest import (
    BOW,
    CYCLE,
    EMBEDDED_TWIN_PEAK,
    EYE,
    KM_3,
    TWIN_PEAK,
    outmap_functions,
    random_outmap,
)


@pytest.mark.parametrize(
    "values, verdict",
    [
        (EYE, Verdict.USO),
        (BOW, Verdict.USO),
        (TWIN_PEAK, Verdict.PUSO),
        (CYCLE, Verdict.PUSO),
        ((0, 0, 2, 3), Verdict.NOT_ORIENTATION),
        (KM_3, Verdict.USO),
        (EMBEDDED_TWIN_PEAK, Verdict.OTHER),
    ],
)
def test_classify_fixed_cases(values, verdict):
    n = (len(values) - 1).bit_length()
    assert classify(Outmap(n, values)).verdict is verdict


def test_classifier_reports_smallest_failing_face():
    report = classify(Outmap(3, EMBEDDED_TWIN_PEAK))
    assert report.verdict is Verdict.OTHER
    assert report.puso_face == FaceSpec(0b000, 0b011)
    assert report.witness == (0b000, 0b011)


def test_puso_report_carries_whole_cube_face():
    report = classify(Outmap(2, TWIN_PEAK))
    assert report.puso_face == FaceSpec(0, 3)


def test_not_orientation_witness_is_bad_edge():
    phi = Outmap(2, (0, 0, 2, 3))     # edge 00-10 directed both ways
    ok, witness = is_orientation(phi)
    assert not ok
    assert witness == (0, 1)
    report = classify(phi)
    assert report.verdict is Verdict.NOT_ORIENTATION
    assert (report.witness[0] ^ report.witness[1]).bit_count() == 1


def test_zero_and_one_dimensional():
    assert classify(Outmap(0, (0,))).verdict is Verdict.USO
    assert classify(Outmap(1, (1, 0))).verdict is Verdict.USO
    assert classify(Outmap(1, (0, 0))).verdict is Verdict.NOT_ORIENTATION
    assert classify(Outmap(1, (1, 1))).verdict is Verdict.NOT_ORIENTATION


def test_fast_check_uses_exact_budget():
    """One antipodal pair per face of dimension >= 1: 3**n - 2**n evaluations."""
    for n, values in [(0, (0,)), (1, (1, 0)), (2, EYE), (3, KM_3)]:
        counter = PairEvalCounter()
        assert is_uso_fast(Outmap(n, values), counter)
        assert counter.count == 3**n - 2**n


def test_fast_budget_holds_on_failures_too():
    # the budget stays 3**n - 2**n though the scan stops early
    for values in (TWIN_PEAK, CYCLE, (0, 0, 2, 3)):
        counter = PairEvalCounter()
        assert not is_uso_fast(Outmap(2, values), counter)
        assert counter.count == 3**2 - 2**2


def _spy_stages(monkeypatch):
    """Record the dimension stages the face scan reads, and the faces in each."""
    stages = []
    blocks = recognition._dimension_blocks

    def spy(hoff, loff, prev, d):
        found = blocks(hoff, loff, prev, d)
        stages.append(((prev, d), sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in found)))
        return found

    monkeypatch.setattr(recognition, "_dimension_blocks", spy)
    return stages


def test_fast_check_on_a_bad_edge_reads_only_the_edge_slice(monkeypatch):
    """One scan: an inconsistent edge stops it after the n * 2**(n-1) edges, at the full charge."""
    values = list(klee_minty(12).values)
    values[0b101] ^= 1 << 3  # the edge at vertex 0b101 along coordinate 4 now fails
    stages = _spy_stages(monkeypatch)
    counter = PairEvalCounter()
    assert not is_uso_fast(Outmap(12, tuple(values)), counter)
    assert stages == [((0, 1), 12 << 11)]
    assert counter.count == 3**12 - 2**12


@pytest.mark.parametrize("n", [3, 4, 12, 16])
def test_face_scan_reads_each_face_once_by_dimension(monkeypatch, n):
    """Each face once: all at once up to n = 10, else the edges, the 2-faces, then the rest;
    is_orientation reads only the edges; and only the two halves' schedules are built,
    never the n-cube's."""
    recognition._product_halves.cache_clear()
    built = []
    schedule = recognition.face_schedule

    def spy(k):
        built.append(k)
        return schedule(k)

    monkeypatch.setattr(recognition, "face_schedule", spy)
    stages = _spy_stages(monkeypatch)
    edges, squares, total = n << n >> 1, comb(n, 2) << n - 2, 3**n - 2**n
    counter = PairEvalCounter()
    assert is_uso_fast(klee_minty(n), counter)
    if n <= 10:
        assert stages == [((0, n), total)]
    else:
        assert stages == [((0, 1), edges), ((1, 2), squares), ((2, n), total - edges - squares)]
    assert counter.count == total
    K = recognition._product_halves(n)[0]
    assert set(built) == {K, n - K}
    assert max(built) == n - K < n
    stages.clear()
    counter = PairEvalCounter()
    assert is_orientation(klee_minty(n), counter) == (True, None)
    assert stages == [((0, 1), edges)]
    assert counter.count == edges


def test_schedule_position_is_the_face_schedule_index():
    """The closed-form position of every face, n <= 8, is its index in face_schedule(n)."""
    for n in range(9):
        lowers, uppers = face_schedule(n)
        faces = zip(lowers.tolist(), uppers.tolist())
        positions = [recognition._schedule_position(n, FaceSpec(lo, up)) for lo, up in faces]
        assert positions == list(range(3**n - 2**n))


def test_naive_scans_all_pairs_on_usos():
    counter = PairEvalCounter()
    report = is_uso_naive(Outmap(3, KM_3), counter)
    assert report.verdict is Verdict.USO
    assert counter.count == 8 * 7 // 2


def _pair_loop(phi):
    """The pair-by-pair scan: (first failing pair (u, v), u < v, or None; pairs evaluated)."""
    values, size = phi.values, 1 << phi.n
    used = 0
    for u in range(size):
        for v in range(u + 1, size):
            used += 1
            if not (values[u] ^ values[v]) & (u ^ v):
                return (u, v), used
    return None, used


@functools.lru_cache(maxsize=None)
def _pair_loop_cases():
    """Seeded random functions at n = 0..6, and flipped Klee-Minty cubes, alone and
    with one bit or one edge reversed, at n = 2..10, each with its pair-loop scan."""
    rng = random.Random(3204)
    cases = [random_outmap(n, rng) for n in range(7) for _ in range(40)]
    for n in range(2, 11):
        for _ in range(3):
            values = list(flip(klee_minty(n), rng.getrandbits(n)).values)
            v, e = rng.getrandbits(n), 1 << rng.randrange(n)
            bit, edge = values.copy(), values.copy()
            bit[v] ^= e
            edge[v] ^= e
            edge[v ^ e] ^= e
            cases += [Outmap(n, tuple(vals)) for vals in (values, bit, edge)]
    return [(phi, *_pair_loop(phi)) for phi in cases]


@pytest.mark.parametrize("block", [1, 8, 64, recognition._PAIR_BLOCK])
def test_naive_matches_the_pair_loop(block, monkeypatch):
    """is_uso_naive's witness and count are the pair loop's, at any tile size, and its
    verdict and puso_face are those of the face classify finds."""
    monkeypatch.setattr(recognition, "_PAIR_BLOCK", block)
    verdicts = set()
    for phi, witness, used in _pair_loop_cases():
        report = classify(phi)
        if witness is None:
            assert report.verdict is Verdict.USO
        else:
            used += report.pair_evals_used
        counter = PairEvalCounter()
        naive = is_uso_naive(phi, counter)
        assert naive == ClassificationReport(report.verdict, witness, report.puso_face, used)
        assert counter.count == used
        verdicts.add(naive.verdict)
    assert verdicts == set(Verdict)


def test_exhaustive_two_dimensional_function_space():
    """All 256 outmap functions of the 2-cube, fast vs naive, known class sizes."""
    verdict_counts = {v: 0 for v in Verdict}
    total = 0
    for phi in outmap_functions(2):
        total += 1
        fast = is_uso_fast(phi)
        report = is_uso_naive(phi)
        assert fast == (report.verdict is Verdict.USO)
        assert report.verdict is classify(phi).verdict
        assert is_puso(phi) == (report.verdict is Verdict.PUSO)
        verdict_counts[report.verdict] += 1
    assert total == 4 ** (2**2)
    assert verdict_counts[Verdict.USO] == 12
    assert verdict_counts[Verdict.PUSO] == 4
    assert verdict_counts[Verdict.OTHER] == 0    # every 2-face is the whole cube
    assert verdict_counts[Verdict.NOT_ORIENTATION] == 256 - 16


def test_puso_needs_at_least_two_dimensions():
    assert not is_puso(Outmap(0, (0,)))
    assert not is_puso(Outmap(1, (1, 0)))
    assert not is_puso(Outmap(1, (0, 0)))


def test_antipodal_failures_on_pusos():
    """A PUSO fails every one of its 2**(n-1) whole-cube antipodal pairs."""

    def antipodal_failures(values):
        full = len(values) - 1  # the antipode of v in the whole cube is v ^ full
        return sum(not (values[v] ^ values[v ^ full]) & full for v in range(len(values) // 2))

    assert antipodal_failures(TWIN_PEAK) == 2
    assert antipodal_failures(CYCLE) == 2
    assert antipodal_failures(EYE) == 0
    assert antipodal_failures(EMBEDDED_TWIN_PEAK) == 0


def test_random_outmaps_fast_equals_naive():
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.choice((3, 4))
        phi = Outmap(n, tuple(rng.getrandbits(n) for _ in range(1 << n)))
        assert is_uso_fast(phi) == (is_uso_naive(phi).verdict is Verdict.USO)


def _assert_recognizers_agree(phi):
    """is_orientation and is_uso_naive read the first failing face classify finds."""
    counters = [PairEvalCounter() for _ in range(3)]
    report = classify(phi, counters[0])
    ok, edge = is_orientation(phi, counters[1])
    naive = is_uso_naive(phi, counters[2])
    if report.verdict is Verdict.NOT_ORIENTATION:
        v, i = edge
        assert not ok and report.witness == (v, v | 1 << (i - 1))
        assert counters[1].count == counters[0].count
    else:
        assert ok and edge is None
        assert counters[1].count == phi.n * (1 << phi.n) // 2
    assert (naive.verdict, naive.puso_face) == (report.verdict, report.puso_face)
    size = 1 << phi.n
    if naive.witness is None:
        assert counters[2].count == size * (size - 1) // 2
    else:
        u, v = naive.witness
        pairs = u * (size - 1) - u * (u - 1) // 2 + (v - u)
        assert counters[2].count == pairs + counters[0].count
    return report.verdict


def test_recognizers_agree_on_the_first_failing_face():
    verdicts = {_assert_recognizers_agree(phi) for phi in outmap_functions(2)}
    rng = random.Random(4077)
    for n in (0, 1, 3, 4, 5):
        for _ in range(3000):
            verdicts.add(_assert_recognizers_agree(random_outmap(n, rng)))
    for n in range(2, 8):
        for base in (klee_minty(n), cyclic_puso(n)):
            verdicts.add(_assert_recognizers_agree(flip(base, rng.getrandbits(n))))
    # klee_minty(4) with the edge at vertex 0 along coordinate 2 reversed
    values = list(klee_minty(4).values)
    values[0] ^= 0b10
    values[0b10] ^= 0b10
    other = Outmap(4, tuple(values))
    assert _assert_recognizers_agree(other) is Verdict.OTHER
    assert classify(other).puso_face == FaceSpec(0, 0b11)
    assert verdicts == set(Verdict)


def _first_failing_faces(batch, n):
    """The oracle: one whole-schedule kernel call, the first failing face of each row or None."""
    fails = _face_failures(np.asarray(batch), n)
    return [int(row.argmax()) if row.any() else None for row in fails]


def _assert_classify_reads_the_oracle_face(phi, f):
    lowers, uppers = face_schedule(phi.n)
    report = classify(phi)
    if f is None:
        assert report.verdict is Verdict.USO
        assert report.pair_evals_used == 3**phi.n - 2**phi.n
        return
    face = FaceSpec(int(lowers[f]), int(uppers[f]))
    assert report.witness == (face.lower, face.upper)
    assert report.puso_face == (None if face.dim == 1 else face)
    assert report.pair_evals_used == f + 1


def _with_two_cycle(phi, rng):
    """phi with one random 2-face's carrier bits replaced by a 2-cycle, which stays an orientation."""
    a, b = (1 << i for i in rng.sample(range(phi.n), 2))
    v = rng.getrandbits(phi.n) & ~(a | b)
    values = list(phi.values)
    for u, out in ((v, a), (v | a, b), (v | a | b, a), (v | b, b)):
        values[u] = values[u] & ~(a | b) | out
    return Outmap(phi.n, tuple(values))


def test_face_scan_agrees_with_the_whole_schedule_oracle():
    """classify's product scan stops at the first failing face of one whole-schedule call."""
    vals = _orientation_values(3)
    for row, f in zip(vals, _first_failing_faces(vals, 3)):
        _assert_classify_reads_the_oracle_face(Outmap(3, tuple(row.tolist())), f)

    rng = random.Random(2601)
    batch = [random_outmap(4, rng) for _ in range(200)]
    for base in (klee_minty(4), cyclic_puso(4)):
        for _ in range(100):
            phi = flip(base, rng.getrandbits(4))
            batch += [phi, _with_two_cycle(phi, rng)]
    firsts = _first_failing_faces([phi.values for phi in batch], 4)
    for phi, f in zip(batch, firsts):
        _assert_classify_reads_the_oracle_face(phi, f)
    # the 4-cube's edges are faces 0..31, its 2- and 3-faces 32..63, and 64 is the whole cube
    assert {None, 64} <= set(firsts)
    assert any(f < 32 for f in firsts if f is not None)
    assert any(32 <= f < 64 for f in firsts if f is not None)

    for n in (10, 12):
        firsts = []
        for base in (klee_minty(n), cyclic_puso(n)):
            for _ in range(3):
                phi = flip(base, rng.getrandbits(n))
                for psi in (phi, _with_two_cycle(phi, rng)):
                    firsts += _first_failing_faces([psi.values], n)
                    _assert_classify_reads_the_oracle_face(psi, firsts[-1])
        assert {None, 3**n - 2**n - 1} <= set(firsts)
        # a 2-cycle fails on a 2-face past the first 2 * n * 2**(n-1) faces, before the whole cube
        assert any(2 * (n << n >> 1) <= f < 3**n - 2**n - 1 for f in firsts if f is not None)


def _puso_product(n, groups, rng):
    """Flipped cyclic PUSOs on the coordinate groups times a flipped Klee-Minty cube on the
    other coordinates.  A face fails when it spans a whole group, so the first failing
    faces are the smallest groups', and two equal groups compete by their carriers."""
    rest = [c for c in range(n) if not any(c in group for group in groups)]
    parts = [(group, flip(cyclic_puso(len(group)), rng.getrandbits(len(group))))
             for group in groups]
    parts.append((rest, flip(klee_minty(len(rest)), rng.getrandbits(len(rest)))))

    def value(v):
        out = 0
        for coords, phi in parts:
            x = phi[sum((v >> c & 1) << i for i, c in enumerate(coords))]
            out |= sum((x >> i & 1) << c for i, c in enumerate(coords))
        return out

    return Outmap(n, tuple(value(v) for v in range(1 << n)))


def _assert_scans_read_the_oracle(phi):
    """classify and is_orientation report the (count, face) of a face-by-face scan of
    the whole schedule; returns the dimension of the first failing face, or None."""
    n, edges = phi.n, phi.n << phi.n >> 1
    (f,) = _first_failing_faces([phi.values], n)
    _assert_classify_reads_the_oracle_face(phi, f)
    counter = PairEvalCounter()
    ok, edge = is_orientation(phi, counter)
    if f is None:
        assert (ok, edge, counter.count) == (True, None, edges)
        return None
    lower, upper = (int(side[f]) for side in face_schedule(n))
    if f >= edges:
        assert (ok, edge, counter.count) == (True, None, edges)
    else:
        assert (ok, edge, counter.count) == (False, (lower, (lower ^ upper).bit_length()), f + 1)
    return (lower ^ upper).bit_count()


@st.composite
def scan_inputs(draw):
    """One outmap of dimension n <= 10: a flipped Klee-Minty cube, alone or with one bit
    or one edge reversed, a flipped cyclic PUSO, PUSOs times a USO, a flipped odd_family
    7-cube, or an arbitrary function."""
    kind = draw(st.sampled_from(("uso", "puso", "product", "odd", "function")))
    n = 7 if kind == "odd" else draw(st.integers(2 if kind in ("puso", "product") else 0, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "function":
        return random_outmap(n, rng)
    if kind == "puso":
        return flip(cyclic_puso(n), rng.getrandbits(n))
    if kind == "product":  # one PUSO of dimension >= 2, or two of dimension 2 or 3
        coords = rng.sample(range(n), n)
        size = draw(st.integers(2, n if n < 4 else 3))
        groups = [coords[:size]]
        if n >= 2 * size and draw(st.booleans()):
            groups.append(coords[size : 2 * size])
        return _puso_product(n, groups, rng)
    base = odd_family(8, rng.getrandbits(16)) if kind == "odd" else klee_minty(n)
    values = list(flip(base, rng.getrandbits(n)).values)
    change = draw(st.sampled_from(("none", "bit", "edge"))) if n else "none"
    if change != "none":
        v, e = rng.getrandbits(n), 1 << rng.randrange(n)
        values[v] ^= e
        if change == "edge":
            values[v ^ e] ^= e
    return Outmap(n, tuple(values))


@given(scan_inputs())
@settings(max_examples=200, deadline=None)
def test_product_scan_agrees_with_the_whole_schedule_oracle(phi):
    _assert_scans_read_the_oracle(phi)


def test_product_scan_agrees_with_the_oracle_at_n_11_to_14():
    """Seeded flipped Klee-Minty cubes, alone and with one bit or one edge reversed, cyclic
    PUSOs and PUSOs times USOs: the first failing face of each dimension class is found,
    also where a later block of the scan holds a smaller face of the same dimension."""
    rng = random.Random(3311)
    for n in range(11, 15):
        base = flip(klee_minty(n), rng.getrandbits(n))
        bit, edge = list(base.values), list(base.values)
        v, e = rng.getrandbits(n), 1 << rng.randrange(n)
        bit[v] ^= e
        edge[v] ^= e
        edge[v ^ e] ^= e
        phis = [base, Outmap(n, tuple(bit)), Outmap(n, tuple(edge))]
        phis.append(flip(cyclic_puso(n), rng.getrandbits(n)))
        phis += [_puso_product(n, [rng.sample(range(n), d)], rng) for d in (3, n // 2, n - 1)]
        dims = [_assert_scans_read_the_oracle(phi) for phi in phis]
        assert dims[0] is None and dims[1] == 1 and dims[3] == n
        assert dims[4:] == [3, n // 2, n - 1]
        # {0, n - 1} is read before {k, k + 1}, which comes first; the same with three coordinates
        k = n // 2
        for small, large in (([k, k + 1], [0, n - 1]), ([k, k + 1, k + 2], [0, 1, n - 1])):
            phi = _puso_product(n, [large, small], rng)
            _assert_scans_read_the_oracle(phi)
            assert classify(phi).puso_face.carrier == sum(1 << c for c in small)


@st.composite
def outmap_batches(draw):
    """Up to four outmaps of one dimension n <= 6: flipped USOs and PUSOs,
    the same with one edge reversed, and arbitrary functions."""
    n = draw(st.integers(0, 6))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("uso", "puso", "function")))
        if kind == "function" or (kind == "puso" and n < 2):
            values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
        else:
            base = klee_minty(n) if kind == "uso" else cyclic_puso(n)
            values = list(flip(base, draw(st.integers(0, (1 << n) - 1))).values)
            if n and draw(st.booleans()):
                v, e = draw(st.integers(0, (1 << n) - 1)), 1 << draw(st.integers(0, n - 1))
                values[v] ^= e
                values[v ^ e] ^= e
        batch.append(Outmap(n, tuple(values)))
    return batch


@given(outmap_batches())
@settings(max_examples=150, deadline=None)
def test_batch_face_kernel_agrees_with_naive(batch):
    """Each row of one kernel call over a (k, 2**n) matrix gives the naive verdict."""
    n = batch[0].n
    fails = _face_failures(np.array([phi.values for phi in batch]), n)
    assert fails.shape == (len(batch), 3**n - 2**n)
    for row, puso, phi in zip(fails, _puso_rows(fails, n), batch):
        verdict = is_uso_naive(phi).verdict
        assert (not row.any()) == (verdict is Verdict.USO)
        assert bool(puso) == (verdict is Verdict.PUSO)
