"""Border and odd characterizations, duality, caps, PUSO parity."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uso_kit import (
    FaceSpec,
    NotAPusoError,
    NotAUsoError,
    NotBijectiveError,
    Outmap,
    PairEvalCounter,
    Parity,
    Verdict,
    all_faces_caps,
    classify,
    complementary_pairs,
    complementary_vertex,
    cyclic_puso,
    dual,
    enumerate_odd,
    enumerate_pusos,
    enumerate_usos,
    extend_border,
    face_sinks,
    faces_iter,
    flip,
    is_border,
    is_cap,
    is_odd,
    is_puso,
    is_uso_fast,
    is_uso_naive,
    klee_minty,
    odd_family,
    puso_parity,
    random_uso,
)
from uso_kit import classes, cube, enumeration, recognition

from conftest import (
    BORDER_3,
    BOW,
    CYCLE,
    EMBEDDED_TWIN_PEAK,
    EYE,
    KM_3,
    TWIN_PEAK,
    random_outmap,
)


def test_dual_fixed_pair(border_3, km_3):
    assert dual(border_3) == km_3
    assert dual(km_3) == border_3


def test_dual_rejects_collisions(twin_peak):
    with pytest.raises(NotBijectiveError):
        dual(twin_peak)


def test_border_and_odd_on_fixed_outmaps(border_3, km_3, eye, bow):
    assert is_border(border_3)[0]
    assert not is_odd(border_3)[0]
    assert is_odd(km_3)[0]
    assert not is_border(km_3)[0]
    assert is_odd(bow)[0]
    assert is_border(bow)[0]      # 2-dimensional bows are both
    assert not is_odd(eye)[0]
    assert not is_border(eye)[0]


def test_border_witness_is_a_violating_pair(eye):
    ok, witness = is_border(eye)
    assert not ok
    assert witness == (0b00, 0b11)
    u, v = witness
    diff = eye[u] ^ eye[v]
    assert diff & ~(u ^ v) == 0
    assert diff.bit_count() % 2 == 0


def test_odd_witness_is_a_violating_pair(border_3):
    ok, witness = is_odd(border_3)
    assert not ok
    u, v = witness
    assert (u ^ v) & ~(border_3[u] ^ border_3[v]) == 0
    assert (u ^ v).bit_count() % 2 == 0


def _pair_fails(phi, u, v, odd):
    duv, diff = u ^ v, phi[u] ^ phi[v]
    inner, outer = (duv, diff) if odd else (diff, duv)
    return not inner & ~outer and not inner.bit_count() & 1


def _scan_reference(phi, odd):
    """Pair-by-pair containment scan: (ok, witness, pairs evaluated)."""
    size = 1 << phi.n
    used = 0
    for u in range(size):
        for v in range(u + 1, size):
            used += 1
            if _pair_fails(phi, u, v, odd):
                return False, (u, v), used
    return True, None, used


def _reversed_edge_klee_minty(n):
    """klee_minty(n) with the coordinate-1 edge at vertex 2**n - 4 reversed.

    The edge's endpoints differ only in coordinate 1, so the result is still
    a USO; its first odd violation lies deep in the pair order.
    """
    values = list(klee_minty(n).values)
    values[(1 << n) - 4] ^= 1
    values[(1 << n) - 3] ^= 1
    return Outmap(n, tuple(values))


def _product_uso(n, seed):
    """USO of the n-cube from a klee_minty outer cube over 4 low coordinates
    whose inner 4-USO is drawn anew at every outer vertex.

    The low coordinates may depend on the outer vertex while the outer
    coordinates do not depend on the low ones, so the result is a USO.
    Its first odd and border violations lie in row 0, at varied V.
    """
    rng = random.Random(seed)
    outer = klee_minty(n - 4)
    inners = [random_uso(4, rng).values for _ in outer.values]
    return Outmap(n, tuple(
        inners[v >> 4][v & 15] | outer.values[v >> 4] << 4 for v in range(1 << n)
    ))


def test_containment_scan_matches_pair_by_pair_reference():
    # n = 1 has one pair, at odd distance with an odd value difference, so
    # no 1-cube USO fails either scan
    usos = list(enumerate_usos(1)) + list(enumerate_usos(3))
    for phi in list(enumerate_odd(4))[::50]:
        usos += [phi, dual(phi)]
    usos += [klee_minty(n) for n in range(9)]
    # n = 9, 10 and odd_family members, failing after many rows or passing
    # after all pairs, so the counter's closed form is checked far out
    for n in (9, 10):
        late = _reversed_edge_klee_minty(n)
        usos += [dual(flip(klee_minty(n), 0b101)), late, dual(late)]
    usos += [dual(odd_family(8, selector)) for selector in (0, 12345)]
    # n = 7 and 12, failing both scans in row 0
    usos += [_product_uso(n, seed) for n in (7, 12) for seed in (0, 1)]
    for phi in usos:
        budget = 3**phi.n - 2**phi.n
        for scan, odd in ((is_odd, True), (is_border, False)):
            counter = PairEvalCounter()
            ok, witness = scan(phi, counter)
            want_ok, want_witness, used = _scan_reference(phi, odd)
            assert (ok, witness, counter.count) == (want_ok, want_witness, budget + used)


def _offset_scan(phi, odd):
    """Offset-grouped gather scan: (ok, witness, pairs evaluated).

    odd=True and odd=False scan the odd and the border condition, and
    odd=None the USO condition, which fails a pair when diff & d == 0.
    Pairs are grouped by the offset d = U XOR V.  With j the top coordinate
    of d, U < V exactly when U lacks j, so the offsets with top coordinate j
    run against the vertices that lack j, gathering phi(U XOR d).  The
    second method the broadcast tiles are checked against where the
    pair-by-pair reference is too slow.
    """
    n, size = phi.n, 1 << phi.n
    verts = np.arange(size)
    vals = np.asarray(phi.values, dtype=np.int64)
    parity = np.zeros(size, dtype=bool)
    for pos in range(n):
        parity ^= (verts >> pos & 1).astype(bool)
    value_parity = parity[vals]
    best = None
    for j in range(n):
        us = verts[verts >> j & 1 == 0]
        offsets = np.arange(1 << j, 2 << j)
        if odd:
            # a pair at odd distance never fails the odd condition
            offsets = offsets[parity[offsets] == 0]
        step = max(1, (1 << 16) // len(us))
        for k in range(0, len(offsets), step):
            d = offsets[k : k + step, None]
            vs = us ^ d
            diff = vals[us] ^ vals[vs]
            if odd is None:
                bad = diff & d == 0
            elif odd:
                bad = diff & d == d
            else:
                bad = (diff & ~d == 0) & (value_parity[us] == value_parity[vs])
            if bad.any():
                rank, col = np.nonzero(bad)
                key = int((us[col] << n | vs[rank, col]).min())
                best = key if best is None else min(best, key)
    if best is None:
        return True, None, size * (size - 1) // 2
    u, v = divmod(best, size)
    return False, (u, v), sum(size - 1 - w for w in range(u)) + v - u


def _assert_scans_match(phi, oracle):
    budget = 3**phi.n - 2**phi.n
    for scan, odd in ((is_odd, True), (is_border, False)):
        counter = PairEvalCounter()
        ok, witness = scan(phi, counter)
        want_ok, want_witness, used = oracle(phi, odd)
        assert (ok, witness, counter.count) == (want_ok, want_witness, budget + used)


@pytest.mark.parametrize("n", range(9, 14))
def test_containment_scan_matches_offset_gather_oracle(n):
    rng = random.Random(n)
    late = _reversed_edge_klee_minty(n)
    usos = [flip(klee_minty(n), rng.getrandbits(n)), late, dual(late), _product_uso(n, n)]
    if n == 9:
        # odd_family members live in dimensions 3, 7 and 15; 7 is in reach
        for selector in (0, 12345, 65535):
            member = flip(odd_family(8, selector), rng.getrandbits(7))
            usos += [member, dual(member)]
    for phi in usos:
        _assert_scans_match(phi, _offset_scan)


def _reversed_edge(phi, rng):
    """phi with the edge at a seeded vertex along a seeded coordinate reversed."""
    values = list(phi.values)
    v, e = rng.getrandbits(phi.n), 1 << rng.randrange(phi.n)
    values[v] ^= e
    values[v ^ e] ^= e
    return Outmap(phi.n, tuple(values))


def test_naive_agrees_with_classify_and_the_offset_oracle_beyond_n_12():
    """is_uso_naive's verdict and puso_face are classify's at n = 13..15.  Its witness
    and count are those of the offset-gather scan of the USO condition at n = 13 and
    14; at n = 15, where that scan alone takes over a second, the witness fails."""
    rng = random.Random(1315)
    cases = [_reversed_edge(flip(klee_minty(n), rng.getrandbits(n)), rng) for n in (13, 14)]
    cases.append(_reversed_edge(odd_family(16, rng.getrandbits(11)), rng))
    for phi in cases:
        report = classify(phi)
        naive = is_uso_naive(phi)
        assert (naive.verdict, naive.puso_face) == (report.verdict, report.puso_face)
        if phi.n == 15:
            u, v = naive.witness
            assert not (phi[u] ^ phi[v]) & (u ^ v)
            continue
        ok, witness, used = _offset_scan(phi, None)
        assert naive.witness == witness
        assert naive.pair_evals_used == used + (0 if ok else report.pair_evals_used)


# Two 4-cube USOs on which, with _PAIR_BLOCK = 64, each parity class holds a
# failing tile whose first row is at most the witness's U.  Class 0 is scanned first,
# then class 1: a class's failure must not end the other class's scan, and the
# smaller of the two failures is the witness.
MERGE_CASES = [
    # odd: class 1's tile {2, 4, 7, ...} holds (7, 11); class 0's {3, 5, ...} the witness (3, 15)
    (Outmap(4, (14, 9, 4, 11, 0, 15, 10, 13, 7, 6, 12, 1, 8, 3, 2, 5)), True, (7, 11), (3, 15)),
    # border: class 0's tile {2, 3, 6, ...} holds (6, 9); class 1's {4, 5, ...} the witness (4, 10)
    (Outmap(4, (10, 11, 9, 12, 13, 14, 15, 8, 0, 5, 7, 6, 4, 1, 3, 2)), False, (6, 9), (4, 10)),
]


@pytest.mark.parametrize("block", [1, 8, 64])
def test_containment_scan_tiles_match_reference(block, monkeypatch):
    monkeypatch.setattr(recognition, "_PAIR_BLOCK", block)
    rng = random.Random(block)
    usos = [klee_minty(n) for n in range(7)] + list(enumerate_usos(3))[::37]
    usos += [flip(random_uso(4, rng), rng.getrandbits(4)) for _ in range(10)]
    usos += [_reversed_edge_klee_minty(n) for n in (5, 6)] + [_product_uso(6, block)]
    for phi in usos:
        for psi in (phi, dual(phi)):
            _assert_scans_match(psi, _scan_reference)
    for phi, odd, found, first in MERGE_CASES:
        assert _pair_fails(phi, *found, odd) and first < found
        assert _scan_reference(phi, odd)[1] == first
        _assert_scans_match(phi, _scan_reference)


@given(st.integers(0, 4), st.integers(0, 2**32), st.integers(0, 15), st.booleans(),
       st.sampled_from([1, 8, 64, recognition._PAIR_BLOCK]))
@settings(max_examples=80, deadline=None)
def test_containment_scan_property(n, seed, mask, take_dual, block):
    """Seeded random USOs under flip and dual, at several tile sizes."""
    phi = flip(random_uso(n, random.Random(seed)), mask & ((1 << n) - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recognition, "_PAIR_BLOCK", block)
        _assert_scans_match(dual(phi) if take_dual else phi, _scan_reference)


def test_border_and_odd_require_usos(twin_peak):
    with pytest.raises(NotAUsoError):
        is_border(twin_peak)
    with pytest.raises(NotAUsoError):
        is_odd(twin_peak)


def test_low_dimensions_are_all_odd_and_border():
    for values in [(0,)], [(0, 1), (1, 0)]:
        for vals in values:
            n = len(vals) // 2
            phi = Outmap(n, tuple(vals))
            assert is_odd(phi)[0]
            assert is_border(phi)[0]


def test_duality_swaps_border_and_odd():
    """On all 744 3-cube USOs: odd == border of dual, and dual is an involution."""
    border_total = 0
    odd_total = 0
    for phi in enumerate_usos(3):
        psi = dual(phi)
        assert dual(psi) == phi
        odd_here = is_odd(phi)[0]
        border_total += is_border(phi)[0]
        odd_total += odd_here
        assert odd_here == is_border(psi)[0]
    assert border_total == 112
    assert odd_total == 112


def test_odd_equals_all_faces_caps():
    for phi in enumerate_usos(3):
        assert is_odd(phi)[0] == all_faces_caps(phi)


def test_cap_on_whole_cube(km_3, eye):
    assert is_cap(km_3)
    assert not is_cap(eye)              # complementary pair at even distance
    assert is_cap(Outmap(2, BOW))
    assert not is_cap(Outmap(2, TWIN_PEAK))   # not bijective


def test_cap_on_vertices_is_trivial(eye):
    for v in range(4):
        assert is_cap(eye, FaceSpec(v, v))


def test_complementary_structure_of_km(km_3):
    """The decreasing-path USO pairs complementary vertices at distance 1."""
    pairs = complementary_pairs(km_3)
    assert pairs == ((0, 4), (1, 5), (2, 6), (3, 7))
    for u, v in pairs:
        assert km_3[u] ^ km_3[v] == 0b111
        assert (u ^ v).bit_count() == 1
    assert complementary_vertex(km_3, 0) == 4


def test_complementary_vertex_in_face(km_3):
    face = FaceSpec(0b000, 0b011)
    # within the bottom bow, values antipodal relative to the carrier
    assert complementary_vertex(km_3, 0, face) == 2
    assert complementary_vertex(km_3, 1, face) == 3


def test_complementary_vertex_rejects_collisions(twin_peak):
    with pytest.raises(NotBijectiveError):
        complementary_vertex(twin_peak, 0)


def test_puso_parity_fixed(twin_peak, cycle):
    assert puso_parity(twin_peak) is Parity.EVEN
    assert puso_parity(cycle) is Parity.ODD
    assert len(face_sinks(twin_peak)) == 2
    assert len(face_sinks(cycle)) == 0


def test_puso_parity_rejects_non_pusos(eye, km_3):
    with pytest.raises(NotAPusoError):
        puso_parity(eye)
    with pytest.raises(NotAPusoError):
        puso_parity(km_3)


def test_puso_parity_matches_sink_count_exhaustively():
    """All 16 3-cube PUSOs: value parity is uniform and fixes the sink count."""
    seen = {Parity.EVEN: 0, Parity.ODD: 0}
    for phi in enumerate_pusos(3):
        parity = puso_parity(phi)
        seen[parity] += 1
        parities = {phi[v].bit_count() & 1 for v in range(8)}
        assert len(parities) == 1
        sinks = face_sinks(phi)
        assert len(sinks) == (2 if parity is Parity.EVEN else 0)
    assert seen[Parity.EVEN] + seen[Parity.ODD] == 16
    assert seen[Parity.EVEN] > 0 and seen[Parity.ODD] > 0


def test_flip_toggles_puso_parity(twin_peak):
    # flipping one coordinate complements every value's parity
    flipped = flip(twin_peak, 0b01)
    assert puso_parity(flipped) is Parity.ODD
    assert puso_parity(flip(flipped, 0b01)) is Parity.EVEN


# ---------------------------------------------------------------------------
# the outmap memo: classify's verdict and the values array


@pytest.mark.parametrize(
    "phi, verdict",
    [
        (Outmap(2, TWIN_PEAK), Verdict.PUSO),
        (flip(cyclic_puso(5), 0b10110), Verdict.PUSO),
        (Outmap(3, EMBEDDED_TWIN_PEAK), Verdict.OTHER),
        (Outmap(2, (0, 0, 2, 3)), Verdict.NOT_ORIENTATION),
    ],
)
def test_scans_refuse_non_usos_with_or_without_a_stored_verdict(phi, verdict):
    for classified_first in (False, True):
        fresh = Outmap(phi.n, phi.values)
        if classified_first:
            assert classify(fresh).verdict is verdict
        for scan in (is_border, is_odd):
            counter = PairEvalCounter()
            with pytest.raises(NotAUsoError):
                scan(fresh, counter)
            assert counter.count == 3**phi.n - 2**phi.n


def _answers(phi):
    """is_border, is_odd and puso_parity on phi, each with its pair-eval count."""
    out = []
    for fn in (is_border, is_odd, puso_parity):
        counter = PairEvalCounter()
        try:
            out.append(fn(phi, counter))
        except (NotAUsoError, NotAPusoError) as exc:
            out.append(type(exc))
        out.append(counter.count)
    return out


def test_stored_verdict_gives_the_answers_and_counts_of_a_fresh_outmap():
    rng = random.Random(615)
    subjects = [flip(klee_minty(n), rng.getrandbits(n)) for n in range(8)]
    subjects += [random_uso(4, rng) for _ in range(4)]
    subjects += [flip(cyclic_puso(n), rng.getrandbits(n)) for n in range(2, 8)]
    subjects += [Outmap(3, EMBEDDED_TWIN_PEAK), random_outmap(5, rng), Outmap(1, (0, 0))]
    verdicts = set()
    for phi in subjects:
        # value-equal outmaps built separately: one classified first, one not
        fresh, classified = Outmap(phi.n, phi.values), Outmap(phi.n, phi.values)
        verdicts.add(classify(classified).verdict)
        assert _answers(classified) == _answers(fresh)
        assert classified == fresh and hash(classified) == hash(fresh)
    assert verdicts == set(Verdict)


def test_scans_read_the_stored_verdict(monkeypatch):
    def boom(*args):
        raise AssertionError("scanned although classify stored a verdict")

    uso, puso = klee_minty(5), cyclic_puso(5)
    classify(uso)
    classify(puso)
    monkeypatch.setattr(recognition, "classify", boom)
    counter = PairEvalCounter()
    assert is_odd(uso, counter)[0] and not is_border(uso, counter)[0]
    assert puso_parity(puso, counter) is Parity.EVEN  # value 0 at vertex 0
    with pytest.raises(NotAPusoError):
        puso_parity(uso, counter)
    with pytest.raises(NotAUsoError):
        is_odd(puso, counter)
    assert counter.count >= 5 * (3**5 - 2**5)


def test_classified_outmaps_make_no_kernel_call(monkeypatch):
    """After classify, every verdict gate reads the stored verdict and still
    charges 3**n - 2**n; is_odd's pair scan adds what it adds on a fresh outmap."""
    border, puso = dual(klee_minty(5)), cyclic_puso(5)
    odd_count = PairEvalCounter()
    odd_answer = is_odd(Outmap(5, border.values), odd_count)
    classify(border)
    classify(puso)

    def boom(*args):
        raise AssertionError("face scan run although classify stored a verdict")

    monkeypatch.setattr(recognition, "_first_failing_face", boom)
    budget = 3**5 - 2**5
    for phi, gate, want in [
        (border, is_uso_fast, True),
        (border, is_puso, False),
        (puso, is_uso_fast, False),
        (puso, is_puso, True),
        (puso, puso_parity, Parity.EVEN),
    ]:
        counter = PairEvalCounter()
        assert gate(phi, counter) == want
        assert counter.count == budget
    counter = PairEvalCounter()
    with pytest.raises(NotAPusoError):
        puso_parity(border, counter)
    assert counter.count == budget
    counter = PairEvalCounter()
    assert is_odd(border, counter) == odd_answer and not odd_answer[0]
    assert counter.count == odd_count.count > budget
    doubled = extend_border(border, 0)
    monkeypatch.undo()
    assert is_puso(doubled)


def test_class_checks_classify_an_unclassified_outmap_once(monkeypatch):
    calls = []

    def counted(phi):
        calls.append(phi)
        return classify(phi)

    monkeypatch.setattr(recognition, "classify", counted)
    phi = klee_minty(6)
    counter = PairEvalCounter()
    assert is_odd(phi, counter) == (True, None)
    ok, (u, v) = is_border(phi, counter)
    assert calls == [phi] and not ok
    # the odd scan reads every pair, the border scan the pairs up to its witness
    pairs = 64 * 63 // 2 + u * 63 - u * (u - 1) // 2 + (v - u)
    assert counter.count == 2 * (3**6 - 2**6) + pairs


def test_values_array_is_read_only_and_built_once():
    phi = flip(klee_minty(6), 0b100101)
    array = recognition._values(phi)
    assert array is cube._values(phi)
    assert array.dtype == np.uint16 and array.tolist() == list(phi.values)
    with pytest.raises(ValueError):
        array[0] = 1
    assert recognition._values(phi).tolist() == list(phi.values)


def test_memo_leaves_equality_hash_repr_and_pickles_alone():
    phi, twin = klee_minty(4), klee_minty(4)
    blank = pickle.dumps(phi)
    classify(phi)
    face_sinks(phi)
    assert phi == twin and hash(phi) == hash(twin) == hash((phi.n, phi.values))
    assert repr(phi) == repr(twin)
    assert pickle.dumps(phi) == pickle.dumps(twin) == blank
    for clone in (pickle.loads(blank), copy.copy(phi), copy.deepcopy(phi)):
        assert clone == phi and "_memo" not in vars(clone)
    # above n = 10 the parser hands over its array as the memo's, unchecked
    parsed = cube.parse_uso(cube.emit_uso(klee_minty(11)))
    twin = Outmap(11, tuple(klee_minty(11).values))
    assert "array" in vars(parsed)["_memo"]
    assert parsed == twin and hash(parsed) == hash(twin) and repr(parsed) == repr(twin)
    assert pickle.dumps(parsed) == pickle.dumps(twin)
    for clone in (pickle.loads(pickle.dumps(parsed)), copy.copy(parsed), copy.deepcopy(parsed)):
        assert clone == twin and "_memo" not in vars(clone)
        assert pickle.dumps(clone) == pickle.dumps(twin) and repr(clone) == repr(twin)


# ---------------------------------------------------------------------------
# the numpy inverse against the per-vertex loops it replaced


def _inverse_oracle(phi, face):
    """Induced value -> vertex, by one dict over face.vertices()."""
    inverse = {}
    for v in face.vertices():
        key = phi.values[v] & face.carrier
        if key in inverse:
            raise NotBijectiveError(
                f"outmap is not bijective: vertices {inverse[key]} and {v} share value {key:#b}"
            )
        inverse[key] = v
    return inverse


def _pairs_oracle(inverse, carrier):
    """(W, partner) in vertex order, W <= partner, from the dict inverse."""
    pairs = ((v, inverse[key ^ carrier]) for key, v in inverse.items())
    return tuple((v, partner) for v, partner in pairs if v <= partner)


def _inverse_subjects(rng):
    """USOs (bijective on every face), cube bijections and random functions, n <= 8."""
    for n in range(9):
        yield flip(klee_minty(n), rng.getrandbits(n))
        perm = list(range(1 << n))
        rng.shuffle(perm)
        yield Outmap(n, tuple(perm))
        yield random_outmap(n, rng)
    yield random_uso(4, rng)
    yield flip(odd_family(8, rng.getrandbits(16)), rng.getrandbits(7))


def _faces(n, rng):
    """The whole cube, two singletons and four random faces."""
    yield FaceSpec(0, (1 << n) - 1)
    for _ in range(2):
        v = rng.getrandbits(n) if n else 0
        yield FaceSpec(v, v)
    for _ in range(4):
        lower = rng.getrandbits(n) if n else 0
        yield FaceSpec(lower, lower | (rng.getrandbits(n) if n else 0))


def test_numpy_inverse_matches_the_per_vertex_loop():
    rng = random.Random(2001)
    bijective = colliding = 0
    for phi in _inverse_subjects(rng):
        for face in _faces(phi.n, rng):
            try:
                inverse = _inverse_oracle(phi, face)
            except NotBijectiveError as exc:
                colliding += 1
                calls = [
                    lambda: classes._face_inverse(phi, face),
                    lambda: complementary_pairs(phi, face),
                    lambda: complementary_vertex(phi, face.lower, face),
                ]
                if face.carrier == (1 << phi.n) - 1:
                    calls.append(lambda: dual(phi))
                for call in calls:
                    with pytest.raises(NotBijectiveError) as got:
                        call()
                    assert str(got.value) == str(exc)
                continue
            bijective += 1
            verts, array = classes._face_inverse(phi, face)
            assert verts.tolist() == list(face.vertices())
            assert {key: int(array[key]) for key in inverse} == inverse
            assert complementary_pairs(phi, face) == _pairs_oracle(inverse, face.carrier)
            for w in face.vertices():
                key = (phi.values[w] & face.carrier) ^ face.carrier
                assert complementary_vertex(phi, w, face) == inverse[key]
            if face.carrier == (1 << phi.n) - 1:
                assert dual(phi).values == tuple(inverse[k] for k in range(1 << phi.n))
    assert bijective > 50 and colliding > 20


# ---------------------------------------------------------------------------
# the cap checks against a per-vertex check


def _cap_oracle(phi, face):
    """One face at a time: the dict inverse and its pairs, a collision meaning no cap."""
    if face.carrier == 0:
        return True
    try:
        inverse = _inverse_oracle(phi, face)
    except NotBijectiveError:
        return False
    pairs = _pairs_oracle(inverse, face.carrier)
    return all((w ^ partner).bit_count() & 1 for w, partner in pairs)


def _cap_subjects(rng):
    """Random outmaps, flipped Klee-Minty cubes, cyclic PUSOs and random USOs, n <= 6."""
    for n in range(7):
        for _ in range(3):
            yield random_outmap(n, rng)
            yield flip(klee_minty(n), rng.getrandbits(n))
        if n >= 2:
            yield cyclic_puso(n)
    for n in range(5):
        for _ in range(4):
            yield random_uso(n, rng)


def test_is_cap_and_all_faces_caps_match_the_per_face_check():
    rng = random.Random(2101)
    seen = set()
    for phi in _cap_subjects(rng):
        oracle = [_cap_oracle(phi, face) for face in faces_iter(phi.n)]
        assert [is_cap(phi, face) for face in faces_iter(phi.n)] == oracle
        assert all_faces_caps(phi) == all(oracle)
        seen.update(oracle)
        seen.add(("whole cube", all(oracle)))
    assert seen == {True, False, ("whole cube", True), ("whole cube", False)}


def test_is_odd_equals_all_faces_caps_on_odd_4_usos_random_4_usos_and_the_family():
    rng = random.Random(2102)
    rows = enumeration._odd_values(4)
    for i in rng.sample(range(len(rows)), 1000):
        phi = Outmap(4, tuple(rows[i].tolist()))
        assert is_odd(phi)[0] and all_faces_caps(phi)
    odd = 0
    for _ in range(300):
        phi = random_uso(4, rng)
        assert is_odd(phi)[0] == all_faces_caps(phi)
        odd += all_faces_caps(phi)
    assert odd < 300
    for _ in range(10):
        phi = odd_family(8, rng.getrandbits(16))
        assert is_odd(phi)[0] and all_faces_caps(phi)


@pytest.mark.parametrize("face", [FaceSpec(4, 4), FaceSpec(0, 4), FaceSpec(1, 7)])
def test_is_cap_refuses_a_face_outside_the_cube(face):
    with pytest.raises(ValueError, match="face does not fit inside the cube"):
        is_cap(klee_minty(2), face)
