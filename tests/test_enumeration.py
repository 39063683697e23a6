"""Exhaustive streams, facet composition, count tables, canonical orbits."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uso_kit import (
    CountRow,
    Outmap,
    ResourceLimitError,
    Verdict,
    canonical_form,
    classify,
    count_odd_successor,
    count_table,
    count_uso_successor,
    dual,
    enumerate_class,
    enumerate_odd,
    enumerate_pusos,
    enumerate_usos,
    extend_border,
    face_sinks,
    flip,
    is_border,
    is_odd,
    is_puso,
    is_uso_naive,
    klee_minty,
    orbit_representatives,
    parse_uso,
    random_odd,
    random_puso,
    random_uso,
    value_line,
)

from uso_kit import classes, constructions, cube, enumeration, recognition

from conftest import BOW, KM_3, orientations, outmap_functions


# ---------------------------------------------------------------------------
# streams


def test_orientation_space_sizes():
    for n in range(4):
        edges = n * 2 ** (n - 1) if n else 0
        assert len(orientations(n)) == 2**edges


def test_orientations_are_orientations():
    for phi in orientations(2):
        assert classify(phi).verdict is not Verdict.NOT_ORIENTATION


def test_uso_stream_counts_and_validity():
    for n, expected in enumerate((1, 2, 12, 744)):
        seen = set()
        for phi in enumerate_usos(n):
            assert is_uso_naive(phi).verdict is Verdict.USO
            seen.add(phi.values)
        assert len(seen) == expected
    with pytest.raises(ResourceLimitError):
        next(enumerate_usos(4))


def test_puso_stream_counts_and_validity():
    for n, expected in enumerate((0, 0, 4, 16)):
        count = 0
        for phi in enumerate_pusos(n):
            assert is_puso(phi)
            count += 1
        assert count == expected


def test_batch_filters_match_the_per_outmap_filter():
    """The one-call USO and PUSO filters keep the naive verdict's outmaps, in order."""
    for n in range(3):
        want = [phi for phi in outmap_functions(n) if is_uso_naive(phi).verdict is Verdict.USO]
        assert list(enumerate_usos(n)) == want
    # n = 3 orders by the edge word: per edge, vertex-major, 1 where it points down
    edges = [(v, pos) for v in range(8) for pos in range(3) if not v >> pos & 1]
    want = sorted(
        (phi for phi in orientations(3) if is_uso_naive(phi).verdict is Verdict.USO),
        key=lambda phi: [1 - (phi.values[v] >> pos & 1) for v, pos in edges],
    )
    assert len(want) == 744
    assert list(enumerate_usos(3)) == want
    for n in range(4):
        want = [phi for phi in orientations(n) if is_uso_naive(phi).verdict is Verdict.PUSO]
        assert list(enumerate_pusos(n)) == want


def test_odd_stream_counts_and_validity():
    for n, expected in enumerate((1, 2, 8, 112)):
        seen = set()
        for phi in enumerate_odd(n):
            assert is_odd(phi)[0]
            seen.add(phi.values)
        assert len(seen) == expected
    # dimension 4: distinctness and spot validity, full count
    values_seen = set()
    rng = random.Random(99)
    sample_at = {rng.randrange(12928) for _ in range(60)}
    for idx, phi in enumerate(enumerate_odd(4)):
        values_seen.add(phi.values)
        if idx in sample_at:
            assert is_odd(phi)[0]
    assert len(values_seen) == 12928
    with pytest.raises(ResourceLimitError):
        next(enumerate_odd(5))


def test_border_stream_is_dual_of_odd():
    for n in range(4):
        border = [phi.values for phi in enumerate_class("border", n)]
        assert len(border) == len(set(border)) == (1, 2, 8, 112)[n]
        for values in border[:20]:
            assert is_border(Outmap(n, values))[0]


def test_enumerate_class_rejects_unknown():
    with pytest.raises(ValueError):
        next(enumerate_class("nope", 2))


def test_stream_order_is_stable():
    first = [phi.values for phi in itertools.islice(enumerate_usos(3), 5)]
    second = [phi.values for phi in itertools.islice(enumerate_usos(3), 5)]
    assert first == second


def test_enumerate_odd_5_stream_prefix_is_pinned():
    """The first 20000 odd 5-USOs, byte for byte (sha256 of their .uso texts)."""
    digest = hashlib.sha256()
    for phi in itertools.islice(enumerate_class("odd", 5, allow_large=True), 20000):
        digest.update(cube.emit_uso(phi).encode())
    assert digest.hexdigest() == (
        "ac0c5a007f5541c467b649328fd31908ca1e1efc13963c32c33e783aa34d72a0"
    )


def _assert_as_if_checked(phi):
    """phi equals its twin built through Outmap's checks and holds a tuple of Python
    ints; a memo array is read-only, in _vertex_dtype(n) and equal to the values."""
    assert type(phi.values) is tuple and all(type(v) is int for v in phi.values)
    assert phi == Outmap(phi.n, tuple(phi.values))
    array = vars(phi).get("_memo", {}).get("array")
    if array is not None:
        assert not array.flags.writeable and array.dtype == cube._vertex_dtype(phi.n)
        assert array.tolist() == list(phi.values)


def test_unchecked_producers_match_the_checked_constructor():
    """Every producer that skips Outmap's checks (see cube.Outmap) builds values they pass."""
    with pytest.raises(TypeError):  # the skip flag is keyword-only
        Outmap(1, (0, 1), True)
    rng = random.Random(2020)
    texts = []
    for n in range(13):
        top = (1 << n) - 1
        values = [top if rng.random() < 0.25 else rng.getrandbits(n) for _ in range(1 << n)]
        for vals in (values, [top] * (1 << n)):
            texts.append("\n".join([str(n), *(value_line(v, n) for v in vals)]) + "\n")
            phi = parse_uso(texts[-1])
            _assert_as_if_checked(phi)
            assert phi.values == tuple(vals)
            # above the n = 10 line table the parser hands over the array it decoded
            assert ("array" in vars(phi).get("_memo", {})) == (n > 10)
    stream = cube.read_outmap_stream("\n".join(texts))
    assert [phi.n for phi in stream] == [n for n in range(13) for _ in range(2)]
    for phi in stream:
        _assert_as_if_checked(phi)
    for kind, stop in (("uso", 4), ("puso", 4), ("odd", 5), ("border", 5)):
        for n in range(stop):
            for phi in enumerate_class(kind, n):
                assert phi.n == n
                _assert_as_if_checked(phi)
    for phi in itertools.islice(enumerate_class("odd", 5, allow_large=True), 2000):
        _assert_as_if_checked(phi)
    usos = [flip(klee_minty(n), rng.getrandbits(n)) for n in range(13)]
    for phi in usos + [random_uso(n, rng) for n in range(5)]:
        inverse = dual(phi)
        _assert_as_if_checked(inverse)
        assert all(phi.values[w] == v for v, w in enumerate(inverse.values))


# ---------------------------------------------------------------------------
# facet composition


def _compose_build(psi0, psi1, m: int, pattern: int) -> list[int]:
    """Reference composer: the composed value list of one pair, one vertex at a time."""
    top = 1 << m
    values = [psi0[v] | top if pattern >> v & 1 else psi0[v] for v in range(top)]
    values += [psi1[v] if pattern >> v & 1 else psi1[v] | top for v in range(top)]
    return values


def _connected(lower, upper, m: int) -> list[tuple[int, ...]]:
    """One facet pair composed by its bow-rule tree pattern, then flipped (the block builder)."""
    g = enumeration._tree_pattern(lower, upper, m)
    return list(map(tuple, enumeration._compose_block(lower, [upper], np.array([g]), m).tolist()))


def test_connect_facets_fixed_case():
    composed = Outmap(3, _connected(BOW, BOW, 2)[0])
    assert composed.values == (0, 5, 7, 2, 4, 1, 3, 6)
    assert is_odd(composed)[0]
    assert canonical_form(composed) == canonical_form(klee_minty(3))


def test_connect_facets_seed_flip():
    a, b = _connected(BOW, BOW, 2)
    # same facet values, all connecting edges reversed
    top = 0b100
    for v in range(8):
        assert (a[v] & ~top) == (b[v] & ~top)
        assert (a[v] & top) != (b[v] & top)


def test_composition_filter_matches_generic_odd_test():
    """The bow rule by brute force: every ordered pair of odd 2-USOs under all 16
    connecting patterns, kept where classify and is_odd accept the composition."""
    facets = [phi.values for phi in enumerate_odd(2)]
    kept = set()
    kept_per_pair = Counter()
    for lower, upper in itertools.product(facets, repeat=2):
        patterns = []
        for pattern in range(16):
            phi = Outmap(3, tuple(_compose_build(lower, upper, 2, pattern)))
            if classify(phi).verdict is Verdict.USO and is_odd(phi)[0]:
                patterns.append(pattern)
                kept.add(phi.values)
        kept_per_pair[len(patterns)] += 1
        if patterns:  # the seed-0 tree pattern and its flip, nothing else
            g = enumeration._tree_pattern(lower, upper, 2)
            assert sorted(patterns) == sorted([g, g ^ 15]), (lower, upper)
    assert kept == {phi.values for phi in enumerate_odd(3)} and len(kept) == 112
    assert kept_per_pair == {2: 56, 0: 8}


def test_composition_filter_matches_generic_odd_test_m4():
    """The odd(5) filter's verdicts against classify and is_odd on the composed outmaps.

    The bow rule forces any odd composition's connecting pattern to be the
    kernel's seed-0 pattern or its flip, so an accepted pair must give two
    odd USOs and a rejected pair none.
    """
    m = 4
    prev = enumeration._odd_values(m).tolist()
    nib, rows = enumeration._facet_arrays(m)
    flip_all = (1 << (1 << m)) - 1
    rng = random.Random(45)
    for i0 in rng.sample(range(len(prev)), 3):
        valid, patterns = enumeration._valid_upper_mask(i0, nib, rows, m)
        valid = valid.tolist()
        accepted = rng.sample([i1 for i1, ok in enumerate(valid) if ok], 50)
        rejected = rng.sample([i1 for i1, ok in enumerate(valid) if not ok], 50)
        for i1 in accepted + rejected:
            g = int(patterns[i1])
            odd_usos = 0
            for pattern in (g, g ^ flip_all):
                values = _compose_build(prev[i0], prev[i1], m, pattern)
                phi = Outmap(m + 1, tuple(values))
                odd_usos += classify(phi).verdict is Verdict.USO and is_odd(phi)[0]
            assert odd_usos == (2 if valid[i1] else 0), (i0, i1)


@pytest.mark.parametrize("m", [5, 7])
def test_tree_pattern_on_numpy_rows_matches_tuples(m):
    """One facet pair as uint16 rows keeps the pattern bits at 16 and above."""
    km = klee_minty(m)
    rows = np.array([km.values, flip(km, 1).values], dtype=np.uint16)
    sinks = enumeration._sink_rows(rows, m).tolist()
    pairs = enumeration._odd_distance_pairs(m)
    for i0, i1 in itertools.product(range(2), repeat=2):
        tuples = tuple(rows[i0].tolist()), tuple(rows[i1].tolist())
        g = enumeration._tree_pattern(*tuples, m)
        assert g >> 16 and enumeration._tree_pattern(rows[i0], rows[i1], m) == g
        args = (m, sinks[i0], sinks[i1], pairs)
        expected = enumeration._compose_valid_pattern(*tuples, *args)
        assert enumeration._compose_valid_pattern(rows[i0], rows[i1], *args) == expected
        if i0 == i1:  # a facet composes with itself
            assert expected == g


def _assert_mask_matches_scalar(m, lower_facets):
    """_valid_upper_mask against the scalar _compose_valid_pattern oracle."""
    prev = enumeration._odd_values(m)
    nib, rows = enumeration._facet_arrays(m)
    row_list = rows.tolist()
    odd_pairs = enumeration._odd_distance_pairs(m)
    for i0 in lower_facets:
        valid, patterns = enumeration._valid_upper_mask(i0, nib, rows, m)
        for i1, psi1 in enumerate(prev):
            g = enumeration._compose_valid_pattern(
                prev[i0], psi1, m, row_list[i0], row_list[i1], odd_pairs
            )
            assert bool(valid[i1]) == (g is not None), (i0, i1)
            if g is not None:
                assert int(patterns[i1]) == g, (i0, i1)


def test_valid_upper_mask_matches_scalar_oracle_m3():
    _assert_mask_matches_scalar(3, range(112))


def test_valid_upper_mask_matches_scalar_oracle_m4():
    _assert_mask_matches_scalar(4, random.Random(4).sample(range(12928), 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_odd_lists_match_scalar_composition(n):
    m = n - 1
    prev = enumeration._odd_values(m)
    rows = enumeration._sink_rows(prev, m).tolist()
    odd_pairs = enumeration._odd_distance_pairs(m)
    flip_all = (1 << (1 << m)) - 1
    expected = []
    for psi0, row0 in zip(prev.tolist(), rows):
        for psi1, row1 in zip(prev.tolist(), rows):
            g = enumeration._compose_valid_pattern(psi0, psi1, m, row0, row1, odd_pairs)
            if g is not None:
                expected.append(tuple(_compose_build(psi0, psi1, m, g)))
                expected.append(tuple(_compose_build(psi0, psi1, m, g ^ flip_all)))
    composed = [tuple(row) for block in enumeration._composed_odd(m) for row in block.tolist()]
    assert tuple(composed) == tuple(expected)
    if n >= 3:
        assert tuple(map(tuple, enumeration._odd_values(n).tolist())) == tuple(expected)
    else:
        # the lists below n = 3 come from brute force, in lexicographic order
        assert sorted(map(tuple, enumeration._odd_values(n).tolist())) == sorted(expected)


def test_compose_block_matches_scalar_composer_m4():
    """Each valid upper's two block rows against the reference composer.

    Lower facet 0 also opens the odd(5) stream, which hands its records
    out over several 256-row slices.
    """
    m = 4
    prev = enumeration._odd_values(m).tolist()
    nib, rows = enumeration._facet_arrays(m)
    flip_all = (1 << (1 << m)) - 1
    for i0 in [0, *random.Random(47).sample(range(len(prev)), 3)]:
        valid, patterns = enumeration._valid_upper_mask(i0, nib, rows, m)
        uppers = np.flatnonzero(valid)
        block = enumeration._compose_block(nib[i0], nib[uppers], patterns[uppers], m)
        assert block.shape == (2 * len(uppers), 1 << (m + 1))
        expected = []
        for i1 in uppers.tolist():
            g = int(patterns[i1])
            expected.append(tuple(_compose_build(prev[i0], prev[i1], m, g)))
            expected.append(tuple(_compose_build(prev[i0], prev[i1], m, g ^ flip_all)))
        assert list(map(tuple, block.tolist())) == expected, i0
        if i0 == 0:
            assert len(expected) > 3 * 256
            stream = enumerate_odd(m + 1, allow_large=True)
            assert [phi.values for phi in itertools.islice(stream, len(expected))] == expected


# every ordered pair of odd(2), lower-major, composed by its tree pattern
# and then flipped (_connected): the values as octal digits, recorded with
# the per-vertex composer
CONNECTED_ODD2 = (
    "0572413641360572", "0576432141320765", "0176542345321067", "0172563445361270",
    "0532614741762503", "0536635041722714", "0136745245723016", "0132764545763201",
    "0765413243210576", "0761432543250761", "0361542747251063", "0365563047211274",
    "0725614343612507", "0721635443652710", "0321745647653012", "0325764147613205",
    "1067453254230176", "1063472554270361", "1463502750271463", "1467523050231674",
    "1027654354632107", "1023675454672310", "1423705650673412", "1427724150633605",
    "1270453656340172", "1274472156300365", "1674502352301467", "1670523452341670",
    "1230654756742103", "1234675056702314", "1634705252703416", "1630724552743601",
    "2503417661470532", "2507436161430725", "2107546365431027", "2103567465471230",
    "2543610761072543", "2547631061032754", "2147741265033056", "2143760565073241",
    "2714417263500536", "2710436563540721", "2310546767541023", "2314567067501234",
    "2754610363102547", "2750631463142750", "2350741667143052", "2354760167103245",
    "3016457274520136", "3012476574560321", "3412506770561423", "3416527070521634",
    "3056650374122147", "3052671474162350", "3452701670163452", "3456720170123645",
    "3201457676450132", "3205476176410325", "3605506372411427", "3601527472451630",
    "3241650776052143", "3245671076012354", "3645701272013456", "3641720572053641",
)

# random_uso(4, random.Random(k)) for k = 0..9, values as hex digits, recorded
# with the coloring draw: two facet indices, then one index into the pair's
# joining colorings in ascending order
RANDOM_USO4 = (
    "67453210ebc98daf",
    "32456f01cbe987ad",
    "7a451e30b6dcf298",
    "54671823cdba90fe",
    "d4ef92301c7658ba",
    "c9ba8fed50761432",
    "cba98def70563412",
    "98fe4dab3201c576",
    "dcbe98fa67542301",
    "2f4d6b09c5a781e3",
)


def test_connect_facets_and_random_uso_pinned():
    odd2 = [phi.values for phi in enumerate_odd(2)]
    connected = tuple(
        "".join(f"{x:o}" for values in _connected(lower, upper, 2) for x in values)
        for lower in odd2
        for upper in odd2
    )
    assert connected == CONNECTED_ODD2
    drawn = tuple(
        "".join(f"{x:x}" for x in random_uso(4, random.Random(k)).values) for k in range(10)
    )
    assert drawn == RANDOM_USO4


def test_random_uso4_pins_keep_the_seeded_facets():
    """Each pinned draw's lower and upper facets are the rows random.Random(k) picks first."""
    vals = enumeration._uso_values(3).tolist()
    for k, pin in enumerate(RANDOM_USO4):
        values = [int(digit, 16) for digit in pin]
        rng = random.Random(k)
        i0, i1 = rng.randrange(744), rng.randrange(744)
        assert [x & 7 for x in values[:8]] == vals[i0]
        assert [x & 7 for x in values[8:]] == vals[i1]


# ---------------------------------------------------------------------------
# counting


def test_successor_counts_match_direct_enumeration():
    assert count_uso_successor(0) == 2
    assert count_uso_successor(1) == 12
    assert count_uso_successor(2) == 744
    assert count_odd_successor(0) == 2
    assert count_odd_successor(1) == 8
    assert count_odd_successor(2) == 112
    assert count_odd_successor(3) == 12928


def test_uso_four_dimensional_count():
    """The first value beyond direct enumeration, from facet-pair composition."""
    assert count_uso_successor(3) == 5_541_744
    # the orbit-weighted sum against the full unweighted sum over all 744 x 744 pairs
    rows = enumeration._sink_rows(enumeration._uso_values(3), 3)
    assert enumeration._uso_successor_worker((rows, 8, 0, 744)) == 5_541_744


@pytest.mark.parametrize(
    "name, dims",
    [("_uso_values", range(4)), ("_odd_values", range(5)), ("_uso_sink_rows", range(4))],
)
def test_class_lists_are_cached_read_only_arrays(name, dims):
    """One object per dimension, in _vertex_dtype(n) for values (uint8 for sink
    tables), that refuses writes."""
    for n in dims:
        got = getattr(enumeration, name)(n)
        assert getattr(enumeration, name)(n) is got
        assert got.dtype == (np.uint8 if name == "_uso_sink_rows" else cube._vertex_dtype(n))
        with pytest.raises(ValueError):
            got[0, 0] = 0


@pytest.mark.parametrize("m", range(5))
def test_facet_arrays_are_the_odd_list_and_a_read_only_sink_table(m):
    nib, rows = enumeration._facet_arrays(m)
    assert nib is enumeration._odd_values(m) and rows.dtype == np.uint8
    assert (rows == enumeration._sink_rows(nib, m)).all()
    with pytest.raises(ValueError):
        rows[0, 0] = 0


@pytest.mark.parametrize(
    "name, m, sample",
    [("_uso_values", m, None) for m in range(4)]
    + [("_odd_values", m, None) for m in range(4)]
    + [("_odd_values", 4, 300)],
)
def test_sink_rows_match_face_sinks(name, m, sample):
    """Second method: face_sinks keys each face's vertices by carrier, with no facet rule."""
    vals = getattr(enumeration, name)(m)
    rows = enumeration._sink_rows(vals, m)
    assert rows.dtype == np.uint8 and rows.flags.f_contiguous and not rows.flags.writeable
    faces = list(zip(*(side.tolist() for side in cube.face_schedule(m))))
    assert rows.shape == (len(vals), len(faces))
    picked = range(len(vals))
    for i in picked if sample is None else random.Random(m).sample(picked, sample):
        phi = Outmap(m, tuple(vals[i].tolist()))
        expected = [face_sinks(phi, cube.FaceSpec(lower, upper)) for lower, upper in faces]
        assert [(s,) for s in rows[i].tolist()] == expected, i


@pytest.mark.parametrize("m", [0, 1, 2])
def test_odd_lists_below_three_match_is_odd_on_every_uso(m):
    """Second method: the full is_odd, its USO check included, on each Outmap."""
    expected = [phi.values for phi in enumerate_usos(m) if is_odd(phi)[0]]
    assert list(map(tuple, enumeration._odd_values(m).tolist())) == expected


def test_uso_sink_table_is_cached():
    """count_uso_successor and random_uso share one sink table per dimension."""
    sinks = enumeration._uso_sink_rows(3)
    assert enumeration._uso_sink_rows(3) is sinks and not sinks.flags.writeable
    assert (sinks == enumeration._sink_rows(enumeration._uso_values(3), 3)).all()


def _scalar_coloring_orbits(m: int) -> list[list[int]]:
    """Orbits of the 0/1 vertex colorings of the m-cube under relabelings and complement.

    Coloring g colors vertex v with bit v of g.  Each orbit is sorted and the
    orbits come in order of their least member.  The relabeling tables come
    from scalar loops, not from _symmetry_gather.
    """
    size = 1 << m
    _, tables = _scalar_tables(m)
    seen: set[int] = set()
    orbits = []
    for g in range(1 << size):
        if g in seen:
            continue
        orbit = set()
        for table in tables:
            for r in range(size):
                image = sum((g >> v & 1) << (table[v] ^ r) for v in range(size))
                orbit |= {image, image ^ ((1 << size) - 1)}
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _collisions(g: int, m: int) -> int:
    """Ordered pairs of m-USOs whose face sinks get the same colors under g, face by face."""
    rows = enumeration._uso_sink_rows(m).tolist()
    keys = Counter(tuple(g >> sink & 1 for sink in row) for row in rows)
    return sum(count * count for count in keys.values())


@pytest.mark.parametrize("m, orbits", [(0, 1), (1, 2), (2, 4), (3, 14)])
def test_coloring_orbits_match_scalar_orbits(m, orbits):
    want = _scalar_coloring_orbits(m)
    reps, sizes = enumeration._coloring_orbits(m)
    assert len(want) == len(reps) == orbits
    assert reps.tolist() == [orbit[0] for orbit in want]
    assert sizes.tolist() == [len(orbit) for orbit in want]
    assert int(sizes.sum()) == 2 ** 2**m


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_collision_sum_is_constant_on_coloring_orbits(m):
    """What one coloring per orbit rests on: every coloring for m <= 2, two
    seeded non-least members of each orbit (26 in all) for m = 3."""
    rng = random.Random(1300 + m)
    total = checked = 0
    for orbit in _scalar_coloring_orbits(m):
        members = orbit[1:] if m <= 2 else rng.sample(orbit[1:], min(2, len(orbit) - 1))
        want = _collisions(orbit[0], m)
        assert [_collisions(g, m) for g in members] == [want] * len(members)
        total += len(orbit) * want
        checked += len(members)
    assert checked == (1, 2, 12, 26)[m]
    assert total == count_uso_successor(m) == (2, 12, 744, 5_541_744)[m]


def test_cold_count_table_builds_no_three_dimensional_outmap(monkeypatch):
    """The uso4 cell and the n <= 3 checks read value arrays and build no Outmap at all."""
    for module in (cube, recognition, classes, constructions, enumeration):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    built = []
    real = Outmap.__post_init__

    def spy(self):
        built.append(self.n)
        real(self)

    monkeypatch.setattr(Outmap, "__post_init__", spy)
    assert count_table(4, ("uso4",)).rows[4].uso == 5_541_744
    assert built == []


def _merge_sinks(row0, row1, size: int) -> tuple[list[int], int]:
    """Scalar union-find over facet vertices: join each face's sink in the
    lower facet (row0) with that face's sink in the upper facet (row1).

    Returns the forest (parent list) and its number of components: the
    reference the coloring keys of _uso_successor_worker and random_uso(4)
    are tested against, since the colorings joining two facets are those
    constant on every component, 2**components of them.
    """
    parent = list(range(size))
    comps = size
    for a, b in zip(row0, row1):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            comps -= 1
    return parent, comps


def _assert_worker_matches_scalar(m: int, lower_facets) -> None:
    """Per lower facet L: the worker's count is the sum over U of 2**c(L, U)."""
    rows = enumeration._uso_sink_rows(m)
    size = 1 << m
    row_list = rows.tolist()
    for i0 in lower_facets:
        want = sum(1 << _merge_sinks(row_list[i0], row1, size)[1] for row1 in row_list)
        assert enumeration._uso_successor_worker((rows, size, i0, i0 + 1)) == want


@pytest.mark.parametrize("m", [0, 1, 2])
def test_uso_successor_worker_matches_scalar_union_find(m):
    """Every lower facet against all uppers, by the scalar forest."""
    _assert_worker_matches_scalar(m, range(len(enumeration._uso_values(m))))


def test_uso_successor_worker_matches_scalar_union_find_m3():
    """The 19 orbit representatives and 40 seeded lower facets, each against all 744 uppers."""
    vals = np.asarray(enumeration._uso_values(3), dtype=np.uint8)
    _, firsts = np.unique(enumeration._canonical_keys(vals, 3), axis=0, return_index=True)
    assert len(firsts) == 19
    seeded = random.Random(3).sample(range(744), 40)
    _assert_worker_matches_scalar(3, [*firsts.tolist(), *seeded])


class _ScriptedRng:
    """randrange returns the scripted indices in turn, checking each bound."""

    def __init__(self, script):
        self.script = list(script)

    def randrange(self, stop):
        bound, index = self.script.pop(0)
        assert stop == bound
        return index


def test_random_uso4_draws_exactly_the_joining_colorings():
    """For seeded facet pairs, index k of the coloring draw gives the k-th of the 2**c
    USOs that brute force keeps, c the scalar forest's component count."""
    vals, rows = enumeration._uso_values(3), enumeration._uso_sink_rows(3).tolist()
    rng = random.Random(2401)
    for _ in range(3):
        i0, i1 = rng.randrange(744), rng.randrange(744)
        block = enumeration._compose_block(
            vals[i0], np.repeat(vals[i1 : i1 + 1], 256, axis=0), np.arange(256), 3
        )[::2]  # the seed rows: pattern g for g = 0..255
        kept = block[~recognition._face_failures(block, 4).any(axis=1)].tolist()
        assert len(kept) == 1 << _merge_sinks(rows[i0], rows[i1], 8)[1]
        drawn = [
            list(random_uso(4, _ScriptedRng([(744, i0), (744, i1), (len(kept), k)])).values)
            for k in range(len(kept))
        ]
        assert drawn == kept


def test_odd_successor_count_matches_full_range_sum():
    nib, rows = enumeration._facet_arrays(3)
    assert count_odd_successor(3) == enumeration._odd_successor_worker((nib, rows, 3, 0, 112))


def test_odd_five_dimensional_count():
    assert count_odd_successor(4) == 44_075_264


@pytest.mark.parametrize(
    "kind, m, orbits, cell",
    [
        pytest.param("uso", 2, 2, 744, id="uso-2-2"),
        pytest.param("uso", 3, 19, 5_541_744, id="uso-3-19"),
        pytest.param("odd", 3, 3, 12928, id="odd-3-3"),
    ],
)
def test_lower_facet_totals_are_constant_on_orbits(kind, m, orbits, cell):
    """What orbit weighting rests on, with orbits found by the scalar canonicalizer.

    The uso totals come from one coloring-key table: facet L's total is the
    number of (coloring, facet) pairs keyed like L.  The per-facet worker
    calls are checked against the scalar union-find above.
    """
    if kind == "uso":
        values = enumeration._uso_values(m)
        rows = enumeration._sink_rows(values, m)
        keys = enumeration._coloring_keys(rows, m, np.arange(1 << (1 << m)))
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        totals = counts[inverse].reshape(keys.shape).sum(axis=1).tolist()
        whole = enumeration._uso_successor_worker((rows, 1 << m, 0, len(values)))
    else:
        values = enumeration._odd_values(m)
        nib, rows = enumeration._facet_arrays(m)
        totals = [
            enumeration._odd_successor_worker((nib, rows, m, i, i + 1)) for i in range(len(values))
        ]
        whole = enumeration._odd_successor_worker((nib, rows, m, 0, len(values)))
    # the totals add up to the next count-table cell, as one whole-range call does
    assert sum(totals) == whole == cell
    by_orbit: dict[bytes, set[int]] = {}
    for facet, total in zip(values.tolist(), totals):
        by_orbit.setdefault(_scalar_canonical_body(Outmap(m, tuple(facet))), set()).add(total)
    assert len(by_orbit) == orbits
    assert all(len(found) == 1 for found in by_orbit.values())


def test_orbit_weighted_successor_counts():
    assert count_uso_successor(2) == 744
    assert count_uso_successor(3) == 5_541_744
    assert count_odd_successor(3) == 12928


def test_successor_limits():
    with pytest.raises(ResourceLimitError):
        count_uso_successor(4)
    with pytest.raises(ResourceLimitError):
        count_odd_successor(5)


def test_coloring_keys_refuse_keys_wider_than_int64():
    """m = 4 has 65 face bits, so its keys would wrap in int64 without a warning."""
    rows = enumeration._sink_rows(enumeration._odd_values(4)[:3], 4)
    with pytest.raises(ResourceLimitError, match="overflow int64"):
        enumeration._coloring_keys(rows, 4, np.array([0, 1, 65535]))


def test_count_table_default_scope():
    table = count_table(4)
    assert table.max_n == 4
    assert table.rows[0] == CountRow(uso=1, puso=0, border=1, odd=1)
    assert table.rows[1] == CountRow(uso=2, puso=0, border=2, odd=2)
    assert table.rows[2] == CountRow(uso=12, puso=4, border=8, odd=8)
    assert table.rows[3] == CountRow(uso=744, puso=16, border=112, odd=112)
    assert table.rows[4] == CountRow(uso=None, puso=224, border=12928, odd=12928)


def test_count_table_extends_to_dimension_five():
    table = count_table(5)
    assert table.rows[5] == CountRow(uso=None, puso=25_856, border=None, odd=None)


def test_count_table_opt_in_uso4():
    table = count_table(4, opt_in=("uso4",))
    assert table.rows[4].uso == 5_541_744


def test_count_table_validates_arguments():
    with pytest.raises(ValueError):
        count_table(3, opt_in=("cake",))
    with pytest.raises(ResourceLimitError):
        count_table(6)
    with pytest.raises(ValueError, match="dimension -1 is negative"):
        count_table(-1)


@pytest.mark.parametrize("name", ["count_odd_successor", "count_uso_successor"])
def test_count_table_checks_every_column_against_direct_enumeration(monkeypatch, name):
    """A successor count one off at m = 2 is caught by the n = 3 row's check."""
    real = getattr(enumeration, name)
    monkeypatch.setattr(enumeration, name, lambda m: real(m) + (m == 2))
    with pytest.raises(AssertionError, match="n=3"):
        count_table(3)


def test_count_table_never_builds_the_odd_4_list(monkeypatch):
    """Without odd5 the table composes odd(3) from odd(2) and never odd(4) from odd(3)."""
    calls = []
    real = enumeration._composed_odd

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(enumeration, "_composed_odd", spy)
    enumeration._odd_values.cache_clear()
    count_table(4)
    count_table(5, ("uso4",))
    assert calls == [2]


@pytest.mark.parametrize("max_n, opt_in", [(3, ("uso4",)), (4, ("odd5",)), (3, ("uso4", "odd5"))])
def test_count_table_refuses_opt_ins_above_max_n(max_n, opt_in):
    with pytest.raises(ValueError, match="above max_n"):
        count_table(max_n, opt_in=opt_in)


# ---------------------------------------------------------------------------
# canonical forms and orbits


def _scalar_tables(n: int) -> tuple[list[int], list[list[int]]]:
    """Bit reversal within width n, and each coordinate permutation's map on masks."""
    rev = [sum((mask >> i & 1) << (n - 1 - i) for i in range(n)) for mask in range(1 << n)]
    tables = []
    for perm in itertools.permutations(range(n)):
        table = []
        for mask in range(1 << n):
            image = 0
            for src in range(n):
                if mask >> src & 1:
                    image |= 1 << perm[src]
            table.append(image)
        tables.append(table)
    return rev, tables


def _scalar_canonical_body(phi: Outmap) -> bytes:
    """Reference canonicalizer: every relabeled byte body, minimized one by one.

    Its tables come from scalar loops, not from the canonicalizer it checks.
    """
    n = phi.n
    size = 1 << n
    rev, tables = _scalar_tables(n)
    best: bytes | None = None
    for table in tables:
        keyed = [rev[table[value]] for value in phi.values]
        for r in range(size):
            cand = bytearray(size)
            for v in range(size):
                cand[table[v] ^ r] = keyed[v]
            packed = bytes(cand)
            if best is None or packed < best:
                best = packed
    body = "\n".join(value_line(rev[key], n) for key in best) + "\n"
    return body.encode()


# the reference's own chunk budget, so that patching _GATHER_BYTES leaves it alone
_REFERENCE_BYTES = 1 << 20


def _unpruned_keys(vals: np.ndarray, n: int) -> np.ndarray:
    """Reference batch canonicalizer: every relabeled body packed into keys, then minimized.

    All 2**n * n! bodies of every row are packed position by position into
    the same uint64 key words as _canonical_keys, so no symmetry is skipped.
    """
    keyed, source, _ = enumeration._symmetry_gather(n)
    bits = per_word = 8
    size = 1 << n
    out = np.empty((len(vals), -(-size // per_word)), dtype=np.uint64)
    # per row: the uint8 bodies take group * size bytes, each key word group * 8
    step = max(1, _REFERENCE_BYTES // (len(source) * max(size, 8)))
    for lo in range(0, len(vals), step):
        block = vals[lo : lo + step]
        bodies = keyed[block].reshape(len(block), -1)[:, source]
        words = []
        for start in range(0, size, per_word):
            word = np.zeros(bodies.shape[:2], dtype=np.uint64)
            for q in range(start, min(start + per_word, size)):
                word <<= bits
                word |= bodies[:, :, q]
            words.append(word)
        if len(words) == 1:
            out[lo : lo + len(block), 0] = words[0].min(axis=1)
        else:
            best = np.lexsort(words[::-1], axis=-1)[:, 0]
            picked = np.arange(len(block))
            out[lo : lo + len(block)] = np.stack([word[picked, best] for word in words], axis=1)
    return out


@pytest.fixture(scope="module")
def canonical_samples():
    """Outmaps of several classes and dimensions with their reference bodies."""
    rng = random.Random(0xCA11)
    samples = {
        "orientations(0)": orientations(0),
        "orientations(1)": orientations(1),
        "orientations(2)": orientations(2),
        "uso(3)": list(enumerate_usos(3)),
        "puso(3)": list(enumerate_pusos(3)),
        "odd(4)[::25]": list(enumerate_odd(4))[::25],
        "puso(4)": [extend_border(dual(phi), bit) for phi in enumerate_odd(3) for bit in (0, 1)],
        "random_puso(5)": [random_puso(5, rng) for _ in range(30)],
    }
    return {
        name: [(phi, _scalar_canonical_body(phi)) for phi in outmaps]
        for name, outmaps in samples.items()
    }


def test_canonical_form_matches_scalar_oracle(canonical_samples):
    assert len(canonical_samples["puso(4)"]) == 224
    for name, pairs in canonical_samples.items():
        for phi, body in pairs:
            assert canonical_form(phi).body == body, (name, phi.values)


def test_orbit_representatives_match_scalar_oracle(canonical_samples):
    for name, pairs in canonical_samples.items():
        reps = orbit_representatives(phi for phi, _ in pairs)
        assert [rep.body for rep in reps] == sorted({body for _, body in pairs}), name


@st.composite
def _outmap_blocks(draw):
    """A dimension n <= 5 and a block of value rows: random, constant, all zero or
    two-valued, {0, v}, which ties widely at position 0 and parts at position 1 or later."""
    n = draw(st.integers(0, 5))
    size = 1 << n
    value = st.integers(0, size - 1)
    row = st.one_of(
        st.lists(value, min_size=size, max_size=size),
        value.map(lambda v: [v] * size),
        st.just([0] * size),
        st.tuples(value, st.lists(st.booleans(), min_size=size, max_size=size)).map(
            lambda pick: [pick[0] * bit for bit in pick[1]]
        ),
    )
    return n, draw(st.lists(row, min_size=1, max_size=40))


@given(_outmap_blocks(), st.sampled_from((1 << 12, 1 << 15, enumeration._GATHER_BYTES)))
@settings(max_examples=80, deadline=None)
def test_pruned_keys_match_unpruned_reference(block, budget):
    """Small budgets split a block into several chunks, and stage 2 into several runs."""
    n, rows = block
    vals = np.array(rows, dtype=np.uint8)
    with mock.patch.object(enumeration, "_GATHER_BYTES", budget):
        keys = enumeration._canonical_keys(vals, n)
    assert (keys == _unpruned_keys(vals, n)).all()


def test_pruned_keys_match_unpruned_reference_beyond_one_chunk():
    """150 rows at n = 5 span two default chunks; all-zero rows tie every symmetry."""
    rng = random.Random(0x5EED)
    rows = [random_puso(5, rng).values for _ in range(120)]
    rows += [(0,) * 32] * 20 + [(rng.randrange(32),) * 32 for _ in range(10)]
    rng.shuffle(rows)
    vals = np.array(rows, dtype=np.uint8)
    assert len(vals) > enumeration._GATHER_BYTES // (2 * 3840)
    assert (enumeration._canonical_keys(vals, 5) == _unpruned_keys(vals, 5)).all()


@pytest.mark.parametrize("case", ["all-zero 5-cubes", "odd(4)"])
def test_canonical_keys_peak_memory_stays_near_the_gather_budget(case):
    """Stage 1's candidate indices and stage 2's body indices are 8-byte intp
    arrays; chunks and runs sized by them keep the peak flat, also when all
    3840 symmetries tie on every row."""
    if case == "odd(4)":
        n, vals, limit = 4, np.asarray(enumeration._odd_values(4), dtype=np.uint8), 2e6
    else:
        n, vals, limit = 5, np.zeros((150, 32), dtype=np.uint8), 10e6
    enumeration._canonical_keys(vals[:1], n)  # the cached symmetry tables are not counted
    tracemalloc.start()
    try:
        enumeration._canonical_keys(vals, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def _relabelings(values, n: int) -> np.ndarray:
    """All 2**n * n! relabelings V -> sigma(V) XOR R of one outmap, one per row."""
    size = 1 << n
    tables = np.array(
        [
            [sum(1 << perm[i] for i in range(n) if mask >> i & 1) for mask in range(size)]
            for perm in itertools.permutations(range(n))
        ]
    )
    # relabeled[sigma(V) XOR R] = sigma(values[V])
    where = tables[:, None, :] ^ np.arange(size)[None, :, None]
    images = np.broadcast_to(tables[:, list(values)][:, None, :], where.shape)
    out = np.empty(where.shape, dtype=np.int64)
    np.put_along_axis(out, where, images, axis=2)
    return out.reshape(-1, size)


def test_puso5_orbits_by_relabeling_and_orbit_stabilizer():
    """PUSO(5), the 25856 doublings extend_border(dual(phi), bit) of odd(4), by a second method.

    Orbits are found by relabeling each outmap under all 3840 symmetries.
    The reference key of an outmap is its orbit's minimum, so the reference
    run on one member per orbit gives the key every member must get.
    """
    outmaps = [extend_border(dual(phi), bit).values for phi in enumerate_odd(4) for bit in (0, 1)]
    index = {values: i for i, values in enumerate(outmaps)}
    assert len(index) == 25856
    orbit = np.full(len(outmaps), -1)
    firsts = []
    for i, values in enumerate(outmaps):
        if orbit[i] < 0:
            # a KeyError here would mean an image outside PUSO(5)
            members = sorted({index[tuple(row)] for row in _relabelings(values, 5).tolist()})
            assert (orbit[members] == -1).all()
            orbit[members] = len(firsts)
            firsts.append(i)
    assert len(firsts) == 18
    vals = np.array(outmaps, dtype=np.uint8)
    reference = _unpruned_keys(vals[firsts], 5)
    assert len(np.unique(reference, axis=0)) == 18
    assert (enumeration._canonical_keys(vals, 5) == reference[orbit]).all()
    # orbit-stabilizer: |Stab| symmetries reach the minimal body
    keyed, source, _ = enumeration._symmetry_gather(5)
    total = 0
    for k, i in enumerate(firsts):
        bodies = [bytes(body) for body in keyed[vals[i]].reshape(-1)[source].tolist()]
        stab = bodies.count(min(bodies))
        assert 3840 % stab == 0 and 3840 // stab == (orbit == k).sum()
        total += 3840 // stab
    assert total == 25856


def test_orbit_representatives_across_batches():
    """All of odd(4) spans several canonicalization batches and has 35 orbits."""
    reps = orbit_representatives(enumerate_odd(4))
    assert len(reps) == 35
    assert [rep.body for rep in reps] == sorted(rep.body for rep in reps)
    for rep in reps:
        assert _scalar_canonical_body(rep.to_outmap()) == rep.body


def test_canonical_form_fixed_point():
    form = canonical_form(klee_minty(3))
    again = canonical_form(form.to_outmap())
    assert form == again


def test_canonical_form_invariant_under_relabelings():
    rng = random.Random(5)
    base = klee_minty(3)
    target = canonical_form(base)
    for _ in range(25):
        relabeled = random_relabeling(base, rng)
        assert canonical_form(relabeled) == target


def random_relabeling(phi: Outmap, rng) -> Outmap:
    n = phi.n
    perm = list(range(n))
    rng.shuffle(perm)
    shift = rng.randrange(1 << n)

    def on_mask(mask: int) -> int:
        out = 0
        for src in range(n):
            if mask >> src & 1:
                out |= 1 << perm[src]
        return out

    values = [0] * (1 << n)
    for v in range(1 << n):
        values[on_mask(v) ^ shift] = on_mask(phi[v])
    return Outmap(n, tuple(values))


def test_flip_stays_in_orbit_only_sometimes(km_3):
    # flips realize vertex translations composed with value changes; a flip
    # by the full mask equals relabeling by translation with R = full mask
    translated = flip(km_3, 0b111)
    bodies = {canonical_form(km_3).body, canonical_form(translated).body}
    assert len(bodies) in (1, 2)


def test_orbit_counts_for_small_classes():
    assert len(orbit_representatives(orientations(2))) == 4
    assert len(orbit_representatives(enumerate_usos(2))) == 2
    reps = orbit_representatives(enumerate_usos(3))
    assert len(reps) == 19
    for rep in reps:  # each body against a scalar rendering of its form
        assert rep.body == "".join(value_line(v, 3) + "\n" for v in rep.to_outmap().values).encode()
    assert len(orbit_representatives(enumerate_pusos(3))) == 2


def test_orbit_sizes_of_two_dimensional_usos():
    sizes = {}
    for phi in enumerate_usos(2):
        sizes.setdefault(canonical_form(phi).body, 0)
        sizes[canonical_form(phi).body] += 1
    assert sorted(sizes.values()) == [4, 8]


def test_orbit_representatives_sorted_and_canonical():
    reps = orbit_representatives(enumerate_usos(2))
    assert len(reps) == 2
    assert [r.body for r in reps] == sorted(r.body for r in reps)
    for rep in reps:
        phi = rep.to_outmap()
        assert canonical_form(phi) == rep
        assert parse_uso(f"{rep.n}\n" + rep.body.decode()) == phi


def test_orbit_validation():
    with pytest.raises(ValueError):
        orbit_representatives([Outmap(1, (1, 0)), Outmap(2, (0, 1, 3, 2))])
    with pytest.raises(ResourceLimitError):
        orbit_representatives([klee_minty(6)])
    with pytest.raises(ResourceLimitError):
        canonical_form(klee_minty(6))


# ---------------------------------------------------------------------------
# random generators


def test_random_uso_is_uso(rng):
    for n in range(5):
        for _ in range(8):
            phi = random_uso(n, rng)
            assert phi.n == n
            assert is_uso_naive(phi).verdict is Verdict.USO


def test_random_odd_and_puso(rng):
    for n in range(5):
        assert is_odd(random_odd(n, rng))[0]
    for n in range(2, 6):
        assert is_puso(random_puso(n, rng))
    for n in (0, 1, 6):
        with pytest.raises(ResourceLimitError):
            random_puso(n, rng)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: next(enumerate_usos(-1)), id="enumerate_usos"),
        pytest.param(lambda: next(enumerate_pusos(-1)), id="enumerate_pusos"),
        pytest.param(lambda: next(enumerate_odd(-1)), id="enumerate_odd"),
        pytest.param(lambda: random_uso(-1, random.Random(0)), id="random_uso"),
        pytest.param(lambda: random_odd(-1, random.Random(0)), id="random_odd"),
        pytest.param(lambda: random_puso(-1, random.Random(0)), id="random_puso"),
        pytest.param(lambda: count_uso_successor(-1), id="count_uso_successor"),
        pytest.param(lambda: count_odd_successor(-1), id="count_odd_successor"),
    ],
)
def test_negative_dimensions_are_refused_by_name(call):
    with pytest.raises(ValueError, match="dimension -1 is negative"):
        call()
