"""Top-level acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per criterion.  Criterion 8 has a long-running full-range oracle for
the exact counts that only runs when USO_KIT_OPT_IN lists its targets, e.g.

    USO_KIT_OPT_IN=uso4,odd5 pytest tests/test_acceptance.py -v -s

Its odd5 part sums the filter over all 12928 lower facets in one process
and takes about 20 seconds; its uso4 part also counts the odd and border
rows among all 5541744 4-USOs, by all pairs and by the disjoint pairs, in
about 10 seconds.  A part other than uso4 and odd5 (a typo such
as odd_5) stops the module at collection rather than skipping the oracle.
Everything else finishes in well under a minute.
"""

import functools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from uso_kit import (
    Outmap,
    Parity,
    Verdict,
    all_faces_caps,
    canonical_form,
    count_odd_successor,
    count_table,
    count_uso_successor,
    cyclic_puso,
    dual,
    enumerate_odd,
    enumerate_pusos,
    enumerate_usos,
    extend_border,
    face_sinks,
    full_mask,
    hamming_codewords,
    is_border,
    is_odd,
    is_puso,
    is_uso_fast,
    is_uso_naive,
    klee_minty,
    orbit_representatives,
    odd_family,
    puso_parity,
    PairEvalCounter,
)
from uso_kit import enumeration

from conftest import orientations, outmap_functions
from test_constructions import random_cycle


def criterion(number: int, title: str):
    """Print one pass/fail line per criterion, whatever pytest reports."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}", flush=True)
                raise
            print(f"[PASS] criterion {number}: {title}", flush=True)
            return result

        return wrapper

    return decorate


@criterion(1, "class counts per dimension match the published table")
def test_criterion_1_table_reproduction():
    table = count_table(4)
    assert [row.uso for row in table.rows[:4]] == [1, 2, 12, 744]
    assert [row.puso for row in table.rows] == [0, 0, 4, 16, 224]
    assert [row.border for row in table.rows] == [1, 2, 8, 112, 12928]
    assert [row.odd for row in table.rows] == [1, 2, 8, 112, 12928]


@criterion(2, "puso(n) = 2*odd(n-1) for n in 2..4, checked against brute force")
def test_criterion_2_cross_formulas():
    odd_counts = {m: sum(1 for _ in enumerate_odd(m)) for m in (1, 2, 3)}
    table = count_table(4)
    for n in (2, 3, 4):
        assert table.rows[n].puso == 2 * odd_counts[n - 1]
    # independent brute force over all small orientations
    assert sum(1 for _ in enumerate_pusos(2)) == 2 * odd_counts[1]
    assert sum(1 for _ in enumerate_pusos(3)) == 2 * odd_counts[2]


@criterion(3, "orbit counts 4 / 2 (sizes 4+8) / 19 / 2 under cube symmetry")
def test_criterion_3_orbit_counts():
    assert len(orbit_representatives(orientations(2))) == 4
    sizes: dict[bytes, int] = {}
    for phi in enumerate_usos(2):
        body = canonical_form(phi).body
        sizes[body] = sizes.get(body, 0) + 1
    assert len(sizes) == 2
    assert sorted(sizes.values()) == [4, 8]
    assert len(orbit_representatives(enumerate_usos(3))) == 19
    assert len(orbit_representatives(enumerate_pusos(3))) == 2


@criterion(4, "fast and naive recognizers agree; fast uses exactly 3^n - 2^n evals")
def test_criterion_4_recognizer_equivalence():
    # the full 2-dimensional function space
    for phi in outmap_functions(2):
        counter = PairEvalCounter()
        fast = is_uso_fast(phi, counter)
        assert counter.count == 3**2 - 2**2
        assert fast == (is_uso_naive(phi).verdict is Verdict.USO)
    # every single 3-cube edge orientation
    for phi in orientations(3):
        assert is_uso_fast(phi) == (is_uso_naive(phi).verdict is Verdict.USO)
    # 100000 seeded-random outmap functions of dimensions 3 and 4
    rng = random.Random(0xACCE55)
    budget_checks = 0
    for count, n in ((88_000, 3), (12_000, 4)):
        size = 1 << n
        expected = 3**n - 2**n
        for i in range(count):
            phi = Outmap(n, tuple(rng.getrandbits(n) for _ in range(size)))
            if i % 100 == 0:
                counter = PairEvalCounter()
                fast = is_uso_fast(phi, counter)
                assert counter.count == expected
                budget_checks += 1
            else:
                fast = is_uso_fast(phi)
            assert fast == (is_uso_naive(phi).verdict is Verdict.USO)
    assert budget_checks == 1000


@criterion(5, "odd == border-of-dual == all-faces-caps; PUSO antipodes and parity")
def test_criterion_5_characterization_agreement():
    for phi in enumerate_usos(3):
        odd = is_odd(phi)[0]
        assert odd == is_border(dual(phi))[0]
        assert odd == all_faces_caps(phi)
    for phi in enumerate_pusos(3):
        full = full_mask(3)
        for v in range(8):
            assert phi[v] == phi[v ^ full]
        parities = {phi[v].bit_count() & 1 for v in range(8)}
        assert len(parities) == 1
        sinks = len(face_sinks(phi))
        assert sinks in (0, 2)
        assert (sinks == 2) == (puso_parity(phi) is Parity.EVEN)


@criterion(6, "generators: decreasing-path odd, cyclic PUSOs, doubling behavior")
def test_criterion_6_construction_validity():
    for n in range(6):
        assert is_odd(klee_minty(n))[0]
    rng = random.Random(0x515)
    for n in range(2, 7):
        assert is_puso(cyclic_puso(n))
        for _ in range(20):
            assert is_puso(cyclic_puso(n, random_cycle(n, rng)))
    bows = [phi for phi in enumerate_usos(2) if is_odd(phi)[0]]
    eyes = [phi for phi in enumerate_usos(2) if not is_odd(phi)[0]]
    assert len(bows) == 8 and len(eyes) == 4
    for bow in bows:
        for bit in (0, 1):
            assert is_puso(extend_border(bow, bit))
    for eye in eyes:
        for bit in (0, 1):
            assert not is_puso(extend_border(eye, bit))


@criterion(7, "codeword family: 100 distinct odd 7-cube members; all 4 members at n=4")
def test_criterion_7_lower_bound_family():
    words = hamming_codewords(8).words
    selector_space = 1 << len(words)
    rng = random.Random(0xFA111E)
    selectors = rng.sample(range(selector_space), 100)
    seen = set()
    for t in selectors:
        phi = odd_family(8, t)
        assert phi.n == 7
        assert is_odd(phi)[0]
        seen.add(phi.values)
    assert len(seen) == 100
    odd_three = {phi.values for phi in enumerate_odd(3)}
    members = {odd_family(4, t).values for t in range(4)}
    assert len(members) == 4
    assert members <= odd_three


@criterion(8, "derived puso(5) = 25856 from default-scale data")
def test_criterion_8_derived_five_dimensional_puso():
    table = count_table(5)
    assert table.rows[5].puso == 25_856
    assert table.rows[5].uso is None and table.rows[5].odd is None


@criterion(8, "exact counts uso(4) = 5541744 and odd(5) = border(5) = 44075264")
def test_criterion_8_exact_counts():
    table = count_table(5, opt_in=("uso4", "odd5"))
    assert table.rows[4].uso == 5_541_744
    assert table.rows[5].odd == 44_075_264
    # border(n) = odd(n): duality is a count-preserving bijection
    assert table.rows[5].border == 44_075_264
    assert table.rows[5].puso == 25_856
    assert table.rows[5].uso is None


def _opted_in() -> set[str]:
    """The USO_KIT_OPT_IN parts; an unknown one (a typo such as odd_5) raises."""
    parts = {part for part in os.environ.get("USO_KIT_OPT_IN", "").split(",") if part}
    unknown = sorted(parts - {"uso4", "odd5"})
    if unknown:
        raise ValueError(f"unknown USO_KIT_OPT_IN parts: {unknown}; known: odd5, uso4")
    return parts


def test_unknown_opt_in_parts_fail_loudly(monkeypatch):
    monkeypatch.setenv("USO_KIT_OPT_IN", "odd_5")
    with pytest.raises(ValueError, match=r"\['odd_5'\]"):
        _opted_in()
    monkeypatch.setenv("USO_KIT_OPT_IN", "uso5,uso4,odd-5")
    with pytest.raises(ValueError, match=r"\['odd-5', 'uso5'\]"):
        _opted_in()
    monkeypatch.setenv("USO_KIT_OPT_IN", "uso4,odd5,")  # a trailing empty part is allowed
    assert _opted_in() == {"uso4", "odd5"}


def _odd_and_border_4_usos():
    """Odd and border 4-USOs among all 5541744, each found twice, by the
    pair definitions over all 120 vertex pairs and by the 40 disjoint pairs
    (the border condition on the values, and on the inverse for odd).

    Rows come one coloring g at a time: each pair of 3-USO facets that g
    keys alike is joined as lower | g * 8 and upper | (1 - g) * 8, in uint8
    chunks of at most 65536 rows.  Returns (rows, odd, border, disjoint odd,
    disjoint border, rows on which the two methods disagree).
    """
    vals3, sinks = enumeration._uso_values(3).astype(np.uint8), enumeration._uso_sink_rows(3)
    verts = np.arange(16, dtype=np.uint8)
    parity = np.array([v.bit_count() & 1 for v in range(16)], dtype=np.uint8)
    u, v = (side.astype(np.uint8) for side in np.triu_indices(16, 1))
    a, b = (side.astype(np.uint8) for side in np.nonzero(verts[:, None] & verts == 0))
    a, b = a[a < b], b[a < b]
    assert (len(u), len(a)) == (120, 40)

    def passes(w, p, q, odd):
        """Rows of w with no failing pair (p[j], q[j]): with D = w(p) ^ w(q), a pair
        fails when p ^ q lies inside D and |p ^ q| is even (odd), or D inside p ^ q
        and |D| even (border; on disjoint pairs p ^ q is p | q)."""
        d, x = w[:, p] ^ w[:, q], p ^ q
        inner, outer = (x, d) if odd else (d, x)
        return ~((inner & ~outer == 0) & (parity[inner] == 0)).any(axis=1)

    totals = np.zeros(6, dtype=np.int64)
    for g in range(256):
        keys = enumeration._coloring_keys(sinks, 3, [g])[:, 0]
        i0, i1 = np.nonzero(keys[:, None] == keys)
        color = (g >> verts[:8] & 1) << 3
        for lo in range(0, len(i0), 1 << 16):
            phi = np.concatenate(
                [vals3[i0[lo : lo + (1 << 16)]] | color, vals3[i1[lo : lo + (1 << 16)]] | color ^ 8],
                axis=1,
            )
            inverse = phi.argsort(axis=1).astype(np.uint8)  # a USO is a bijection
            odd, border = passes(phi, u, v, True), passes(phi, u, v, False)
            odd_disjoint, border_disjoint = passes(inverse, a, b, False), passes(phi, a, b, False)
            wrong = (odd != odd_disjoint) | (border != border_disjoint)
            totals += [len(phi), odd.sum(), border.sum(), odd_disjoint.sum(),
                       border_disjoint.sum(), wrong.sum()]
    return tuple(totals.tolist())


@pytest.mark.skipif(
    not _opted_in() & {"uso4", "odd5"},
    reason="long-running full-range oracle of the exact counts (odd5 takes about 20 seconds "
    "in one process); set USO_KIT_OPT_IN=uso4,odd5",
)
@criterion(8, "full-range oracle of the exact counts uso(4) and odd(5) (long-running)")
def test_criterion_8_opt_in_exact_counts():
    targets = _opted_in()
    if "uso4" in targets:
        assert count_uso_successor(3) == 5_541_744
        # the n = 4 odd and border cells by a second method, border(4) without duality
        assert _odd_and_border_4_usos() == (5_541_744, 12928, 12928, 12928, 12928, 0)
    if "odd5" in targets:
        table = count_table(5, opt_in=("odd5",))
        assert table.rows[5].odd == 44_075_264
        # border(n) = odd(n): duality is a count-preserving bijection
        assert table.rows[5].border == 44_075_264
        assert table.rows[5].puso == 25_856
        # the full unweighted sum over all 12928 lower facets
        nib, rows = enumeration._facet_arrays(4)
        full = enumeration._odd_successor_worker((nib, rows, 4, 0, len(nib)))
        assert full == 44_075_264


@criterion(9, "property suites pass standalone with zero violations")
def test_criterion_9_property_suites_standalone():
    suite = os.path.join(os.path.dirname(__file__), "test_properties.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", suite, "-q", "--no-header", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
