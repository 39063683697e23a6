"""Exhaustive enumeration, counting, and orbit reduction at desk scale.

Enumeration strategy by dimension:

* n <= 3 USOs and PUSOs: one call of the batch face kernel over all
  2**(n * 2**(n-1)) orientations, one per edge-direction word.
* n >= 3 odd USOs: compose every ordered pair of (n-1)-dimensional odd USOs
  into opposite facets.  The connecting-edge pattern is forced up to a
  global flip because every spanning 2-face of an odd USO must be a bow
  (the bow rule), so each ordered pair contributes 0 or 2 candidates; the
  pattern is forced along the spanning tree that joins each facet vertex
  to the vertex without its lowest coordinate.  A candidate survives iff
  every face spanning the new coordinate has a unique sink (the two facet
  sinks' connecting edges agree) and the cross-facet odd pair condition
  holds.

Composition strategy: one vectorized filter, _valid_upper_mask, tests a
lower facet against every upper facet at once, on one 16-bit vertex set
per upper facet, and one block builder, _compose_block, turns the lower
facet and all the uppers it accepts into a numpy array of records, each
upper's seed-0 composition followed by its flip.  Together they build the
odd lists for n = 3, 4 and stream n = 5; the filter alone counts
odd(n + 1).  The scalar _compose_valid_pattern is the reference the
filter is tested against, and the filter is equivalent to running the
generic odd test on the composed outmap, which the test suite asserts for
n = 3 in full and for n = 5 on a sample.  Each class list (_uso_values,
_puso_values, _odd_values) is one cached, read-only (k, 2**n) array in
_vertex_dtype(n); only streams and random draws turn its rows into Outmaps.

Counting uses the same composition idea without materializing outmaps.
A coloring g of the facet vertices (the connecting edges) joins two facet
USOs into a USO iff g colors both sinks of every facet face alike, that
is iff _coloring_keys keys them alike.  So uso(m + 1) is the collision sum
of N_g(x)**2 over colorings g and keys x, N_g(x) the facets keyed x, once
per orbit of colorings (14 at m = 3); the per-facet worker and random_uso(4)
join by the same keys.  Odd counts sum the pair filter's survivors once per
symmetry orbit of lower facets (35 of odd 4-USOs).  Every uso and odd cell
of the count table with n >= 1 is such a count over the dimension n - 1
list, so the table builds facet lists only up to n = 3 (n = 4 with the
odd5 opt-in), in one process.  All streams and tables are deterministic.

Orbits are taken under the vertex relabelings V -> sigma(V) XOR R (the
2**n * n! cube symmetries, n <= 5); the canonical form of an outmap is the
lexicographically smallest .uso body over the orbit.  One batch numpy
canonicalizer (_canonical_keys) works in two exact stages: it keeps each
symmetry whose body positions 0 and 1 are the row's minimal pair (a body
that starts larger cannot be the minimum), then reads the kept bodies'
bytes as big-endian words, which compare like the bodies, and keeps the
minimum.  Canonical forms, orbit representatives and the counting orbits
all use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .classes import dual
from .constructions import _check_dimension, extend_border
from .cube import Outmap, _uso_body, _vertex_dtype, face_schedule, parse_uso
from .errors import ResourceLimitError
from .recognition import _face_failures, _first_failing_pair, _puso_rows, _vertex_parity


# ---------------------------------------------------------------------------
# exhaustive generators


def _outmaps(n: int, values: np.ndarray) -> Iterator[Outmap]:
    """An unchecked Outmap (see Outmap) per row of a (k, 2**n) valid value array, 256 rows
    per tolist(): a whole facet block's Python lists (about 1.3 MB at n = 5) raised peak memory."""
    for lo in range(0, len(values), 256):
        for row in values[lo : lo + 256].tolist():
            yield Outmap(n, tuple(row), _checked=True)


def _edge_list(n: int) -> list[tuple[int, int]]:
    """Edges as (lower vertex, coordinate position), vertex-major order."""
    return [(v, pos) for v in range(1 << n) for pos in range(n) if not v >> pos & 1]


def _orientation_values(n: int) -> np.ndarray:
    """Every orientation, one per row: bit idx of the row number points edge idx up."""
    edges = _edge_list(n)
    dtype = _vertex_dtype(n)
    words = np.arange(1 << len(edges))
    values = np.zeros((len(words), 1 << n), dtype=dtype)
    for idx, (v, pos) in enumerate(edges):
        up = (words >> idx & 1).astype(dtype)
        values[:, v] |= up << pos
        values[:, v | 1 << pos] |= (up ^ 1) << pos
    return values


@lru_cache(maxsize=None)
def _uso_values(n: int) -> np.ndarray:
    """Values of every USO of the n-cube (n <= 3), read-only, in enumerate_usos order."""
    if n > 3:
        raise ResourceLimitError("exhaustive USO enumeration is capped at n = 3")
    vals = _orientation_values(n)
    vals = vals[~_face_failures(vals, n).any(axis=1)]
    # lexsort's last key is its primary one: vertex 0's value for n <= 2, and for
    # n = 3 edge 0's column, which reads 1 where the upper endpoint owns the edge
    if n <= 2:
        keys = vals.T[::-1]
    else:
        keys = [vals[:, v] >> pos & 1 ^ 1 for v, pos in _edge_list(n)[::-1]]
    vals = vals[np.lexsort(keys)]
    vals.flags.writeable = False
    return vals


def enumerate_usos(n: int) -> Iterator[Outmap]:
    """All USOs of the n-cube (n <= 3), filtered by one call of the face kernel.

    The kernel filters every orientation.  n <= 2 keeps lexicographic value
    order; n = 3 orders the 744 USOs by their edges in _edge_list order,
    edge 0 first, an edge pointing up before one pointing down.
    """
    _check_dimension(n)
    yield from _outmaps(n, _uso_values(n))


@lru_cache(maxsize=None)
def _puso_values(n: int) -> np.ndarray:
    """Values of every PUSO of the n-cube (n <= 3), read-only, in orientation order."""
    if n > 3:
        raise ResourceLimitError("exhaustive PUSO enumeration is capped at n = 3")
    vals = _orientation_values(n)
    vals = vals[_puso_rows(_face_failures(vals, n), n)]
    vals.flags.writeable = False
    return vals


def enumerate_pusos(n: int) -> Iterator[Outmap]:
    """All PUSOs of the n-cube by filtering orientations (n <= 3)."""
    _check_dimension(n)
    yield from _outmaps(n, _puso_values(n))


# ---------------------------------------------------------------------------
# facet composition


def _tree_pattern(psi0, psi1, m: int):
    """Seed-0 connecting pattern forced by the bow rule along a spanning tree.

    Bit v is the connecting edge at facet vertex v (1 = toward the upper
    facet).  The tree joins v to v minus its lowest coordinate; across a
    facet edge the connecting edges are antiparallel when the two facet
    edges are parallel, and parallel otherwise.  One facet pair, as tuples
    or numpy rows, gives a Python int; psi1 may also be a (2**m, k) array
    of k upper facets' columns, which gives k uint16 patterns.
    """
    if np.ndim(psi1) == 1:  # a numpy row's uint16 scalars would drop pattern bits >= 16
        psi0, psi1 = np.asarray(psi0).tolist(), np.asarray(psi1).tolist()
    g = psi1[0] & 0  # an int for one facet, an array of zeros for columns
    for v in range(1, 1 << m):
        bit = v & -v
        parent = v ^ bit
        pos = bit.bit_length() - 1
        h = (((psi0[parent] ^ psi1[parent]) >> pos) & 1) ^ 1
        g |= (((g >> parent) & 1) ^ h) << v
    return g


def _compose_block(lower, uppers, patterns, m: int) -> np.ndarray:
    """Compositions of one lower facet with k upper facets, as (2k, 2**(m+1)) rows.

    Row 2j composes upper j (row j of uppers) by its seed-0 pattern j: vertex
    v of the lower half is lower | top * bit, of the upper half upper | top *
    (1 - bit), for bit v of the pattern and top = 2**m.  Row 2j + 1 is its flip.
    """
    size = 1 << m
    dtype = _vertex_dtype(m + 1)
    tops = (patterns[:, None] >> np.arange(size) & 1).astype(dtype) << dtype(m)
    out = np.empty((len(patterns), 2, 2 * size), dtype=dtype)
    out[:, 0, :size] = np.asarray(lower, dtype=dtype) | tops
    out[:, 0, size:] = np.asarray(uppers, dtype=dtype) | tops ^ dtype(size)
    np.bitwise_xor(out[:, 0], dtype(size), out=out[:, 1])
    return out.reshape(2 * len(patterns), 2 * size)


@lru_cache(maxsize=None)
def _odd_distance_pairs(m: int) -> tuple[tuple[int, int, int], ...]:
    """Ordered vertex pairs (u, v, u XOR v) of the facet cube at odd Hamming distance."""
    size = 1 << m
    return tuple(
        (u, v, u ^ v) for u in range(size) for v in range(size) if (u ^ v).bit_count() & 1
    )


def _sink_rows(vals: np.ndarray, m: int) -> np.ndarray:
    """Sink vertex of every face with dim >= 1 (face_schedule order) for each row of
    a (k, 2**m) array of USO values, as a read-only table.  The rows must be USOs: by
    the unique-sink facet rule a face's sink is its lower facet's sink unless that vertex
    points along the facets' bit, and then its upper facet's; facets come first by dimension.
    """
    lowers, uppers = face_schedule(m)
    index = {face: f for f, face in enumerate(zip(lowers.tolist(), uppers.tolist()))}
    # face-major in memory: the pair filter reads the sinks of one face at a time
    rows = np.empty((vals.shape[0], len(index)), dtype=np.uint8, order="F")
    sink_vals = np.empty((len(index), vals.shape[0]), dtype=vals.dtype)
    for (a, b), f in index.items():
        bit = (a ^ b) & -(a ^ b)
        if a ^ b == bit:  # an edge: its facets are its endpoints
            s0, s1, v0, v1 = a, b, vals[:, a], vals[:, b]
        else:
            f0, f1 = index[a, b ^ bit], index[a | bit, b]
            s0, s1, v0, v1 = rows[:, f0], rows[:, f1], sink_vals[f0], sink_vals[f1]
        up = (v0 & bit).astype(bool)
        rows[:, f] = np.where(up, s1, s0)
        sink_vals[f] = np.where(up, v1, v0)
    rows.flags.writeable = False
    return rows


def _compose_valid_pattern(psi0, psi1, m, row0, row1, odd_pairs) -> int | None:
    """Seed-0 connecting pattern if composing two odd USOs yields an odd USO.

    The pattern is propagated along a spanning tree by the bow rule; the
    composition is an odd USO iff every facet face's two sinks agree on
    their connecting edges (unique sink in every spanning face) and no
    cross-facet pair at odd distance both satisfies the inclusion
    condition and agrees (odd pair condition).  Both candidates of a pair
    stand or fall together, so a non-None return stands for two results.
    This scalar form is the reference the vectorized _valid_upper_mask is
    tested against.
    """
    g = _tree_pattern(psi0, psi1, m)
    for s0, s1 in zip(row0, row1):
        if ((g >> s0) ^ (g >> s1)) & 1:
            return None
    for u, v, duv in odd_pairs:
        if not duv & ~(psi0[u] ^ psi1[v]) and not ((g >> u) ^ (g >> v)) & 1:
            return None
    return g


@lru_cache(maxsize=None)
def _odd_values(m: int) -> np.ndarray:
    """Values of every odd USO of the m-cube (m <= 4), read-only; m <= 2 by is_odd's scan."""
    if m > 4:
        raise ResourceLimitError("odd USO lists are materialized up to n = 4 only")
    if m <= 2:
        verts, parity, rows = np.arange(1 << m, dtype=np.uint16), _vertex_parity(m), _uso_values(m)
        vals = rows[[_first_failing_pair(verts, ~row, row, parity)[1] is None for row in rows]]
    else:
        vals = np.concatenate(list(_composed_odd(m - 1)))
    vals.flags.writeable = False
    return vals


def _composed_odd(m: int) -> Iterator[np.ndarray]:
    """Odd (m+1)-USOs composed from the dimension-m odd list, one block per lower facet.

    For each lower facet in list order, _valid_upper_mask picks the upper
    facets and _compose_block builds their records as one (2k, 2**(m+1))
    block: every accepted upper, in list order, gives its seed-0
    composition and then the flipped one.
    """
    nib, rows = _facet_arrays(m)
    for i0 in range(len(nib)):
        valid, patterns = _valid_upper_mask(i0, nib, rows, m)
        uppers = np.flatnonzero(valid)
        yield _compose_block(nib[i0], nib[uppers], patterns[uppers], m)


def enumerate_odd(n: int, allow_large: bool = False) -> Iterator[Outmap]:
    """All odd USOs of the n-cube; n <= 4 by default, n = 5 behind allow_large.

    Dimension 5 is a stream over ~3.3e8 composition candidates, one lower
    facet's block at a time (the vectorized pair filter finds the valid
    ones); it does not cache.
    """
    _check_dimension(n)
    if n > 5 or (n == 5 and not allow_large):
        raise ResourceLimitError(
            "odd enumeration is capped at n = 4 (n = 5 via the long-running opt-in)"
        )
    for block in [_odd_values(n)] if n <= 4 else _composed_odd(4):
        yield from _outmaps(n, block)


# ---------------------------------------------------------------------------
# counting


def _facet_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The full dimension-m odd USO list (_odd_values) and its sink table, both read-only.
    The table is built on every call, in about 6 ms at m = 4."""
    return _odd_values(m), _sink_rows(_odd_values(m), m)


@lru_cache(maxsize=None)
def _uso_sink_rows(m: int) -> np.ndarray:
    """Sink table of the full dimension-m USO list (read-only)."""
    return _sink_rows(_uso_values(m), m)


def _valid_upper_mask(i0: int, nib: np.ndarray, rows: np.ndarray, m: int):
    """Vectorized _compose_valid_pattern of facet i0 against every upper facet.

    Returns (valid mask, seed-0 patterns) over all uppers at once.  The
    tests work on vertex sets, one 16-bit word per upper facet (m <= 4):
    same[a] holds the vertices whose connecting edge points the same way
    as a's.  The sinks agree iff the upper sinks reached from lower sink a
    (reach[a]) lie inside same[a], and no odd pair agrees iff the lower
    vertices at odd distance from v that the upper value x at v includes
    (table[v, x]) avoid same[v], for every a and v.
    """
    size = 1 << m
    lower = nib[i0].tolist()
    cols = nib.T.copy()  # a copy even where nib.T is contiguous: cols is written below
    g = _tree_pattern(lower, cols, m)
    verts = np.arange(size, dtype=np.uint16)
    # (bit a of g) - 1 wraps to all ones where the bit is 0
    same = g ^ ((g >> verts[:, None] & 1) - 1)
    reach = np.zeros((size, len(nib)), dtype=np.uint16)
    upper_sinks = np.uint16(1) << rows.T
    for f, a in enumerate(rows[i0].tolist()):
        reach[a] |= upper_sinks[f]
    dist = verts ^ verts[:, None, None]
    odd = np.array([d.bit_count() & 1 for d in range(size)], dtype=bool)
    hits = odd[dist] & (dist & ~(np.array(lower) ^ verts[:, None]) == 0)
    table = (hits << verts).sum(axis=2, dtype=np.uint16)
    # each upper value cols[v] becomes the set of lower vertices it includes
    for v in range(size):
        table[v].take(cols[v], out=cols[v])
    # in place: temporaries here made every call at m = 4 fault in about
    # 500 fresh pages
    cols &= same
    np.invert(same, out=same)
    reach &= same
    reach |= cols
    return ~reach.any(axis=0), g


def _odd_successor_worker(args) -> int:
    nib, rows, m, lo, hi = args
    total = 0
    for i0 in range(lo, hi):
        valid, _ = _valid_upper_mask(i0, nib, rows, m)
        total += 2 * int(valid.sum())
    return total


def _coloring_keys(rows: np.ndarray, m: int, colorings) -> np.ndarray:
    """(k, c) int64 key of each facet (row of the sink table rows) under each coloring.

    Bit v of coloring g colors facet vertex v (1 = its connecting edge points
    up).  Bit f of a key is g's color of face f's sink; coloring j adds j above
    the face bits, so g joins two facets into a USO iff it keys them alike.  Keys
    wider than 63 bits (m = 4 has 65 face bits) raise ResourceLimitError.
    """
    colorings = np.asarray(colorings)
    if rows.shape[1] + (len(colorings) - 1).bit_length() > 63:
        raise ResourceLimitError(f"coloring keys of dimension {m} overflow int64")
    verts = np.arange(1 << m, dtype=np.uint8)
    # bit f of masks[i, v] says face f of facet i sinks at v (filled face by face: no
    # 3-d temporary), so g keys facet i by the sum of masks[i] over its 1-vertices
    masks = np.zeros((len(rows), len(verts)), dtype=np.int64)
    for f in range(rows.shape[1]):
        masks |= (rows[:, f, None] == verts) << f
    bits = colorings[:, None] >> verts & 1
    keys = masks @ bits.T
    keys += np.arange(len(bits)) << rows.shape[1]  # one key range per coloring
    return keys


def _uso_successor_worker(args) -> int:
    """(m+1)-USOs whose lower facet is facet lo..hi-1 of the sink table rows, size = 2**m:
    for each such facet L and each coloring, the facets it keys like L (L included)."""
    rows, size, lo, hi = args
    keys = _coloring_keys(np.asarray(rows), size.bit_length() - 1, np.arange(1 << size))
    return sum(int((keys == keys[i]).sum()) for i in range(lo, hi))


def _coloring_orbits(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Least member and size of every orbit of m-cube vertex colorings (m <= 3), with complement."""
    verts = np.arange(1 << m, dtype=np.uint8)
    # vertex q of a relabeled coloring reads vertex source[s, q] // m! of the original
    maps = _symmetry_gather(m)[1] // math.factorial(m)
    colorings = np.arange(1 << len(verts), dtype=np.uint8)[:, None] >> verts & 1
    images = (colorings[:, maps] << verts).sum(axis=2, dtype=np.uint8)
    least = np.minimum(images, images ^ np.uint8((1 << len(verts)) - 1)).min(axis=1)
    return np.unique(least, return_counts=True)


def count_uso_successor(m: int) -> int:
    """Count USOs of dimension m + 1 from the full dimension-m USO list.

    Every (m+1)-USO splits uniquely into two facet USOs and a coloring g of
    the facet vertices (1 = the connecting edge points up), and g works iff
    for every facet face the two sinks get the same color.  So the count is
    the collision sum of N_g(x)**2 over g and keys x = (g(sink of f))_f,
    N_g(x) the facets keyed x.  The sum over x is constant on the orbit of g
    under the cube symmetries and complement (1, 2, 4, 14 orbits for
    m = 0..3), so _coloring_keys takes one coloring per orbit, weighted by its size.
    """
    _check_dimension(m)
    if m > 3:
        raise ResourceLimitError("USO successor counting needs the full list of dimension <= 3")
    rows = _uso_sink_rows(m)
    reps, weights = _coloring_orbits(m)
    found, counts = np.unique(_coloring_keys(rows, m, reps), return_counts=True)
    return int(weights[found >> rows.shape[1]] @ counts**2)


def count_odd_successor(m: int) -> int:
    """Count odd USOs of dimension m + 1 by the vectorized pair filter.

    A symmetry fixing the new coordinate permutes the facet list, so each
    orbit's first lower facet (35 orbits for m = 4) stands for its orbit.
    """
    _check_dimension(m)
    if m > 4:
        raise ResourceLimitError("odd successor counting needs the full list of dimension <= 4")
    nib, rows = _facet_arrays(m)
    _, firsts, sizes = np.unique(
        _canonical_keys(nib, m), axis=0, return_index=True, return_counts=True
    )
    return sum(
        size * _odd_successor_worker((nib, rows, m, i, i + 1))
        for i, size in zip(firsts.tolist(), sizes.tolist())
    )


@dataclass(frozen=True)
class CountRow:
    """Counts for one dimension; None marks a value outside the run's scope."""

    uso: int | None
    puso: int | None
    border: int | None
    odd: int | None


@dataclass(frozen=True)
class CountTable:
    """Per-dimension count rows, index 0..max_n."""

    rows: tuple[CountRow, ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1


# Each opt-in cell and the dimension of its row.
OPT_IN_TARGETS = {"uso4": 4, "odd5": 5}


def count_table(max_n: int = 4, opt_in: Iterable[str] = (), jobs: int = 1) -> CountTable:
    """Exact class counts per dimension up to max_n (<= 5).

    Every uso and odd cell with n >= 1 is the successor count over the
    dimension n - 1 list.  uso reaches row 3 and odd row 4, and the opt-ins
    "uso4" (about 0.002 s) and "odd5" (about 0.2 s) raise them to rows 4
    and 5; cells above are None.  An opt-in whose row lies above max_n is
    refused with ValueError.  puso(n) = 2 * odd(n - 1) for n >= 2, and rows
    n <= 3 are checked against the sizes of the USO, PUSO and odd lists.

    Counting runs in one process.  jobs is kept only for the
    count_table(max_n, opt_in, 1) call shape of the benchmark and must
    be 1.
    """
    if jobs != 1:
        raise ValueError(f"count_table runs in one process; jobs must be 1, got {jobs!r}")
    opts = frozenset(opt_in)
    unknown = opts.difference(OPT_IN_TARGETS)
    if unknown:
        raise ValueError(f"unknown opt-in targets: {sorted(unknown)}")
    _check_dimension(max_n)
    if max_n > 5:
        raise ResourceLimitError("counting is supported for dimensions 0..5")
    above = sorted(opt for opt in opts if OPT_IN_TARGETS[opt] > max_n)
    if above:
        raise ValueError(f"opt-in targets {above} lie above max_n = {max_n}")
    uso_top = 4 if "uso4" in opts else 3
    odd_top = 5 if "odd5" in opts else 4
    dims = range(1, max_n + 1)
    uso = [1] + [count_uso_successor(n - 1) if n <= uso_top else None for n in dims]
    odd = [1] + [count_odd_successor(n - 1) if n <= odd_top else None for n in dims]
    puso = [2 * odd[n - 1] if n >= 2 else 0 for n in range(max_n + 1)]
    rows = tuple(CountRow(uso[n], puso[n], odd[n], odd[n]) for n in range(max_n + 1))
    for n, row in enumerate(rows[:4]):
        direct = (len(_uso_values(n)), len(_puso_values(n)), len(_odd_values(n)))
        if direct != (row.uso, row.puso, row.odd):
            raise AssertionError(f"count mismatch at n={n}: list sizes {direct} vs {row}")
    return CountTable(rows)


# ---------------------------------------------------------------------------
# orbits


@lru_cache(maxsize=None)
def _symmetry_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of all 2**n * n! relabelings V -> sigma(V) XOR R.

    keyed[x, p] is rev[sigma_p(x)], a value keyed so that numeric order
    matches .uso line order.  source[g, q] says where position q of the body
    relabeled by symmetry g = x * n! + p = (sigma_p, sigma_p(x)) reads from:
    vertex sigma_p^-1(q) XOR x under p, as a flat index into the (2**n, n!)
    array keyed[values].  So source[g, 0] = g; second is source[:, 1] (:, 0 at n = 0).
    """
    # tables[p, mask] is the image of the coordinate set mask under permutation p
    images = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    tables = (bits << images[:, None, :]).sum(axis=2)
    perms, size = tables.shape
    # the last permutation, i -> n - 1 - i, reverses bits: mask order <-> .uso line order
    keyed = tables[-1].astype(np.uint8)[tables.T]
    # sigma_p^-1 is linear over XOR: sigma_p^-1(q XOR R) = sigma_p^-1(q) XOR x
    source = (np.argsort(tables, axis=1) ^ np.arange(size)[:, None, None]) * perms
    source = (source + np.arange(perms)[:, None]).reshape(size * perms, size)
    return keyed, source, np.ascontiguousarray(source[:, min(1, size - 1)])


_GATHER_BYTES = 1 << 20  # bound on each batch temporary, to keep peak memory flat
_ORBIT_BATCH = 1024  # outmaps buffered per _canonical_keys call in orbit_representatives


def _canonical_keys(vals: np.ndarray, n: int) -> np.ndarray:
    """Minimal body over the symmetry orbit of every row of vals, as key words.

    vals is a (k, 2**n) array of outmap values; the result is (k, words) uint64,
    the body's bytes as big-endian words (one for n <= 3, two at n = 4, four at
    n = 5), which order like the bodies.  Two exact stages: the first keeps each
    symmetry whose body positions 0 and 1 are its row's minimal pair, since only
    those can reach the minimal body (at most 60 per record on PUSO(5)): column g
    of keyed[vals] is position 0 of symmetry g, and position 1 is gathered for
    the row minimum's columns alone.  The second gathers full bodies for the kept
    symmetries and takes each row's minimum with one lexsort keyed by row.  Rows
    go in chunks and the kept symmetries in runs of whole rows, sized by their
    intp indices, so no temporary exceeds about _GATHER_BYTES, even in a tie.
    """
    keyed, source, second = _symmetry_gather(n)
    group, size = source.shape
    out = np.empty((len(vals), -(-size // 8)), dtype=np.uint64)
    step = max(1, _GATHER_BYTES // (8 * group))
    cap = _GATHER_BYTES // (8 * size)
    for lo in range(0, len(vals), step):
        flat = keyed[vals[lo : lo + step]].reshape(-1, group)
        at = np.flatnonzero(flat == flat.min(axis=1, keepdims=True))
        rows, syms = np.divmod(at, group)
        at += second[syms] - syms  # each candidate's position 1, in its row
        pair = np.take(flat, at)
        counts = np.bincount(rows, minlength=len(flat))
        keep = pair == np.repeat(np.minimum.reduceat(pair, np.cumsum(counts) - counts), counts)
        rows, syms = rows[keep], syms[keep]
        counts = np.bincount(rows, minlength=len(flat))
        ends = np.cumsum(counts)
        firsts = ends - counts
        a = 0
        while a < len(flat):
            # rows a .. b - 1: as many whole rows of kept symmetries as fit in cap
            b = max(a + 1, int(np.searchsorted(ends, firsts[a] + cap, side="right")))
            i, j = firsts[a], ends[b - 1]
            at = source[syms[i:j]]
            at += rows[i:j, None] * group
            # big-endian words of the body's bytes compare like the body
            words = np.take(flat, at).view(f">u{min(size, 8)}")
            order = np.lexsort((*words.T[::-1], rows[i:j]))
            out[lo + a : lo + b] = words[order[firsts[a:b] - i]]
            a = b
    return out


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically minimal .uso body over an outmap's symmetry orbit."""

    n: int
    body: bytes

    def to_outmap(self) -> Outmap:
        return parse_uso(f"{self.n}\n" + self.body.decode())


def _form_from_key(key, n: int) -> CanonicalForm:
    """The .uso body of one row of _canonical_keys: the last 2**n bytes of its big-endian words."""
    codes = np.asarray(key, dtype=">u8").view(np.uint8)[-(1 << n) :]
    # position q holds rev[value], and bit reversal undoes itself: keyed[:, 0] is rev
    return CanonicalForm(n, _uso_body(_symmetry_gather(n)[0][codes, 0].tolist(), n).encode())


def canonical_form(phi: Outmap) -> CanonicalForm:
    """Minimal .uso body over all vertex relabelings V -> sigma(V) XOR R (n <= 5)."""
    if phi.n > 5:
        raise ResourceLimitError("canonicalization is capped at n = 5")
    key = _canonical_keys(np.array([phi.values], dtype=np.uint8), phi.n)[0]
    return _form_from_key(key, phi.n)


def orbit_representatives(outmaps: Iterable[Outmap]) -> list[CanonicalForm]:
    """Sorted canonical representative of every orbit present in the input.

    The input is canonicalized in batches, so a stream is never held whole.
    """
    keys: set[tuple[int, ...]] = set()
    batch: list[tuple[int, ...]] = []
    dim: int | None = None

    def reduce_batch() -> None:
        keys.update(map(tuple, _canonical_keys(np.array(batch, dtype=np.uint8), dim).tolist()))
        batch.clear()

    for phi in outmaps:
        if dim is None:
            dim = phi.n
            if dim > 5:
                raise ResourceLimitError("orbit counting is capped at n = 5")
        elif phi.n != dim:
            raise ValueError("orbit counting needs outmaps of one common dimension")
        batch.append(phi.values)
        if len(batch) == _ORBIT_BATCH:
            reduce_batch()
    if batch:
        reduce_batch()
    return [_form_from_key(key, dim) for key in sorted(keys)]


# ---------------------------------------------------------------------------
# class streams and random generators (test and CLI support)


def enumerate_class(kind: str, n: int, allow_large: bool = False) -> Iterator[Outmap]:
    """Stream one recognized class: uso | puso | odd | border."""
    _check_dimension(n)
    if kind == "uso":
        yield from enumerate_usos(n)
    elif kind == "puso":
        yield from enumerate_pusos(n)
    elif kind == "odd":
        yield from enumerate_odd(n, allow_large)
    elif kind == "border":
        # border USOs are exactly the duals of odd USOs
        for phi in enumerate_odd(n, allow_large):
            yield dual(phi)
    else:
        raise ValueError(f"unknown class {kind!r}")


def random_uso(n: int, rng) -> Outmap:
    """Random USO: sampled from the full list for n <= 3; for n = 4 a random facet pair
    joined by a uniform draw from the colorings _coloring_keys keys both alike by."""
    _check_dimension(n)
    if n <= 3:
        return Outmap(n, rng.choice(_uso_values(n)))
    if n != 4:
        raise ResourceLimitError("random USOs are supported for n <= 4")
    vals, rows = _uso_values(3), _uso_sink_rows(3)
    i0, i1 = rng.randrange(len(vals)), rng.randrange(len(vals))
    joins = np.flatnonzero(np.equal(*_coloring_keys(rows[[i0, i1]], 3, np.arange(256))))
    pattern = joins[rng.randrange(len(joins))]
    return Outmap(4, _compose_block(vals[i0], vals[i1 : i1 + 1], np.array([pattern]), 3)[0])


def random_odd(n: int, rng) -> Outmap:
    """Random odd USO sampled from the full list (n <= 4)."""
    _check_dimension(n)
    return Outmap(n, rng.choice(_odd_values(n)))


def random_puso(n: int, rng) -> Outmap:
    """Random PUSO: extend the dual of a random odd USO one dimension up (2 <= n <= 5)."""
    _check_dimension(n)
    if not 2 <= n <= 5:
        raise ResourceLimitError("random PUSOs are supported for 2 <= n <= 5")
    return extend_border(dual(random_odd(n - 1, rng)), rng.getrandbits(1))
