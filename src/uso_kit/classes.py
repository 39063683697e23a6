"""USO subclasses: duals, border USOs, odd USOs, caps, and PUSO parity.

A border USO is one that can appear as a facet of a PUSO; a USO psi is
border exactly when every vertex pair with psi(U) XOR psi(V) contained in
U XOR V has |psi(U) XOR psi(V)| odd.  An odd USO is the mirror notion for
the inverse outmap: every pair with U XOR V contained in phi(U) XOR phi(V)
has |U XOR V| odd.  The two direct pair conditions differ only in which
side must contain the other, so one containment scan decides both.  It
broadcasts tiles of same-parity vertex pairs, with no index gathers, and
keeps the witness and pair count of a pair-by-pair scan; the test suite
cross-checks it against the dual route (odd = dual is border), the cap
route (odd = every face is a cap) and a pair-by-pair reference.

is_border, is_odd and puso_parity need a USO or a PUSO.  When
recognition.classify has already decided the outmap, they read its verdict
from the outmap's memo (see cube.Outmap) instead of scanning every face
again, but still charge the counter the 3**n - 2**n pair evaluations of
that scan.  Inverses and caps read the carrier key map of cube._carrier_keys.
"""

from __future__ import annotations

import enum
import heapq
from functools import lru_cache

import numpy as np

from .cube import (
    FaceSpec,
    Outmap,
    _carrier_keys,
    _memo,
    _values,
    _vertex_dtype,
    full_mask,
)
from .errors import NotAPusoError, NotAUsoError, NotBijectiveError
from .recognition import PairEvalCounter, Verdict, is_puso, is_uso_fast


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def _face_inverse(phi: Outmap, face: FaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The face's vertices in increasing order, and the inverse of the outmap induced on it.

    inverse has 2**n entries; inverse[k] is the vertex of the face whose
    induced value is k, for every subset k of the carrier.  Raises
    NotBijectiveError naming the first two vertices, in vertex order, that
    share a value.
    """
    keys = _carrier_keys(phi, face)
    verts = np.flatnonzero(keys & (full_mask(phi.n) ^ face.carrier) == face.lower)
    values = keys[verts] ^ face.lower  # a face vertex is keyed lower | induced value
    inverse = np.zeros(1 << phi.n, dtype=verts.dtype)
    inverse[values] = verts
    if not np.array_equal(inverse[values], verts):
        # a shared value: the loop names the first vertex whose value was seen before
        seen: dict[int, int] = {}
        for v, key in zip(verts.tolist(), values.tolist()):
            if key in seen:
                raise NotBijectiveError(
                    f"outmap is not bijective: vertices {seen[key]} and {v} share value {key:#b}"
                )
            seen[key] = v
    return verts, inverse


def dual(phi: Outmap) -> Outmap:
    """Inverse outmap phi**-1; requires phi to be a bijection on vertices."""
    return Outmap(phi.n, tuple(_face_inverse(phi, phi.whole_face())[1].tolist()))


def _has_verdict(phi: Outmap, verdict: Verdict, scan, counter: PairEvalCounter | None) -> bool:
    """Whether phi's verdict is `verdict`: the one classify stored in phi's
    memo, or else scan(phi, counter), where scan is is_uso_fast or is_puso.

    A stored verdict is charged the scan's 3**n - 2**n pair evaluations, so
    counts do not depend on whether classify ran first.
    """
    known = _memo(phi).get("verdict")
    if known is None:
        return scan(phi, counter)
    if counter is not None:
        counter.count += 3**phi.n - 2**phi.n
    return known is verdict


def _require_uso(phi: Outmap, counter: PairEvalCounter | None) -> None:
    """Raise NotAUsoError unless phi is a USO, by the verdict classify stored
    or else by is_uso_fast; the counter is charged 3**n - 2**n either way."""
    if not _has_verdict(phi, Verdict.USO, is_uso_fast, counter):
        raise NotAUsoError("input outmap is not a unique sink orientation")


# Pairs per tile of the containment scan, so that its temporaries stay in cache.
_PAIR_BLOCK = 1 << 16


def _class_tiles(members: np.ndarray, cls: int):
    """Tiles (first row, cls, start, stop) of one parity class: rows
    start..stop of members against members[start:], at most _PAIR_BLOCK
    pairs each, the first a single row; the last member has no later pair.
    """
    start = 0
    while start < len(members) - 1:
        stop = start + max(1, _PAIR_BLOCK // (len(members) - start)) if start else 1
        yield int(members[start]), cls, start, min(stop, len(members))
        start = stop


@lru_cache(maxsize=None)
def _vertex_parity(n: int) -> np.ndarray:
    """Popcount parity of every vertex, read-only: parity[v + 2**k] = parity[v] ^ 1."""
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate([parity, parity ^ 1])
    parity.flags.writeable = False
    return parity


def _first_failing_pair(p: np.ndarray, q: np.ndarray):
    """Lexicographically first failing pair (U, V), U < V, or None.

    The pair fails when p[U] and p[V] have equal parity and
    (p[U] ^ p[V]) & (~q[U] ^ q[V]) == 0.  Each parity class is scanned in
    broadcast tiles, and the tiles of both classes run merged by first row
    until one starts past the best failing U.  p is a bijection, so a
    tile's diagonal entries are its only trivial matches.
    """
    parity = _vertex_parity(len(p).bit_length() - 1)[p]
    classes = [np.flatnonzero(parity == cls) for cls in (0, 1)]
    sides = [(members, p[members], ~q[members], q[members]) for members in classes]
    best = None
    tiles = heapq.merge(*(_class_tiles(members, cls) for cls, members in enumerate(classes)))
    for first, cls, start, stop in tiles:
        if best is not None and first > best[0]:
            break
        members, p_c, not_q, q_c = sides[cls]
        tile = p_c[start:stop, None] ^ p_c[start:]
        tile &= not_q[start:stop, None] ^ q_c[start:]
        if np.count_nonzero(tile) < tile.size - (stop - start):
            bad = tile == 0
            bad[np.diag_indices(stop - start)] = False
            # the first failing row's failures all lie right of the diagonal
            rank, col = np.nonzero(bad)
            pair = (int(members[start + rank[0]]), int(members[start + col[0]]))
            best = pair if best is None else min(best, pair)
    return best


def _containment_scan(phi: Outmap, counter: PairEvalCounter | None, odd: bool):
    """Shared pair scan of is_border (odd=False) and is_odd (odd=True).

    With D = phi(U) XOR phi(V), a pair fails when D is contained in U XOR V
    and |D| is even (border), or when U XOR V is contained in D and
    |U XOR V| is even (odd).  Both are _first_failing_pair, with
    (p, q) = (vertex, value) for odd and (value, vertex) for border.  The
    witness is the lexicographically first failing pair (U, V), U < V, and
    the counter receives the number of pairs up to and including it in
    lexicographic order, as a pair-by-pair scan would.
    """
    _require_uso(phi, counter)
    size = 1 << phi.n
    verts = np.arange(size, dtype=_vertex_dtype(phi.n))
    vals = _values(phi)
    witness = _first_failing_pair(verts, vals) if odd else _first_failing_pair(vals, verts)
    if witness is None:
        used = size * (size - 1) // 2
    else:
        u, v = witness
        used = u * (size - 1) - u * (u - 1) // 2 + (v - u)
    if counter is not None:
        counter.count += used
    return witness is None, witness


def is_border(phi: Outmap, counter: PairEvalCounter | None = None):
    """Decide whether a USO can occur as a facet of a PUSO.

    The lexicographically first pair with phi(U) XOR phi(V) contained in
    U XOR V but of even size is returned as witness.  Raises NotAUsoError
    for non-USO input.
    """
    return _containment_scan(phi, counter, odd=False)


def is_odd(phi: Outmap, counter: PairEvalCounter | None = None):
    """Decide whether a USO is odd (its dual is a border USO).

    Direct condition: every pair with U XOR V contained in
    phi(U) XOR phi(V) must have odd Hamming distance.  The
    lexicographically first violating pair is returned as witness.  Raises
    NotAUsoError for non-USO input.
    """
    return _containment_scan(phi, counter, odd=True)


def complementary_vertex(phi: Outmap, w: int, face: FaceSpec | None = None) -> int:
    """The unique vertex of the face whose induced value is the complement of w's.

    Requires the outmap induced on the face to be a bijection; raises
    NotBijectiveError otherwise.
    """
    if face is None:
        face = phi.whole_face()
    if not face.contains(w):
        raise ValueError(f"vertex {w:#b} lies outside the face")
    carrier = face.carrier
    return int(_face_inverse(phi, face)[1][(phi.values[w] & carrier) ^ carrier])


def complementary_pairs(phi: Outmap, face: FaceSpec | None = None) -> tuple[tuple[int, int], ...]:
    """Perfect matching (W, complement of W) over a face, each pair once, W <= partner."""
    if face is None:
        face = phi.whole_face()
    verts, inverse = _face_inverse(phi, face)
    partners = inverse[_values(phi)[verts] & face.carrier ^ face.carrier]
    keep = verts <= partners
    return tuple(zip(verts[keep].tolist(), partners[keep].tolist()))


def _caps(phi: Outmap, face: FaceSpec) -> np.ndarray:
    """Whether each face parallel to `face` is a cap, indexed by its lower vertex
    (other entries True; a vertex reads False).  A face fails where two of its
    vertices share a key, or where its vertices keyed k and k ^ c are at even distance.
    """
    keys = _carrier_keys(phi, face)
    verts = np.arange(1 << phi.n, dtype=keys.dtype)
    inverse = np.zeros_like(keys)
    inverse[keys] = verts
    parity = _vertex_parity(phi.n)[inverse]
    bad = (inverse[keys] != verts) | (parity == parity[verts ^ face.carrier])
    caps = np.ones(1 << phi.n, dtype=bool)
    caps[verts[bad] & (full_mask(phi.n) ^ face.carrier)] = False
    return caps


def is_cap(phi: Outmap, face: FaceSpec | None = None) -> bool:
    """True iff the face's induced outmap is bijective with every complementary
    pair at odd Hamming distance.  Vertices (dimension 0) are trivially caps;
    a non-bijective induced outmap yields False, not an error.
    """
    if face is None:
        face = phi.whole_face()
    # _caps checks that the face fits, a vertex included, and reads False at a vertex
    return bool(_caps(phi, face)[face.lower]) or face.carrier == 0


def all_faces_caps(phi: Outmap) -> bool:
    """True iff every one of the 3**n faces is a cap (equivalent to odd for USOs)."""
    return all(_caps(phi, FaceSpec(0, c)).all() for c in range(1, 1 << phi.n))


def puso_parity(phi: Outmap, counter: PairEvalCounter | None = None) -> Parity:
    """Common parity |phi(V)| mod 2 of a PUSO's values (even: 2 sinks, odd: 0).

    Like _require_uso, reads a verdict stored by classify before running
    is_puso, and charges 3**n - 2**n pair evaluations either way.
    """
    if not _has_verdict(phi, Verdict.PUSO, is_puso, counter):
        raise NotAPusoError("parity is defined for PUSOs only")
    return Parity.ODD if phi.values[0].bit_count() & 1 else Parity.EVEN
