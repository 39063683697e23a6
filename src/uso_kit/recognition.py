"""Recognizers for orientations, USOs, and PUSOs built on pair evaluations.

The single primitive is the pair evaluation
(phi(U) XOR phi(V)) AND (U XOR V); a pair of distinct vertices "succeeds"
when that mask is nonempty.  An outmap is a USO exactly when every pair of
distinct vertices succeeds.  The fast check exploits that one antipodal
pair per face of dimension >= 1 suffices, which is exactly 3**n - 2**n
evaluations; a PUSO is an outmap where every proper face's antipodal pair
succeeds while the whole cube's antipodal pairs all fail.  Every recognizer
takes an optional PairEvalCounter so callers can audit the evaluation
budget.

A single outmap has one face scan, _first_failing_face, a product scan:
a face of the n-cube is a face of its high n - K coordinates times one of
the low K, so it reads two cached half-cube face tables (_product_halves, built
from cube.face_schedule(k) for k <= 13), never the n-cube's schedule.  It
reads the edges, then the 2-faces, then the rest, and returns the first
failing face in face_schedule order, which has minimal dimension, with its
position as the count; is_orientation is its edge stage, _report turns
that face into the verdict of classify and is_uso_naive, and is_uso_fast
and is_puso read the verdict classify stored (_has_verdict).  The
pair-evaluation counts are those of a face-by-face scan.  One numpy
kernel, _face_failures, tests every face of face_schedule(n) for the
(k, 2**n) outmap matrices of enumeration's batch class lists (n <= 3).
is_uso_naive, the independent method, checks the all-pairs definition
with _first_failing_pair, the one vertex-pair kernel, in broadcast tiles;
classes' border and odd scans are its two containment conditions.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cube import MAX_DIM, FaceSpec, Outmap, _memo, _values, _vertex_dtype, face_schedule, full_mask


class Verdict(enum.Enum):
    NOT_ORIENTATION = "NotOrientation"
    USO = "USO"
    PUSO = "PUSO"
    OTHER = "Other"


class PairEvalCounter:
    """Instrumentation hook counting pair evaluations performed."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of a recognition run.

    witness is a pair of vertices failing the pair condition (for
    NotOrientation it is the two endpoints of an inconsistent edge).
    puso_face is set when a face carrying a PUSO was located: the whole
    cube for verdict PUSO, a proper face for verdict Other.
    """

    verdict: Verdict
    witness: tuple[int, int] | None = None
    puso_face: FaceSpec | None = None
    pair_evals_used: int = 0


def _face_failures(vals: np.ndarray, n: int) -> np.ndarray:
    """Failing antipodal pairs of the faces of face_schedule(n), in its order.

    vals holds one outmap per row, shape (k, 2**n), or a single outmap of
    shape (2**n,); the result has one bool column per face, True where the
    face's antipodal pair fails.
    """
    lowers, uppers = face_schedule(n)
    gathered = np.take(vals, lowers, axis=-1) ^ np.take(vals, uppers, axis=-1)
    return gathered & (lowers ^ uppers) == 0


def _puso_rows(fails: np.ndarray, n: int) -> np.ndarray:
    """PUSO verdicts from full-schedule failures: only the last face, the whole cube, fails."""
    if n < 2:
        return np.zeros(fails.shape[:-1], dtype=bool)
    return fails[..., -1] & ~fails[..., :-1].any(axis=-1)


@lru_cache(maxsize=None)
def _product_halves(n: int):
    """K, then the high and low halves of the n-cube's product scan, coordinates K.. and ..K-1:
    each half cube's faces, its vertices first and then face_schedule(k), as ((lowers,
    uppers), masks, keys, offsets).  A mask holds the face's carrier and the other half's
    coordinates; keys, dim << 42 | carrier << 21 | lower in the n-cube, sort as
    face_schedule does, and a product face's key is the sum of its halves'.  The faces of
    dimension d are offsets[d]:offsets[d + 1]."""
    K = min(n // 2, 7)
    halves = []
    for k, shift in (n - K, K), (K, 0):
        verts = np.arange(1 << k, dtype=_vertex_dtype(k))
        lowers, uppers = (np.concatenate([verts, side]) for side in face_schedule(k))
        carriers = (lowers ^ uppers).astype(np.int64) << shift
        counts = [comb(k, d) << (k - d) for d in range(k + 1)]
        dims = np.repeat(np.arange(k + 1, dtype=np.int64), counts)
        keys = dims << 42 | carriers << 21 | lowers.astype(np.int64) << shift
        masks = (carriers | full_mask(n) ^ full_mask(k) << shift).astype(_vertex_dtype(n))
        offsets = [sum(counts[:d]) for d in range(MAX_DIM + 2)]
        halves.append((np.stack([lowers, uppers]), masks, keys, offsets))
    return K, *halves


def _schedule_position(n: int, face: FaceSpec) -> int:
    """face's index in face_schedule(n): the faces of smaller dimension, the colex rank of
    its carrier times 2**(n - dim), then the rank of its lower among the free coordinates."""
    dim = rank = lower = 0
    for p in range(n):
        if face.carrier >> p & 1:
            dim += 1
            rank += comb(p, dim)
        else:
            lower |= (face.lower >> p & 1) << p - dim
    return sum(comb(n, e) << (n - e) for e in range(1, dim)) + (rank << n - dim) + lower


def _dimension_blocks(hoff: list[int], loff: list[int], prev: int, d: int) -> list[tuple]:
    """The faces of dimension prev + 1..d as blocks of high faces r0..r1-1 times low c0..c1-1."""
    blocks = [(hoff[h], hoff[h + 1], loff[prev - h + 1], loff[d - h + 1]) for h in range(prev + 1)]
    return blocks + [(hoff[prev + 1], hoff[d + 1], 0, loff[d - prev])]  # d is prev + 1 or n


# Faces per chunk of the product scan; a cube with no more faces is read in one stage.
_CHUNK = 1 << 16


def _first_failing_face(phi: Outmap, edges_only: bool = False) -> tuple[int, FaceSpec | None]:
    """(evaluations of a face-by-face scan of face_schedule(n), its first failing face or None).

    A product scan over _product_halves(n): with the values as a
    (2**(n - K), 2**K) matrix, g holds each low face's lower and upper
    gathered along the rows, so a product face's test is a row copy,
    g[high lower, 0] ^ g[high upper, 1], masked by the high face's mask.  A cube of at most _CHUNK faces (n <= 10) is read at once; a larger
    one reads its edges (all that edges_only reads), its 2-faces, then the
    rest, in chunks of about _CHUNK faces.  A failure ends the stage, which
    reads on only where a face may come first in schedule order.  That face
    has minimal dimension: 1 is an inconsistent edge, >= 2 a PUSO face.
    """
    n = phi.n
    K, ((hl, hu), hmask, hkeys, hoff), (lows, keep, lkeys, loff) = _product_halves(n)
    m = _values(phi).reshape(-1, 1 << K)
    g = np.empty((len(m), 2, loff[-1]), m.dtype)
    stages = [(0, 1)] if edges_only else [(0, n)] if 3**n <= _CHUNK else [(0, 1), (1, 2), (2, n)]
    best = None  # key of the first failing face so far
    for prev, d in stages:
        if best is not None:
            break
        cols = slice(loff[prev + 1] if prev else 0, loff[d + 1])
        np.bitwise_and(m[:, lows[:, cols]], keep[cols], out=g[:, :, cols])
        for r0, r1, c0, c1 in _dimension_blocks(hoff, loff, prev, d):
            while r0 < r1:
                if best is not None:  # only a face of smaller dimension, or of equal
                    # dimension when it or best has no high carrier, can come first
                    h = bisect_right(hoff, r0) - 1
                    dim = (best >> 42) - (h > 0 and best >> 21 + K & full_mask(n - K) == 0)
                    c1 = min(c1, loff[max(0, dim - h + 1)])
                if c0 >= c1:
                    break
                r = slice(r0, min(r0 + max(1, _CHUNK // (c1 - c0)), r1))
                r0 = r.stop
                lo, up = (r, r) if r.stop <= hoff[1] else (hl[r], hu[r])  # high vertices, or faces
                x = g[lo, 0, c0:c1] ^ g[up, 1, c0:c1]
                x &= hmask[r, None]
                if x.min():
                    continue
                # keys grow along a row, so a failing row's first failure is its smallest key
                fails = x == 0
                i = np.flatnonzero(fails.any(axis=1))
                key = int((hkeys[r][i] + lkeys[c0 + fails[i].argmax(axis=1)]).min())
                best = key if best is None else min(best, key)
    if best is None:
        return (n << n >> 1 if edges_only else 3**n - 2**n), None
    lower = best & full_mask(21)
    face = FaceSpec(lower, lower | best >> 21 & full_mask(21))
    return _schedule_position(n, face) + 1, face


def _report(phi: Outmap, used: int, face: FaceSpec | None, witness) -> ClassificationReport:
    """The report of a dimension-ordered scan whose first failing face is `face` (None: USO)."""
    if face is None:
        return ClassificationReport(Verdict.USO, None, None, used)
    if face.dim == 1:
        return ClassificationReport(Verdict.NOT_ORIENTATION, witness, None, used)
    verdict = Verdict.PUSO if face.dim == phi.n else Verdict.OTHER
    return ClassificationReport(verdict, witness, face, used)


def is_orientation(phi: Outmap, counter: PairEvalCounter | None = None):
    """Consistency check: each edge is outgoing at exactly one endpoint.

    Reads the edges, the first n * 2**(n-1) faces of the schedule, in
    faces_iter order (coordinate-major): the face scan's edge stage.
    Returns (True, None), or (False, (V, i)) with the lower endpoint and
    coordinate of the first inconsistent edge.
    """
    used, face = _first_failing_face(phi, edges_only=True)
    if counter is not None:
        counter.count += used
    if face is None:
        return True, None
    return False, (face.lower, face.carrier.bit_length())


# Pairs per tile of the pair scan, so that its temporaries stay in cache.
_PAIR_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _vertex_parity(n: int) -> np.ndarray:
    """Popcount parity of every vertex, read-only: parity[v + 2**k] = parity[v] ^ 1."""
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate([parity, parity ^ 1])
    parity.flags.writeable = False
    return parity


def _first_failing_pair(p: np.ndarray, q_row: np.ndarray, q_col: np.ndarray, classes: np.ndarray):
    """(pairs evaluated, lexicographically first failing pair (U, V), U < V, or None).

    A pair fails when classes[U] == classes[V] and
    (p[U] ^ p[V]) & (q_row[U] ^ q_col[V]) == 0.  The count is that of a
    pair-by-pair scan in lexicographic order: the pairs up to and including
    the witness, or all of them.  Class 0 is scanned, then class 1 (classes
    are 0 or 1), each in broadcast tiles: the first a single row, each later
    one at most _PAIR_BLOCK pairs.  A class stops at its first failing tile,
    or at a tile whose first row lies past the best failing U so far; pairs
    of different classes never fail, so the smaller pair is the answer.  p
    is a bijection and q_row ^ q_col is constant, so a tile is symmetric and
    its diagonal entries are its only trivial matches.
    """
    best = None
    for cls in (0, 1):
        members = (classes == cls).nonzero()[0]
        p_c, row_c, col_c = p[members], q_row[members], q_col[members]
        start = 0
        while start < len(members) - 1 and (best is None or members[start] < best[0]):
            stop = start + (max(1, _PAIR_BLOCK // (len(members) - start)) if start else 1)
            tile = p_c[start:stop, None] ^ p_c[start:]
            tile &= row_c[start:stop, None] ^ col_c[start:]
            if np.count_nonzero(tile) < tile.size - len(tile):
                bad = tile == 0
                np.fill_diagonal(bad, False)
                # the first failing row's failures all lie right of the diagonal
                rank, col = np.nonzero(bad)
                pair = (int(members[start + rank[0]]), int(members[start + col[0]]))
                best = pair if best is None else min(best, pair)
                break
            start = stop
    size = len(p)
    if best is None:
        return size * (size - 1) // 2, None
    u, v = best
    return u * (size - 1) - u * (u - 1) // 2 + (v - u), best


def is_uso_naive(phi: Outmap, counter: PairEvalCounter | None = None) -> ClassificationReport:
    """Classify by evaluating unordered pairs of distinct vertices.

    The all-pairs definition: phi is a USO when every pair of distinct
    vertices succeeds.  _first_failing_pair scans the pairs (u, v), u < v,
    as one class, and its lexicographically first failing pair becomes the
    witness, with the count of a pair-by-pair scan.  On failure the verdict
    is then refined (NotOrientation / PUSO / Other) by the same minimal
    failing-face scan classify uses.
    """
    vals = _values(phi)
    verts = np.arange(len(vals), dtype=vals.dtype)
    used, witness = _first_failing_pair(verts, vals, vals, np.zeros(len(vals), dtype=np.uint8))
    face = None
    if witness is not None:
        scan_used, face = _first_failing_face(phi)
        used += scan_used
        assert face is not None
    if counter is not None:
        counter.count += used
    return _report(phi, used, face, witness)


def _has_verdict(phi: Outmap, verdict: Verdict, counter: PairEvalCounter | None) -> bool:
    """Whether phi's verdict is `verdict`: the one classify stored in phi's
    memo, or else that of classify(phi), which stores it.

    The counter is charged a full face scan's 3**n - 2**n pair evaluations
    either way, so counts do not depend on whether classify ran first.
    """
    known = _memo(phi).get("verdict") or classify(phi).verdict
    if counter is not None:
        counter.count += 3**phi.n - 2**phi.n
    return known is verdict


def is_uso_fast(phi: Outmap, counter: PairEvalCounter | None = None) -> bool:
    """True iff the antipodal pair of every face with dim >= 1 succeeds.

    Reads classify's verdict through _has_verdict.  The counter is charged
    exactly 3**n - 2**n pair evaluations (one per face) on every input, though
    classify's scan stops in the stage that holds the first failing face.
    """
    return _has_verdict(phi, Verdict.USO, counter)


def is_puso(phi: Outmap, counter: PairEvalCounter | None = None) -> bool:
    """True iff every proper face's antipodal pair succeeds and the whole cube's fails.

    classify's PUSO verdict: its first failing face is the whole cube, of
    dimension >= 2, so cubes of dimension < 2 admit none.  Charges 3**n - 2**n.
    """
    return _has_verdict(phi, Verdict.PUSO, counter)


def classify(phi: Outmap, counter: PairEvalCounter | None = None) -> ClassificationReport:
    """Full classification with witness extraction.

    Faces are scanned by increasing dimension (faces_iter order within each
    dimension) and the first failing face of minimal dimension decides:
    dimension 1 means NotOrientation, dimension n means PUSO, and a proper
    face of dimension >= 2 means Other with that face as puso_face.  No
    failure anywhere means USO.  The verdict is stored in the outmap's memo
    (see cube.Outmap), where _has_verdict reads it.
    """
    used, face = _first_failing_face(phi)
    if counter is not None:
        counter.count += used
    report = _report(phi, used, face, None if face is None else (face.lower, face.upper))
    _memo(phi)["verdict"] = report.verdict
    return report
