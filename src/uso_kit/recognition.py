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

All face scans read one cached schedule, cube.face_schedule: the lower and
upper vertex of every face as two arrays, faces ordered by dimension.  One
numpy kernel, _face_failures, evaluates a slice of it in one gather-XOR-AND
for one outmap or, for enumeration's batch class lists, a (k, 2**n) matrix
of outmaps.  A single outmap has one scan, _first_failing_face, in
slices of n * 2**(n-1) faces, the number of edges; by the schedule's
dimension order its first failing face has minimal dimension;
is_orientation reads the edge slice through it, _report turns that face
into the verdict of classify and is_uso_naive, and is_uso_fast and is_puso
read the verdict classify stored (_has_verdict).  The pair-evaluation
counts are those of a face-by-face scan.  is_uso_naive, the independent
method, checks the all-pairs definition with _first_failing_pair, the one
vertex-pair kernel, in broadcast tiles; classes' border and odd scans are
its two containment conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cube import FaceSpec, Outmap, _memo, _values, face_schedule


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


def _face_failures(vals: np.ndarray, n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Failing antipodal pairs of faces start..stop of face_schedule(n).

    vals holds one outmap per row, shape (k, 2**n), or a single outmap of
    shape (2**n,); the result has one bool column per face, True where the
    face's antipodal pair fails.
    """
    lowers, uppers = face_schedule(n)
    lowers, uppers = lowers[start:stop], uppers[start:stop]
    gathered = np.take(vals, lowers, axis=-1) ^ np.take(vals, uppers, axis=-1)
    return gathered & (lowers ^ uppers) == 0


def _puso_rows(fails: np.ndarray, n: int) -> np.ndarray:
    """PUSO verdicts from full-schedule failures: only the last face, the whole cube, fails."""
    if n < 2:
        return np.zeros(fails.shape[:-1], dtype=bool)
    return fails[..., -1] & ~fails[..., :-1].any(axis=-1)


def _first_failing_face(phi: Outmap, stop: int | None = None) -> tuple[int, FaceSpec | None]:
    """Scan faces 0..stop of face_schedule(n) (default: all), in slices of n * 2**(n-1) faces.

    Returns (evaluations performed, first face whose antipodal pair fails).
    The schedule is ordered by dimension, so wherever a slice ends that face
    has minimal dimension and all smaller faces succeeded: its induced
    orientation is a PUSO when its dimension is >= 2, and an inconsistent
    edge when it is 1.  The first slice is the edges, so a scan that fails
    on an edge never reads the larger faces.
    """
    n = phi.n
    vals = _values(phi)
    lowers, uppers = face_schedule(n)
    stop = len(lowers) if stop is None else stop
    step = max(1, n << n >> 1)
    for start in range(0, stop, step):
        fails = _face_failures(vals, n, start, min(start + step, stop))
        if fails.any():
            f = start + int(fails.argmax())
            return f + 1, FaceSpec(int(lowers[f]), int(uppers[f]))
    return stop, None


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

    Scans the edges, the first n * 2**(n-1) faces of the schedule, in
    faces_iter order (coordinate-major): one slice of the face scan.
    Returns (True, None), or (False, (V, i)) with the lower endpoint and
    coordinate of the first inconsistent edge.
    """
    used, face = _first_failing_face(phi, phi.n << phi.n >> 1)
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
    classify's scan stops after the slice holding the first failing face.
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
