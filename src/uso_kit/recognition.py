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
counts are those of a face-by-face scan.  is_uso_naive keeps its
pure-Python pair loop as the independent oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def is_uso_naive(phi: Outmap, counter: PairEvalCounter | None = None) -> ClassificationReport:
    """Classify by evaluating unordered pairs of distinct vertices.

    Scans pairs (u, v), u < v, in lexicographic order and stops at the
    first failing pair, which becomes the witness.  On failure the verdict
    is then refined (NotOrientation / PUSO / Other) by the same minimal
    failing-face scan classify uses.
    """
    values = phi.values
    size = 1 << phi.n
    used = 0
    witness = face = None
    for u in range(size):
        vu = values[u]
        for v in range(u + 1, size):
            used += 1
            if not (vu ^ values[v]) & (u ^ v):
                witness = (u, v)
                break
        if witness:
            break
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
