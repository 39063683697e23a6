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

All face scans read one cached schedule, cube.face_schedule: faces ordered
by dimension, so classify's first failing face has minimal dimension, while
is_uso_fast and is_puso visit every face and do not depend on the order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import length_hint

from .cube import FaceSpec, Outmap, face_schedule, full_mask


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


def pair_eval(phi: Outmap, u: int, v: int, counter: PairEvalCounter | None = None) -> int:
    """Evaluate one vertex pair; a nonzero mask means the pair succeeds."""
    if counter is not None:
        counter.count += 1
    return (phi.values[u] ^ phi.values[v]) & (u ^ v)


def is_orientation(phi: Outmap, counter: PairEvalCounter | None = None):
    """Consistency check: each edge is outgoing at exactly one endpoint.

    Scans dimension-1 faces in faces_iter order (coordinate-major).
    Returns (True, None), or (False, (V, i)) with the lower endpoint and
    coordinate of the first inconsistent edge.
    """
    values = phi.values
    n = phi.n
    used = 0
    witness = None
    for pos in range(n):
        bit = 1 << pos
        for v in range(1 << n):
            if v & bit:
                continue
            used += 1
            if not (values[v] ^ values[v | bit]) & bit:
                witness = (v, pos + 1)
                break
        if witness:
            break
    if counter is not None:
        counter.count += used
    return witness is None, witness


def _first_failing_face(phi: Outmap) -> tuple[int, FaceSpec | None]:
    """Scan faces by increasing dimension (faces_iter order within a dimension).

    Returns (evaluations performed, first face whose antipodal pair fails).
    Because the scan stops at the minimal failing dimension and all smaller
    faces succeeded, that face's induced orientation is a PUSO when its
    dimension is >= 2, and an inconsistent edge when it is 1.
    """
    values = phi.values
    lowers, uppers = face_schedule(phi.n)
    rest = iter(lowers)
    for lower, upper in zip(rest, uppers):
        if not (values[lower] ^ values[upper]) & (lower ^ upper):
            # faces consumed so far, read off the tuple iterator instead of
            # counting in the loop, which would slow the full-length scans
            return len(lowers) - length_hint(rest), FaceSpec(lower, upper)
    return len(lowers), None


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
    witness = None
    for u in range(size):
        vu = values[u]
        for v in range(u + 1, size):
            used += 1
            if not (vu ^ values[v]) & (u ^ v):
                witness = (u, v)
                break
        if witness:
            break
    if witness is None:
        if counter is not None:
            counter.count += used
        return ClassificationReport(Verdict.USO, None, None, used)
    scan_used, face = _first_failing_face(phi)
    used += scan_used
    if counter is not None:
        counter.count += used
    assert face is not None
    if face.dim == 1:
        return ClassificationReport(Verdict.NOT_ORIENTATION, witness, None, used)
    if face.dim == phi.n:
        return ClassificationReport(Verdict.PUSO, witness, face, used)
    return ClassificationReport(Verdict.OTHER, witness, face, used)


def is_uso_fast(phi: Outmap, counter: PairEvalCounter | None = None) -> bool:
    """True iff the antipodal pair of every face with dim >= 1 succeeds.

    Always performs exactly 3**n - 2**n pair evaluations (one per face, no
    short-circuiting), so the counter hook reports the full budget on every
    input.
    """
    values = phi.values
    lowers, uppers = face_schedule(phi.n)
    ok = True
    for u, v in zip(lowers, uppers):
        if not (values[u] ^ values[v]) & (u ^ v):
            ok = False
    if counter is not None:
        counter.count += len(lowers)
    return ok


def is_puso(phi: Outmap, counter: PairEvalCounter | None = None) -> bool:
    """True iff every proper face's antipodal pair succeeds and the whole cube's fails.

    Uses the same 3**n - 2**n evaluation schedule as is_uso_fast.  Cubes of
    dimension < 2 admit no PUSO.
    """
    values = phi.values
    n = phi.n
    full = full_mask(n)
    lowers, uppers = face_schedule(n)
    proper_ok = True
    whole_fails = False
    for u, v in zip(lowers, uppers):
        hit = (values[u] ^ values[v]) & (u ^ v)
        if not hit:
            if u == 0 and v == full:
                whole_fails = True
            else:
                proper_ok = False
    if counter is not None:
        counter.count += len(lowers)
    return n >= 2 and proper_ok and whole_fails


def antipodal_failures(phi: Outmap, counter: PairEvalCounter | None = None) -> int:
    """Count whole-cube antipodal pairs that fail; a PUSO fails all 2**(n-1)."""
    values = phi.values
    full = full_mask(phi.n)
    half = 1 << (phi.n - 1) if phi.n else 1
    failing = 0
    for v in range(half):
        if not (values[v] ^ values[v ^ full]) & full:
            failing += 1
    if counter is not None:
        counter.count += half
    return failing


def classify(phi: Outmap, counter: PairEvalCounter | None = None) -> ClassificationReport:
    """Full classification with witness extraction.

    Faces are scanned by increasing dimension (faces_iter order within each
    dimension) and the first failing face of minimal dimension decides:
    dimension 1 means NotOrientation, dimension n means PUSO, and a proper
    face of dimension >= 2 means Other with that face as puso_face.  No
    failure anywhere means USO.
    """
    used, face = _first_failing_face(phi)
    if counter is not None:
        counter.count += used
    if face is None:
        return ClassificationReport(Verdict.USO, None, None, used)
    witness = (face.lower, face.upper)
    if face.dim == 1:
        return ClassificationReport(Verdict.NOT_ORIENTATION, witness, None, used)
    return ClassificationReport(
        Verdict.PUSO if face.dim == phi.n else Verdict.OTHER, witness, face, used
    )
