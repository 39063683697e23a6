"""USO subclasses: duals, border USOs, odd USOs, caps, and PUSO parity.

A border USO is one that can appear as a facet of a PUSO; a USO psi is
border exactly when every vertex pair with psi(U) XOR psi(V) contained in
U XOR V has |psi(U) XOR psi(V)| odd.  An odd USO is the mirror notion for
the inverse outmap: every pair with U XOR V contained in phi(U) XOR phi(V)
has |U XOR V| odd.  The two direct pair conditions differ only in which
side must contain the other, so one containment scan decides both.  It
is vectorized over groups of pairs with a common offset U XOR V and keeps
the witness and pair count of a pair-by-pair scan; the test suite
cross-checks it against the dual route (odd = dual is border), the cap
route (odd = every face is a cap) and a pair-by-pair reference.
"""

from __future__ import annotations

import enum

import numpy as np

from .cube import FaceSpec, Outmap, faces_iter, full_mask
from .errors import NotAPusoError, NotAUsoError, NotBijectiveError
from .recognition import PairEvalCounter, _values, is_puso, is_uso_fast


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def _face_inverse(phi: Outmap, face: FaceSpec) -> dict[int, int]:
    """Map each induced value on the face back to its vertex.

    Raises NotBijectiveError naming the first two vertices that share a value.
    """
    carrier = face.carrier
    values = phi.values
    inverse: dict[int, int] = {}
    for v in face.vertices():
        key = values[v] & carrier
        if key in inverse:
            raise NotBijectiveError(
                f"outmap is not bijective: vertices {inverse[key]} and {v} share value {key:#b}"
            )
        inverse[key] = v
    return inverse


def dual(phi: Outmap) -> Outmap:
    """Inverse outmap phi**-1; requires phi to be a bijection on vertices."""
    inverse = _face_inverse(phi, phi.whole_face())
    return Outmap(phi.n, tuple(inverse[value] for value in range(1 << phi.n)))


def _require_uso(phi: Outmap, counter: PairEvalCounter | None) -> None:
    if not is_uso_fast(phi, counter):
        raise NotAUsoError("input outmap is not a unique sink orientation")


# Pairs per vectorized step of the containment scan; small enough that a
# step's temporaries stay in cache.
_PAIR_BLOCK = 1 << 16


def _first_failing_pair(vals, parity, n: int, odd: bool, rows: np.ndarray):
    """Lexicographically first failing pair (U, V), U < V, with U in rows, or None.

    Pairs are grouped by the offset d = U XOR V.  With j the top coordinate
    of d, U < V exactly when U lacks j, so the offsets with top coordinate j
    run against the rows that lack j, at most _PAIR_BLOCK pairs per step.
    """
    best = None
    value_parity = parity[vals]
    for j in range(n):
        us = rows[rows >> j & 1 == 0]
        offsets = np.arange(1 << j, 2 << j)
        if odd:
            # a pair at odd distance never fails the odd condition
            offsets = offsets[parity[offsets] == 0]
        if not len(us) or not len(offsets):
            continue
        vals_u, parity_u = vals[us], value_parity[us]
        step = max(1, _PAIR_BLOCK // len(us))
        for k in range(0, len(offsets), step):
            d = offsets[k : k + step, None]
            vs = us ^ d
            diff = vals_u ^ vals[vs]
            d = d.astype(vals.dtype)
            if odd:
                bad = diff & d == d
            else:
                # |diff| is even when |phi(U)| and |phi(V)| have equal parity
                bad = (diff & ~d == 0) & (parity_u == value_parity[vs])
            if bad.any():
                rank, col = np.nonzero(bad)
                key = int((us[col] << n | vs[rank, col]).min())
                best = key if best is None else min(best, key)
    return None if best is None else divmod(best, 1 << n)


def _containment_scan(phi: Outmap, counter: PairEvalCounter | None, odd: bool):
    """Shared pair scan of is_border (odd=False) and is_odd (odd=True).

    With D = phi(U) XOR phi(V), a pair fails when D is contained in U XOR V
    and |D| is even (border), or when U XOR V is contained in D and
    |U XOR V| is even (odd).  The witness is the lexicographically first
    failing pair (U, V), U < V, and the counter receives the number of
    pairs up to and including it in lexicographic order, as a pair-by-pair
    scan would.  Row U = 0 is scanned first, in one step, so that a
    failure there skips the rest.
    """
    _require_uso(phi, counter)
    n = phi.n
    size = 1 << n
    verts = np.arange(size)
    vals = _values(phi)
    parity = np.zeros(size, dtype=bool)
    for pos in range(n):
        parity ^= (verts >> pos & 1).astype(bool)
    diff = vals[0] ^ vals[1:]
    inner, outer = (verts[1:], diff) if odd else (diff, verts[1:])
    failing = np.flatnonzero((inner & ~outer == 0) & ~parity[inner])
    if len(failing):
        witness = (0, int(failing[0]) + 1)
    else:
        witness = _first_failing_pair(vals, parity, n, odd, verts[1:])
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
    if face.upper > full_mask(phi.n):
        raise ValueError("face does not fit inside the cube")
    if not face.contains(w):
        raise ValueError(f"vertex {w:#b} lies outside the face")
    carrier = face.carrier
    return _face_inverse(phi, face)[(phi.values[w] & carrier) ^ carrier]


def complementary_pairs(phi: Outmap, face: FaceSpec | None = None) -> tuple[tuple[int, int], ...]:
    """Perfect matching (W, complement of W) over a face, each pair once, W <= partner."""
    if face is None:
        face = phi.whole_face()
    carrier = face.carrier
    inverse = _face_inverse(phi, face)
    pairs = []
    for key, v in inverse.items():
        partner = inverse[key ^ carrier]
        if v <= partner:
            pairs.append((v, partner))
    return tuple(pairs)


def is_cap(phi: Outmap, face: FaceSpec | None = None) -> bool:
    """True iff the face's induced outmap is bijective with every complementary
    pair at odd Hamming distance.  Vertices (dimension 0) are trivially caps;
    a non-bijective induced outmap yields False, not an error.
    """
    if face is None:
        face = phi.whole_face()
    if face.carrier == 0:
        return True
    try:
        pairs = complementary_pairs(phi, face)
    except NotBijectiveError:
        return False
    return all((w ^ partner).bit_count() & 1 for w, partner in pairs)


def all_faces_caps(phi: Outmap) -> bool:
    """True iff every one of the 3**n faces is a cap (equivalent to odd for USOs)."""
    return all(is_cap(phi, face) for face in faces_iter(phi.n))


def puso_parity(phi: Outmap, counter: PairEvalCounter | None = None) -> Parity:
    """Common parity |phi(V)| mod 2 of a PUSO's values (even: 2 sinks, odd: 0)."""
    if not is_puso(phi, counter):
        raise NotAPusoError("parity is defined for PUSOs only")
    return Parity.ODD if phi.values[0].bit_count() & 1 else Parity.EVEN
