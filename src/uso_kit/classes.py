"""USO subclasses: duals, border USOs, odd USOs, caps, and PUSO parity.

A border USO is one that can appear as a facet of a PUSO; a USO psi is
border exactly when every vertex pair with psi(U) XOR psi(V) contained in
U XOR V has |psi(U) XOR psi(V)| odd.  An odd USO is the mirror notion for
the inverse outmap: every pair with U XOR V contained in phi(U) XOR phi(V)
has |U XOR V| odd.  The two direct pair conditions differ only in which side
must contain the other, so both are recognition._first_failing_pair, the
pair kernel is_uso_naive scans with; the test suite cross-checks them against
the dual route (odd = dual is border), the cap route (odd = every face is a
cap) and a pair-by-pair reference.

An accept reads fewer pairs: a USO psi is border exactly when no two distinct
disjoint vertices A, B (A & B == 0) fail the border condition, (3**n - 1)/2
pairs against about 4**n/4.  For psi is border exactly when its doubling
E = extend_border(psi, 0) is a PUSO; E's faces inside a facet pass, since psi
is a USO, and the face across the new coordinate with lower L and carrier C
passes exactly when the disjoint pair (L, complement of L | C) does, since the
new bit of E's values is the parity of psi's.  The whole cube is the pair
(0, 0).  So _containment_scan decides an accept by _border_on_disjoint_pairs,
on the values for border and on the inverse for odd, and calls
_first_failing_pair only for a reject's witness.

is_border, is_odd and puso_parity need a USO or a PUSO: they gate through
is_uso_fast and is_puso, which read the verdict recognition.classify stored
in the outmap's memo (see cube.Outmap), or else call classify once, which
stores it for the others, and charge 3**n - 2**n pair evaluations either way.
Inverses and caps read the carrier key map of cube._carrier_keys.
"""

from __future__ import annotations

import enum

import numpy as np

from .cube import (
    FaceSpec,
    Outmap,
    _array_outmap,
    _carrier_keys,
    _values,
    _vertex_dtype,
    full_mask,
)
from .errors import NotAPusoError, NotAUsoError, NotBijectiveError
from .recognition import PairEvalCounter, _first_failing_pair, _vertex_parity, is_puso, is_uso_fast
from .recognition import _CHUNK, _product_halves


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def _face_inverse(phi: Outmap, face: FaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The face's vertices in increasing order, and the inverse of the outmap induced on it.

    Both are in _vertex_dtype(n); inverse has 2**n entries, and inverse[k] is the vertex
    of the face whose induced value is k, for every subset k of the carrier.  Raises
    NotBijectiveError naming the first two vertices, in vertex order, that share a value.
    """
    keys = _carrier_keys(phi, face)
    verts = np.flatnonzero(keys | face.carrier == face.upper).astype(keys.dtype)
    values = keys[verts] ^ face.lower  # a face vertex is keyed lower | induced value
    inverse = np.zeros(1 << phi.n, dtype=keys.dtype)
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
    """Inverse outmap phi**-1; requires phi to be a bijection, which _face_inverse checks."""
    return _array_outmap(_face_inverse(phi, phi.whole_face())[1])


def _border_on_disjoint_pairs(vals: np.ndarray, n: int) -> bool:
    """Whether no two distinct disjoint vertices A, B (A & B == 0) of the USO psi with
    values vals fail the border condition, which holds exactly when psi is border.

    The pair (A, B) is the face with lower A and upper the complement of B, and it
    fails when (psi(A) ^ psi(B)) & (carrier | 1 << n) == 0, each value's parity
    carried in bit n.  So this is recognition's product face scan over the tables of
    _product_halves(n): g0 and g1 gather each low face's lower and complemented upper
    along the rows.  Each unordered pair is read once: first the whole high face's
    row (the pairs of the low K coordinates, whose last column is the pair (0, 0)),
    then, in chunks, the high faces whose lower is below their complemented upper.
    """
    K, ((hl, hu), hmask, _, _), ((ll, lu), keep, _, _) = _product_halves(n)
    dt, parity_bit = _vertex_dtype(n + 1), 1 << n
    m = (vals.astype(dt) | _vertex_parity(n)[vals].astype(dt) << n).reshape(-1, 1 << K)
    keep = keep.astype(dt) | parity_bit
    g0, g1 = m.take(ll, axis=1), m.take(lu ^ full_mask(K), axis=1)
    g0 &= keep
    g1 &= keep
    if not (g0[0] ^ g1[0])[:-1].all():
        return False
    rows = np.flatnonzero(hl < hu ^ full_mask(n - K))
    a, b = hl[rows], hu[rows] ^ full_mask(n - K)
    masks = hmask[rows].astype(dt) | parity_bit
    step = max(1, _CHUNK // len(keep))
    for r in range(0, len(rows), step):
        x = g0.take(a[r : r + step], axis=0)
        x ^= g1.take(b[r : r + step], axis=0)
        x &= masks[r : r + step, None]
        if not x.min():
            return False
    return True


def _containment_scan(phi: Outmap, counter: PairEvalCounter | None, odd: bool):
    """Shared pair scan of is_border (odd=False) and is_odd (odd=True).

    With D = phi(U) XOR phi(V), a pair fails when D is contained in U XOR V
    and |D| is even (border), or when U XOR V is contained in D and
    |U XOR V| is even (odd).  An accept is decided first, on the (3**n - 1)/2
    disjoint pairs of _border_on_disjoint_pairs, of phi's values for border and
    of its inverse for odd (phi is odd exactly when its dual is border), and
    charged all 2**n * (2**n - 1)/2 pairs.  Otherwise the witness and count are
    recognition._first_failing_pair's with (p, q_row, q_col, classes) =
    (vertex, ~value, value, vertex parity) for odd and (value, ~vertex, vertex,
    value parity) for border.  The USO gate is is_uso_fast, so a non-USO raises
    NotAUsoError after its 3**n - 2**n charge.
    """
    if not is_uso_fast(phi, counter):
        raise NotAUsoError("input outmap is not a unique sink orientation")
    verts = np.arange(1 << phi.n, dtype=_vertex_dtype(phi.n))
    vals, parity = _values(phi), _vertex_parity(phi.n)
    screened = vals
    if odd:  # phi is odd exactly when its inverse is border
        screened = np.empty_like(vals)
        screened[vals] = verts
    if _border_on_disjoint_pairs(screened, phi.n):
        used, witness = len(verts) * (len(verts) - 1) // 2, None
    else:
        args = (verts, ~vals, vals, parity) if odd else (vals, ~verts, verts, parity[vals])
        used, witness = _first_failing_pair(*args)
    if counter is not None:
        counter.count += used
    return witness is None, witness


def is_border(phi: Outmap, counter: PairEvalCounter | None = None):
    """Decide whether a USO can occur as a facet of a PUSO.

    An accept is decided on the disjoint pairs alone.  Otherwise the
    lexicographically first pair with phi(U) XOR phi(V) contained in
    U XOR V but of even size is returned as witness.  Raises NotAUsoError
    for non-USO input.
    """
    return _containment_scan(phi, counter, odd=False)


def is_odd(phi: Outmap, counter: PairEvalCounter | None = None):
    """Decide whether a USO is odd (its dual is a border USO).

    Direct condition: every pair with U XOR V contained in
    phi(U) XOR phi(V) must have odd Hamming distance.  An accept is decided
    by the border condition on the disjoint pairs of the inverse.
    Otherwise the lexicographically first violating pair is returned as
    witness.  Raises NotAUsoError for non-USO input.
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


def is_cap(phi: Outmap, face: FaceSpec | None = None) -> bool:
    """True iff the face's induced outmap is bijective and every face vertex lies at
    odd Hamming distance from its complementary vertex.  Vertices (dimension 0) are
    trivially caps; a non-bijective induced outmap yields False, not an error.
    """
    if face is None:
        face = phi.whole_face()
    try:
        verts, inverse = _face_inverse(phi, face)  # it checks that the face fits
    except NotBijectiveError:
        return False
    partners = inverse[_values(phi)[verts] & face.carrier ^ face.carrier]
    return face.carrier == 0 or bool(_vertex_parity(phi.n)[verts ^ partners].all())


def all_faces_caps(phi: Outmap) -> bool:
    """True iff every one of the 3**n faces is a cap (equivalent to odd for USOs): for each
    carrier c, no two vertices share a key and those keyed k and k ^ c are at odd distance.
    """
    verts = np.arange(1 << phi.n, dtype=_vertex_dtype(phi.n))
    parity = _vertex_parity(phi.n)
    for c in range(1, 1 << phi.n):
        keys = _carrier_keys(phi, FaceSpec(0, c))
        inverse = np.zeros_like(keys)
        inverse[keys] = verts  # the vertex keyed k, unless a later one shares k
        if (inverse[keys] != verts).any() or not parity[inverse ^ inverse[verts ^ c]].all():
            return False
    return True


def puso_parity(phi: Outmap, counter: PairEvalCounter | None = None) -> Parity:
    """Common parity |phi(V)| mod 2 of a PUSO's values (even: 2 sinks, odd: 0).

    The PUSO gate is is_puso, which reads classify's stored verdict (or
    classifies once) and charges 3**n - 2**n pair evaluations either way.
    """
    if not is_puso(phi, counter):
        raise NotAPusoError("parity is defined for PUSOs only")
    return Parity.ODD if phi.values[0].bit_count() & 1 else Parity.EVEN
