"""Constructions: flips, cyclic PUSOs, Klee-Minty cubes, border extension,
vertex complementation, Hamming codewords, and the doubly exponential odd
family built from them.

All constructions return fresh Outmap values; preconditions that guard a
construction's correctness guarantee are checked and raise dedicated
errors rather than silently producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import MAX_DIM, Outmap, full_mask
from .errors import NotAUsoError, PreconditionViolatedError, ResourceLimitError
from .recognition import is_uso_fast


def _check_dimension(n: int) -> None:
    """Refuse a cube dimension before any of its 2**n values is built."""
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    if n > MAX_DIM:
        raise ResourceLimitError(f"dimension {n} exceeds the cap of {MAX_DIM}")


def flip(phi: Outmap, r: int) -> Outmap:
    """XOR every outmap value with the coordinate set r.

    Flipping reverses all edges along the coordinates in r and preserves
    both the USO and the PUSO property.
    """
    if r < 0 or r & ~full_mask(phi.n):
        raise ValueError(f"flip set {r:#b} uses coordinates beyond 1..{phi.n}")
    return Outmap(phi.n, tuple(value ^ r for value in phi.values))


@dataclass(frozen=True)
class CyclicPermutation:
    """Permutation of coordinates 1..n forming a single n-cycle.

    mapping[i - 1] is the image of coordinate i.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if n == 0:
            raise ValueError("empty permutation")
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.mapping}")
        # single cycle: starting from 1 it must take exactly n steps to return
        seen = 1
        at = self.mapping[0]
        while at != 1:
            seen += 1
            at = self.mapping[at - 1]
        if seen != n:
            raise ValueError(f"not a single {n}-cycle: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    @classmethod
    def shift(cls, n: int) -> "CyclicPermutation":
        """The canonical cycle 1 -> 2 -> ... -> n -> 1."""
        return cls(tuple(i % n + 1 for i in range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "CyclicPermutation":
        """Parse a comma-separated image list, e.g. "2,3,1" maps 1->2, 2->3, 3->1."""
        try:
            images = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse cycle {text!r}: expected comma-separated integers") from None
        return cls(images)


def cyclic_puso(n: int, perm: CyclicPermutation | None = None) -> Outmap:
    """PUSO of the n-cube from a single n-cycle on coordinates.

    Coordinate i is outgoing at V iff exactly one of i, perm(i) lies in V.
    Defaults to the shift cycle i -> i mod n + 1.
    """
    _check_dimension(n)
    if n < 2:
        raise ValueError("cyclic PUSOs need dimension >= 2")
    if perm is None:
        perm = CyclicPermutation.shift(n)
    if perm.n != n:
        raise ValueError(f"cycle length {perm.n} does not match dimension {n}")
    v = np.arange(1 << n)
    # bit i - 1 of moved is bit perm(i) - 1 of v
    moved = np.zeros_like(v)
    for i in range(1, n + 1):
        moved |= (v >> (perm(i) - 1) & 1) << (i - 1)
    return Outmap(n, tuple((v ^ moved).tolist()))


def klee_minty(n: int) -> Outmap:
    """Klee-Minty cube: coordinate j is outgoing at V iff |V intersect {j..n}| is odd."""
    _check_dimension(n)
    # suffix XOR (inverse Gray code): bit pos ends as the parity of bits pos and above
    values = np.arange(1 << n)
    s = 1
    while s < n:
        values ^= values >> s
        s <<= 1
    return Outmap(n, tuple(values.tolist()))


def extend_border(psi: Outmap, bit: int) -> Outmap:
    """Extend an (n-1)-dimensional USO to an n-dimensional outmap.

    On the lower facet, vertices keep their value when its parity equals
    bit and additionally leave along the new top coordinate otherwise; the
    upper facet mirrors the lower one antipodally, so all antipodal values
    coincide.  When psi is a border USO the result is a PUSO (for either
    bit); when psi is merely a USO the result still has all proper faces
    USO no deeper than the facets, which the recognizers sort out.
    Raises NotAUsoError unless psi is a USO.
    """
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if not is_uso_fast(psi):
        raise NotAUsoError("extension starts from a USO")
    n = psi.n + 1
    top = 1 << (n - 1)
    full = full_mask(n)
    lower = [value if value.bit_count() & 1 == bit else value | top for value in psi.values]
    values = lower + [lower[full ^ v] for v in range(top, 1 << n)]
    return Outmap(n, tuple(values))


def is_complementable(phi: Outmap, w: int) -> bool:
    """Staircase precondition at w: phi(w) XOR phi(w XOR {i}) = {1..i} for every i."""
    values = phi.values
    if w < 0 or w > full_mask(phi.n):
        raise ValueError(f"vertex {w:#b} lies outside the cube")
    return all(
        values[w] ^ values[w ^ (1 << pos)] == (2 << pos) - 1 for pos in range(phi.n)
    )


def complement_vertex(phi: Outmap, w: int) -> Outmap:
    """Complement the outmap at w: invert w's value and one coordinate per neighbor.

    Requires the staircase precondition phi(w) XOR phi(w XOR {i}) = {1..i}
    for all i (checked; PreconditionViolatedError otherwise).  When phi is
    an odd USO this produces another odd USO differing exactly on the
    closed neighborhood of w; that odd-USO contract is the caller's.
    """
    if not is_complementable(phi, w):
        raise PreconditionViolatedError(
            f"vertex {w:#b} violates the staircase precondition; complementing it is unsound"
        )
    values = list(phi.values)
    values[w] ^= full_mask(phi.n)
    for pos in range(phi.n):
        values[w ^ (1 << pos)] ^= 1 << pos
    return Outmap(phi.n, tuple(values))


@dataclass(frozen=True)
class CodewordSet:
    """Perfect Hamming code over coordinates 1..block_length, words ascending."""

    block_length: int
    words: tuple[int, ...]


def hamming_codewords(n: int) -> CodewordSet:
    """Kernel of the parity-check matrix whose column j is the binary expansion of j.

    Requires n = 2**k with k >= 2.  The code is the 2**(n - 1 - k) words of
    n - 1 bits whose set positions j XOR to 0, pairwise at distance >= 3.
    The block length n - 1 is the family's cube dimension, so it is checked first.
    """
    _check_dimension(n - 1)
    if n < 4 or n & (n - 1):
        raise ValueError("the code is defined for n = 2**k with k >= 2")
    words = np.arange(1 << (n - 1))
    syndrome = np.zeros_like(words)
    for j in range(1, n):
        syndrome ^= (words >> (j - 1) & 1) * j
    return CodewordSet(n - 1, tuple(np.flatnonzero(syndrome == 0).tolist()))


def odd_family(n: int, selector: int) -> Outmap:
    """Member of the doubly exponential odd USO family of dimension n - 1.

    Starts from the Klee-Minty cube of dimension n - 1 and complements the
    vertices given by the Hamming codewords selected by the bits of
    selector (bit t picks words[t]).  Codewords are pairwise at distance
    >= 3, so their closed neighborhoods are disjoint and distinct
    selectors give distinct odd USOs.
    """
    code = hamming_codewords(n)
    if selector < 0 or selector >> len(code.words):
        raise ValueError(
            f"selector must be within 0..2**{len(code.words)} - 1 for n = {n}"
        )
    phi = klee_minty(n - 1)
    for t, word in enumerate(code.words):
        if selector >> t & 1:
            phi = complement_vertex(phi, word)
    return phi
