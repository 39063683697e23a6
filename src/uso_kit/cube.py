"""Bitmask cube machinery: coordinate sets, faces, outmaps, text format.

Coordinates are numbered 1..n and every set of coordinates is stored as an
integer bitmask with bit (i - 1) standing for coordinate i.  A vertex of the
standard n-cube is exactly such a set, so vertex masks double as array
indices: the vertex {1, 3} has index 0b101 = 5.  Outmap values, flip sets,
carriers, and Hamming codewords all reuse the same encoding, which keeps the
whole toolkit inside plain integer arithmetic (no floating point anywhere).

An outmap assigns each vertex its set of outgoing coordinates.  The ".uso"
text serialization is:

    line 1              the dimension n in decimal
    lines 2 .. 2**n+1   for vertex index v = 0 .. 2**n - 1, exactly n
                        characters over {0, 1}; the character at position
                        i - 1 (leftmost = coordinate 1) is '1' iff
                        coordinate i is outgoing at that vertex

A face is a closed interval [lower, upper] with lower <= upper as sets; its
carrier upper XOR lower holds the coordinates that vary on the face.  The
only coordinate relabeling in the package happens in induced_outmap, which
compresses carrier coordinates onto 1..dim in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import index, or_
from typing import Iterator

import numpy as np

from .errors import FormatError

# Hard cap on cube dimension; 2**20 vertices is already past desk scale.
MAX_DIM = 20


def full_mask(n: int) -> int:
    """Mask of all coordinates 1..n."""
    return (1 << n) - 1


def symdiff(a: int, b: int) -> int:
    """Symmetric difference of two coordinate sets."""
    return a ^ b


def mask_from_coords(coords) -> int:
    """Mask for an iterable of coordinate numbers (each >= 1)."""
    mask = 0
    for i in coords:
        if i < 1:
            raise ValueError(f"coordinates are numbered from 1, got {i}")
        mask |= 1 << (i - 1)
    return mask


def coords_from_mask(mask: int) -> tuple[int, ...]:
    """Increasing tuple of coordinate numbers present in a mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _subsets(mask: int) -> Iterator[int]:
    """Every subset of a mask, in increasing order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


@dataclass(frozen=True)
class FaceSpec:
    """Face [lower, upper] of a cube: all vertices V with lower <= V <= upper."""

    lower: int
    upper: int

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("face bounds must be nonnegative masks")
        if self.lower & ~self.upper:
            raise ValueError(
                f"invalid face: lower {self.lower:#b} is not a subset of upper {self.upper:#b}"
            )

    @property
    def carrier(self) -> int:
        """Coordinates that vary on the face."""
        return self.lower ^ self.upper

    @property
    def dim(self) -> int:
        return self.carrier.bit_count()

    def contains(self, v: int) -> bool:
        return not (self.lower & ~v) and not (v & ~self.upper)

    def vertices(self) -> Iterator[int]:
        """Vertices of the face in increasing index order."""
        lower = self.lower
        for s in _subsets(self.carrier):
            yield lower | s


def antipode(v: int, face: FaceSpec) -> int:
    """Vertex opposite v within a face."""
    if not face.contains(v):
        raise ValueError(f"vertex {v:#b} lies outside face [{face.lower:#b}, {face.upper:#b}]")
    return v ^ face.carrier


def faces_iter(n: int, min_dim: int = 0) -> Iterator[FaceSpec]:
    """All faces of the standard n-cube with dimension >= min_dim.

    Deterministic order: carrier masks ascending, and for each carrier the
    lower sets ascending.  Yields 3**n faces for min_dim=0 and 3**n - 2**n
    faces for min_dim=1.
    """
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be within 0..{MAX_DIM}")
    if min_dim < 0:
        raise ValueError("min_dim must be nonnegative")
    if min_dim > n:
        return
    full = full_mask(n)
    for carrier in range(full + 1):
        if carrier.bit_count() >= min_dim:
            for a in _subsets(full ^ carrier):
                yield FaceSpec(a, a | carrier)


@lru_cache(maxsize=None)
def face_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Antipodal pair of every face with dim >= 1, as parallel (lowers, uppers) arrays.

    Faces are ordered by dimension, and within one dimension in faces_iter
    order, so a scan that stops at the first failing face stops at a face
    of minimal dimension.  The arrays are read-only, uint16 (uint32 above
    n = 16); the cached schedule of a 12-cube takes about 2 MB.
    """
    dtype = _vertex_dtype(n)
    carriers = np.arange(1, full_mask(n) + 1)
    bits = carriers[:, None] >> np.arange(n) & 1
    dims = bits.sum(axis=1)
    lowers = [np.zeros(0, dtype=dtype)]
    uppers = [np.zeros(0, dtype=dtype)]
    for dim in range(1, n + 1):
        group = carriers[dims == dim]
        # the free coordinates of each carrier, increasing; depositing the
        # bits of 0 .. 2**(n - dim) - 1 on them lists the lower sets in order
        free = np.nonzero(bits[dims == dim] == 0)[1].reshape(len(group), n - dim)
        rank = np.arange(1 << (n - dim))
        low = np.zeros((len(group), len(rank)), dtype=np.int64)
        for i in range(n - dim):
            low |= (rank >> i & 1) << free[:, i : i + 1]
        lowers.append(low.ravel().astype(dtype))
        uppers.append((low | group[:, None]).ravel().astype(dtype))
    lowers, uppers = np.concatenate(lowers), np.concatenate(uppers)
    lowers.flags.writeable = uppers.flags.writeable = False
    return lowers, uppers


def _vertex_dtype(n: int):
    """Unsigned dtype of the face schedule and of outmap values in numpy."""
    return np.uint16 if n <= 16 else np.uint32


@dataclass(frozen=True)
class Outmap:
    """Dense outmap of the standard n-cube: values[v] = outgoing set of vertex v.

    values may be any iterable of ints (a list, a numpy array); it is stored
    as a tuple.  An outmap is immutable, so it keeps one private memo of facts
    derived from its values, each stored on first use: the values as a
    read-only numpy array in _vertex_dtype(n) (see _values), and the Verdict
    that recognition.classify found, which classes reads instead of proving
    the outmap a USO or PUSO again.  The memo is not a field: equality,
    hashing, repr, copies and pickles see n and values only.
    """

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if type(self.values) is not tuple:
            object.__setattr__(self, "values", tuple(map(index, self.values)))
        if not 0 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be within 0..{MAX_DIM}")
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"outmap for dimension {self.n} needs {1 << self.n} values, got {len(self.values)}"
            )
        full = full_mask(self.n)
        try:
            bad = min(self.values) < 0 or reduce(or_, self.values) & ~full
        except TypeError:
            bad = True
        if bad:
            # name the first bad vertex; a non-integer value raises TypeError here
            for v, value in enumerate(self.values):
                if value < 0 or value & ~full:
                    raise ValueError(
                        f"value {value:#b} at vertex {v} uses coordinates beyond 1..{self.n}"
                    )

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def __getstate__(self):
        # the memo is derived from the fields, so pickles and copies leave it out
        return {"n": self.n, "values": self.values}

    def whole_face(self) -> FaceSpec:
        return FaceSpec(0, full_mask(self.n))


def _memo(phi: Outmap) -> dict:
    """The outmap's private memo (see Outmap), created empty on first use."""
    return phi.__dict__.setdefault("_memo", {})


def _values(phi: Outmap) -> np.ndarray:
    """The outmap's values as a read-only array in _vertex_dtype(n), built once per outmap."""
    memo = _memo(phi)
    array = memo.get("array")
    if array is None:
        array = memo["array"] = np.asarray(phi.values, dtype=_vertex_dtype(phi.n))
        array.flags.writeable = False
    return array


def _carrier_keys(phi: Outmap, face: FaceSpec) -> np.ndarray:
    """Key of every vertex v for the face's carrier c: v outside c, phi(v) inside c.

    Keys stay in v's face parallel to `face`: a face's sinks are keyed with its lower
    vertex, and when its keys are distinct, v's complementary vertex is keyed key(v) ^ c."""
    full = full_mask(phi.n)
    if face.upper > full:
        raise ValueError("face does not fit inside the cube")
    verts = np.arange(full + 1, dtype=_vertex_dtype(phi.n))
    return verts & (full ^ face.carrier) | _values(phi) & face.carrier


def face_sinks(phi: Outmap, face: FaceSpec | None = None) -> tuple[int, ...]:
    """Vertices of a face with no outgoing coordinate inside the face, increasing:
    those keyed with the face's lower vertex (see _carrier_keys)."""
    if face is None:
        face = phi.whole_face()
    return tuple(np.flatnonzero(_carrier_keys(phi, face) == face.lower).tolist())


def induced_outmap(phi: Outmap, face: FaceSpec) -> Outmap:
    """Outmap induced on a face, re-indexed to a standalone dim(face)-cube.

    Vertex lower | S of the face becomes the compression of S onto the
    carrier coordinates taken in increasing order, and values are the
    original values restricted to the carrier, compressed the same way.
    """
    if face.upper > full_mask(phi.n):
        raise ValueError("face does not fit inside the cube")
    bits = [i - 1 for i in coords_from_mask(face.carrier)]
    k = len(bits)
    values = []
    for w in range(1 << k):
        v = face.lower
        for j, pos in enumerate(bits):
            if w >> j & 1:
                v |= 1 << pos
        value = phi.values[v]
        values.append(sum((value >> pos & 1) << j for j, pos in enumerate(bits)))
    return Outmap(k, tuple(values))


def parse_uso(text: str) -> Outmap:
    """Parse the .uso text format; raises FormatError with a line number."""
    lines = text.splitlines()
    phi, end = _parse_record(lines, 0)
    if end < len(lines):
        raise FormatError(
            f"expected {end - 1} vertex lines for dimension {phi.n}, got {len(lines) - 1}",
            line=end + 1,
        )
    return phi


def read_outmap_stream(text: str) -> list[Outmap]:
    """Parse concatenated .uso records, skipping blank lines between them; a
    record's FormatError names the record and its line within the record."""
    lines = text.splitlines()
    outmaps: list[Outmap] = []
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        try:
            phi, pos = _parse_record(lines, pos)
        except FormatError as exc:
            raise FormatError(f"record {len(outmaps) + 1}: {exc}") from None
        outmaps.append(phi)
    return outmaps


def _parse_record(lines: list[str], start: int) -> tuple[Outmap, int]:
    """The .uso record whose dimension line is lines[start], and the index past
    its last line; error line numbers count from its dimension line."""
    if start == len(lines):
        raise FormatError("empty input", line=1)
    head = lines[start].strip()
    try:
        n = int(head, 10)
    except ValueError:
        raise FormatError(f"expected a decimal dimension, got {head!r}", line=1) from None
    if not 0 <= n <= MAX_DIM:
        raise FormatError(f"dimension {n} outside 0..{MAX_DIM}", line=1)
    expected = 1 << n
    end = start + 1 + expected
    rows = lines[start + 1 : end]
    if len(rows) < expected:
        raise FormatError(
            f"expected {expected} vertex lines for dimension {n}, got {len(rows)}",
            line=len(rows) + 2,
        )
    if n <= 10:
        try:
            return Outmap(n, tuple(map(_line_values(n).__getitem__, rows))), end
        except KeyError:
            pass  # a malformed row: the checks below name it
    else:
        # each row and its newline as n + 1 bytes ("?" for non-ASCII); once the first n bytes
        # of every row are "0"/"1" (48/49), the newlines fill the rest
        codes = np.frombuffer(("\n".join(rows) + "\n").encode("ascii", "replace"), np.uint8)
        if codes.size == expected * (n + 1):
            digits = codes.reshape(expected, n + 1)[:, :n]  # a view: no copy of the record
            if digits.min() >= 48 and digits.max() <= 49:
                # one column at a time, so no temporary holds more than one uint32 per row
                values = sum((digits[:, i] & 1).astype(np.uint32) << i for i in range(n))
                return Outmap(n, tuple(values.tolist())), end
    # some row is malformed: name the first one and its first bad character
    for v, row in enumerate(rows):
        if len(row) != n:
            raise FormatError(f"expected exactly {n} characters, got {len(row)}", line=v + 2)
        for ch in row:
            if ch not in "01":
                raise FormatError(f"invalid character {ch!r}", line=v + 2)
    raise AssertionError("unreachable: every row is n characters of 0/1")


def value_line(value: int, n: int) -> str:
    """Render one outmap value as its n-character .uso line."""
    # a sentinel bit n pads the binary form to n + 1 digits; dropping it
    # while reversing puts coordinate 1 first, and n = 0 gives ""
    top = 1 << n
    return format(value & top - 1 | top, "b")[:0:-1]


@lru_cache(maxsize=None)
def _line_values(n: int) -> dict[str, int]:
    """Value of every n-character .uso line, for parsing (n <= 10: at most 2**10 lines)."""
    return {value_line(v, n): v for v in range(1 << n)}


@lru_cache(maxsize=None)
def _line_tables(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """.uso lines of the low k = n // 2 and the high n - k coordinates (<= 2**10 each)."""
    k = n // 2
    lo = tuple(value_line(v, k) for v in range(1 << k))
    return lo, tuple(value_line(v, n - k) for v in range(1 << (n - k)))


def emit_uso(phi: Outmap) -> str:
    """Serialize an outmap to .uso text (with trailing newline).

    Coordinate 1 comes first in a line, so value v renders as its low
    coordinates' line followed by its high coordinates' line.
    """
    n = phi.n
    k = n // 2
    mask = (1 << k) - 1
    lo, hi = _line_tables(n)
    return "\n".join([str(n), *[lo[v & mask] + hi[v >> k] for v in phi.values]]) + "\n"
