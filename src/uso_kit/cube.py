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
carrier upper XOR lower holds the coordinates that vary on the face.
induced_outmap compresses carrier coordinates onto 1..dim in increasing
order; the only other coordinate relabeling in the package is
enumeration's symmetry gather, which relabels outmaps to canonical form.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from operator import index, itemgetter
from typing import Iterator

import numpy as np

from .errors import FormatError

# Hard cap on cube dimension; 2**20 vertices is already past desk scale.
MAX_DIM = 20


def full_mask(n: int) -> int:
    """Mask of all coordinates 1..n."""
    return (1 << n) - 1


def mask_from_coords(coords) -> int:
    """Mask for an iterable of coordinate numbers (each within 1..MAX_DIM)."""
    mask = 0
    for i in coords:
        if not 1 <= i <= MAX_DIM:
            raise ValueError(f"coordinates are numbered 1..{MAX_DIM}, got {i}")
        mask |= 1 << (i - 1)
    return mask


def coords_from_mask(mask: int) -> tuple[int, ...]:
    """Increasing tuple of coordinate numbers present in a mask."""
    if mask < 0:
        raise ValueError(f"coordinate masks are nonnegative, got {mask}")
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
        if self.lower < 0 or self.upper < 0:
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
    n = 16); the cached schedule of a 12-cube takes about 2 MB.  The library
    builds it only for the half cubes of recognition's product scan, up to
    n = 10 (n = 13 for the high half of a 20-cube), and for enumeration,
    n <= 4.
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

    values may be any iterable of integers (a tuple, a list, a numpy array); it
    is stored as a tuple of Python ints, which an integer numpy array gives
    with one tolist() and anything else through operator.index.  Values
    are checked once, where they enter: code that built the tuple of 2**n
    n-bit Python ints itself may pass the keyword _checked=True to skip the
    checks.  Only the .uso parser (rows decoded from 0/1 digits), enumeration's
    class lists and classes.dual (an inverse proven bijective) do.

    An outmap is immutable, so it keeps one private memo of facts derived from
    its values, each stored on first use: the values as a read-only numpy
    array in _vertex_dtype(n) (see _values), and the Verdict that
    recognition.classify found, which classes reads instead of proving the
    outmap a USO or PUSO again.  The memo and _checked are not fields: equality,
    hashing, repr, copies and pickles see n and values only.
    """

    n: int
    values: tuple[int, ...]
    _checked: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _checked):
        if _checked:
            return
        if isinstance(self.values, np.ndarray) and self.values.dtype.kind in "iu":
            object.__setattr__(self, "values", tuple(self.values.tolist()))
        else:  # index() refuses floats and numpy bools, and turns bools into 0 and 1
            object.__setattr__(self, "values", tuple(map(index, self.values)))
        if not 0 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be within 0..{MAX_DIM}")
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"outmap for dimension {self.n} needs {1 << self.n} values, got {len(self.values)}"
            )
        full = full_mask(self.n)
        if min(self.values) < 0 or max(self.values) > full:
            for v, value in enumerate(self.values):  # name the first bad vertex
                if not 0 <= value <= full:
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
    bits = list(enumerate(i - 1 for i in coords_from_mask(face.carrier)))
    values = (phi.values[v] for v in face.vertices())
    return Outmap(len(bits), tuple(sum((x >> pos & 1) << j for j, pos in bits) for x in values))


def parse_uso(text: str) -> Outmap:
    """Parse the .uso text format; raises FormatError with a line number.  Text in emit_uso's
    layout (final newline optional) is read from its bytes, any other text by the line path."""
    end = text.find("\n")
    if 0 < end <= 2 and text.isascii() and text[:end].isdigit():
        phi = _decoded(text if text.endswith("\n") else text + "\n", end + 1, int(text[:end]))
        if phi is not None:
            return phi
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
        # ASCII digits only: int() alone also takes "+2", "0_2" and non-ASCII digits
        if not (head.isascii() and head.isdigit()):
            raise ValueError
        n = int(head)
    except ValueError:  # also past int()'s digit limit
        got = repr(head) if len(head) <= 32 else f"{head[:32]!r} (cut from {len(head)} characters)"
        raise FormatError(f"expected a decimal dimension, got {got}", line=1) from None
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
            return Outmap(n, tuple(map(_line_values(n).__getitem__, rows)), _checked=True), end
        except KeyError:
            pass  # a malformed row: the checks below name it
    elif (phi := _decoded("\n".join(rows) + "\n", 0, n)) is not None:
        return phi, end
    # some row is malformed: name the first one and its first bad character
    for v, row in enumerate(rows):
        if len(row) != n:
            raise FormatError(f"expected exactly {n} characters, got {len(row)}", line=v + 2)
        for ch in row:
            if ch not in "01":
                raise FormatError(f"invalid character {ch!r}", line=v + 2)
    raise AssertionError("unreachable: every row is n characters of 0/1")


def _decoded(text: str, start: int, n: int) -> Outmap | None:
    """The outmap whose rows are text[start:] as a (2**n, n + 1) byte matrix, or None unless
    that is 2**n rows of n digits 0/1 and a newline.  Horner's rule adds 48 + digit for each
    column in place in _vertex_dtype(n), so 48 * (2**n - 1), modulo its width, comes off last."""
    if n > MAX_DIM or len(text) - start != (n + 1) << n:
        return None
    rows = np.frombuffer(text.encode("ascii", "replace"), "u1", offset=start).reshape(-1, n + 1)
    digits = rows[:, :n]  # a view: no copy of the record
    if (rows[:, n] != 10).any() or digits.min(initial=48) < 48 or digits.max(initial=49) > 49:
        return None
    values = np.zeros(1 << n, _vertex_dtype(n))
    for i in reversed(range(n)):
        values <<= 1  # in place: a temporary per column would fragment the heap
        values += digits[:, i]
    values -= values.dtype.type(48 * full_mask(n) % (1 << 8 * values.itemsize))
    del rows, digits  # the record's bytes go before its tuple comes
    return _array_outmap(values)


def _array_outmap(values: np.ndarray) -> Outmap:
    """The outmap of checked values in _vertex_dtype(n), which become its read-only memo array."""
    values.flags.writeable = False
    phi = Outmap(len(values).bit_length() - 1, tuple(values.tolist()), _checked=True)
    _memo(phi)["array"] = values
    return phi


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
def _line_table(n: int) -> tuple[str, ...]:
    """.uso line and newline of every value, in value order (n <= 10)."""
    return tuple(line + "\n" for line in _line_values(n))


def _uso_body(values, n: int) -> str:
    """The .uso body of int values, an array in _vertex_dtype(n) above n = 10: one line each.

    Up to n = 10 that is one itemgetter call on the line table (at n = 0, with one index,
    itemgetter would return a bare line).  Above, it is the parser's (2**n, n + 1) byte
    matrix of digits and newlines, one column at a time: no 2**n-by-n temporary.
    """
    if n <= 10:
        return "".join(itemgetter(*values)(_line_table(n))) if n else "\n"
    codes = np.full((len(values), n + 1), 10, np.uint8)
    for i in range(n):
        codes[:, i] = values >> i & 1 | 48
    return codes.tobytes().decode()


def emit_uso(phi: Outmap) -> str:
    """Serialize an outmap to .uso text (with trailing newline)."""
    return f"{phi.n}\n" + _uso_body(_values(phi) if phi.n > 10 else phi.values, phi.n)
