"""Vertex/face mask arithmetic and the .uso text format."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uso_kit import (
    FaceSpec,
    FormatError,
    Outmap,
    antipode,
    coords_from_mask,
    cyclic_puso,
    emit_uso,
    flip,
    face_sinks,
    faces_iter,
    full_mask,
    induced_outmap,
    klee_minty,
    mask_from_coords,
    parse_uso,
    random_outmap,
    symdiff,
    value_line,
)

from uso_kit.cube import face_schedule

from conftest import BORDER_3, BOW, EYE, KM_3


def outmaps(max_n: int = 3):
    """Strategy over arbitrary outmap functions of dimension <= max_n."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n
            ),
        )
    ).map(lambda t: Outmap(t[0], tuple(t[1])))


def test_mask_round_trip():
    assert mask_from_coords(()) == 0
    assert mask_from_coords((1, 3)) == 0b101
    assert coords_from_mask(0b101) == (1, 3)
    assert coords_from_mask(0) == ()
    with pytest.raises(ValueError):
        mask_from_coords((0,))


def test_symdiff_is_xor():
    assert symdiff(0b110, 0b011) == 0b101


@given(st.integers(0, 5).flatmap(lambda n: st.sets(st.integers(1, max(n, 1)))))
@settings(max_examples=100)
def test_coords_mask_inverse(coords):
    assert coords_from_mask(mask_from_coords(tuple(sorted(coords)))) == tuple(sorted(coords))


def test_face_spec_basics():
    face = FaceSpec(0b001, 0b111)
    assert face.carrier == 0b110
    assert face.dim == 2
    assert face.contains(0b011)
    assert not face.contains(0b010)
    assert tuple(face.vertices()) == (0b001, 0b011, 0b101, 0b111)
    with pytest.raises(ValueError):
        FaceSpec(0b010, 0b001)


def test_antipode_within_face():
    face = FaceSpec(0b001, 0b111)
    assert antipode(0b001, face) == 0b111
    assert antipode(0b011, face) == 0b101
    with pytest.raises(ValueError):
        antipode(0b000, face)


@pytest.mark.parametrize("n", range(0, 6))
def test_face_counts(n):
    """3**n faces in total, 3**n - 2**n of dimension at least one."""
    all_faces = list(faces_iter(n))
    assert len(all_faces) == 3**n
    assert len(list(faces_iter(n, min_dim=1))) == 3**n - 2**n
    assert len(set(all_faces)) == len(all_faces)
    # vertices (dim 0) are exactly the 2**n singleton faces
    assert sum(1 for f in all_faces if f.dim == 0) == 2**n


def test_faces_iter_deterministic_order():
    faces = list(faces_iter(2))
    carriers = [f.carrier for f in faces]
    assert carriers == sorted(carriers)
    assert faces[0] == FaceSpec(0, 0)
    assert faces[-1] == FaceSpec(0, 3)


@pytest.mark.parametrize("n", range(0, 9))
def test_face_schedule_is_faces_iter_sorted_by_dimension(n):
    faces = sorted(faces_iter(n, min_dim=1), key=lambda face: face.dim)
    lowers, uppers = face_schedule(n)
    assert lowers.dtype == uppers.dtype == np.uint16
    assert not lowers.flags.writeable and not uppers.flags.writeable
    assert lowers.tolist() == [face.lower for face in faces]
    assert uppers.tolist() == [face.upper for face in faces]


def test_face_schedule_length_at_twelve():
    n = 12
    lowers, uppers = face_schedule(n)
    assert lowers.dtype == uppers.dtype == np.uint16
    assert len(lowers) == len(uppers) == 3**n - 2**n
    assert (lowers[-1], uppers[-1]) == (0, (1 << n) - 1)


def test_face_vertices_ascending():
    for face in faces_iter(4):
        verts = list(face.vertices())
        assert verts == sorted(verts)
        assert len(verts) == 1 << face.dim


def test_outmap_validation():
    with pytest.raises(ValueError):
        Outmap(2, (0, 1, 2))
    with pytest.raises(ValueError):
        Outmap(2, (0, 1, 2, 4))
    with pytest.raises(ValueError):
        Outmap(-1, ())
    phi = Outmap(2, EYE)
    assert phi[0b11] == 3
    assert phi.whole_face() == FaceSpec(0, 3)


def test_outmap_validation_names_the_first_bad_vertex():
    with pytest.raises(ValueError, match=r"value 0b100 at vertex 1 uses coordinates beyond 1\.\.2"):
        Outmap(2, (0, 4, -1, 7))
    with pytest.raises(ValueError, match=r"value -0b1 at vertex 2 "):
        Outmap(2, (0, 1, -1, 7))
    with pytest.raises(ValueError, match=r"value 0b1 at vertex 0 uses coordinates beyond 1\.\.0"):
        Outmap(0, (1,))


def test_outmap_refuses_non_integer_values():
    with pytest.raises(TypeError):
        Outmap(1, (0.5, 1))
    with pytest.raises(TypeError):
        Outmap(2, (0, 1.0, 2, 3))
    with pytest.raises(TypeError):
        Outmap(1, [0.5, 1])
    with pytest.raises(TypeError):
        Outmap(2, np.array([0, 1, 3, 2.0]))


@pytest.mark.parametrize(
    "convert", [list, lambda values: np.array(values, dtype=np.uint16)], ids=["list", "uint16"]
)
def test_outmap_stores_list_and_array_values_as_a_tuple_of_ints(convert):
    phi, twin = Outmap(2, convert(BOW)), Outmap(2, BOW)
    assert type(phi.values) is tuple and {type(v) for v in phi.values} == {int}
    assert phi == twin and hash(phi) == hash(twin) and repr(phi) == repr(twin)


def test_face_sinks_on_fixed_outmaps():
    assert face_sinks(Outmap(2, EYE)) == (0,)
    assert face_sinks(Outmap(2, (0, 3, 3, 0))) == (0, 3)
    assert face_sinks(Outmap(2, (1, 2, 2, 1))) == ()
    face = FaceSpec(0b000, 0b011)
    assert face_sinks(Outmap(3, KM_3), face) == (0,)


def test_face_sinks_match_the_per_vertex_loop():
    """The numpy selection against a loop over face.vertices(), n <= 8."""
    rng = random.Random(77)
    seen = set()
    for n in range(9):
        subjects = [random_outmap(n, rng), flip(klee_minty(n), rng.getrandbits(n))]
        if n >= 2:
            subjects.append(flip(cyclic_puso(n), rng.getrandbits(n)))
        for phi in subjects:
            faces = [phi.whole_face()]
            for _ in range(6):
                lower = rng.getrandbits(n) if n else 0
                faces.append(FaceSpec(lower, lower | (rng.getrandbits(n) if n else 0)))
            for face in faces:
                expected = tuple(v for v in face.vertices() if not phi[v] & face.carrier)
                assert face_sinks(phi, face) == expected
                seen.add((face.dim == 0, face.dim == n, min(len(expected), 2)))
    # singleton faces, and proper and whole faces with no, one and two sinks
    assert {(True, False, 1)} | {(False, w, k) for w in (False, True) for k in (0, 1, 2)} <= seen
    with pytest.raises(ValueError):
        face_sinks(Outmap(2, EYE), FaceSpec(0, 0b100))


def test_induced_outmap_compresses_carrier():
    """Hand-checked faces of the border USO: one eye and one bow."""
    phi = Outmap(3, BORDER_3)
    side = induced_outmap(phi, FaceSpec(0b000, 0b101))
    assert side.n == 2
    assert side.values == EYE
    bottom = induced_outmap(phi, FaceSpec(0b000, 0b011))
    assert bottom.values == BOW


def test_parse_emit_fixed():
    text = "2\n00\n10\n01\n11\n"
    phi = parse_uso(text)
    assert phi.n == 2
    assert phi.values == EYE
    assert emit_uso(phi) == text


def test_value_line_orders_coordinate_one_first():
    assert value_line(0b110, 3) == "011"
    assert value_line(0, 0) == ""
    assert value_line(0b1011, 3) == "110"
    assert value_line(0, 4) == "0000"


def test_parse_zero_dimensional():
    phi = parse_uso("0\n\n")
    assert phi.n == 0
    assert phi.values == (0,)
    assert emit_uso(phi) == "0\n\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("x\n00\n", 1),
        ("-1\n", 1),
        ("2\n00\n10\n01\n", None),     # missing body line
        ("1\n0\n1\nextra\n", None),    # surplus body line
        ("2\n0\n10\n01\n11\n", 2),     # wrong width
        ("2\n0x\n10\n01\n11\n", 2),    # bad character
        ("2\n0x\n10\n01\n11\n\n", 2),  # the bad character comes before the surplus line
    ],
)
def test_parse_errors_cite_line(text, line):
    with pytest.raises(FormatError) as err:
        parse_uso(text)
    if line is not None:
        assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("row", ["1_", "+1", "-1", " 1", "1 ", "\u0661\u0661", "\uff11\uff10"])
def test_parse_rejects_rows_that_int_would_accept(row):
    """int(row, 2) accepts these; the .uso format allows only 0 and 1."""
    text = f"2\n00\n{row}\n01\n11\n"
    with pytest.raises(FormatError) as err:
        parse_uso(text)
    first_bad = next(ch for ch in row if ch not in "01")
    assert str(err.value) == f"line 3: invalid character {first_bad!r}"


def test_parse_names_the_first_malformed_row():
    with pytest.raises(FormatError) as err:
        parse_uso("2\n00\n1x\n0\n11\n")
    assert str(err.value) == "line 3: invalid character 'x'"
    with pytest.raises(FormatError) as err:
        parse_uso("2\n00\n1\n0x\n11\n")
    assert str(err.value) == "line 3: expected exactly 2 characters, got 1"


@given(outmaps())
@settings(max_examples=150)
def test_parse_emit_round_trip(phi):
    assert parse_uso(emit_uso(phi)) == phi


@given(st.sampled_from([11, 12]), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 1.0]))
@settings(max_examples=30, deadline=None)
def test_parse_emit_round_trip_above_the_line_table(n, seed, ones):
    """Above n = 10 rows decode in one numpy step, all-ones values included."""
    rng = random.Random(seed)
    full = full_mask(n)
    values = tuple(full if rng.random() < ones else rng.getrandbits(n) for _ in range(1 << n))
    phi = Outmap(n, values)
    assert parse_uso(emit_uso(phi)) == phi


def _emit_reference(phi: Outmap) -> str:
    """.uso text with one value_line call per vertex."""
    return "\n".join([str(phi.n), *(value_line(v, phi.n) for v in phi.values)]) + "\n"


@given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 1.0]))
@settings(max_examples=100, deadline=None)
def test_emit_matches_per_line_reference(n, seed, ones):
    """emit_uso's two-table lines against value_line, all-ones values included."""
    rng = random.Random(seed)
    full = full_mask(n)
    values = tuple(full if rng.random() < ones else rng.getrandbits(n) for _ in range(1 << n))
    phi = Outmap(n, values)
    assert emit_uso(phi) == _emit_reference(phi)


def test_emit_matches_per_line_reference_klee_minty_16():
    phi = klee_minty(16)
    assert emit_uso(phi) == _emit_reference(phi)


@given(outmaps())
@settings(max_examples=100)
def test_induced_on_whole_face_is_identity(phi):
    assert induced_outmap(phi, phi.whole_face()) == phi


@given(outmaps())
@settings(max_examples=100)
def test_every_vertex_in_exactly_one_sink_relation(phi):
    """face_sinks over singleton faces returns each vertex (sink of itself)."""
    for v in range(1 << phi.n):
        assert face_sinks(phi, FaceSpec(v, v)) == (v,)


def test_full_mask_values():
    assert [full_mask(n) for n in range(4)] == [0, 1, 3, 7]
