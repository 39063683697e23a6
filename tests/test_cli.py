"""End-to-end command line behavior, including exit codes and formats."""

import hashlib
import importlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uso_kit
from uso_kit import (
    CyclicPermutation,
    FaceSpec,
    FormatError,
    Outmap,
    ResourceLimitError,
    canonical_form,
    complementary_vertex,
    count_table,
    cyclic_puso,
    dual,
    emit_uso,
    enumerate_pusos,
    extend_border,
    flip,
    induced_outmap,
    is_complementable,
    is_odd,
    is_puso,
    klee_minty,
    odd_family,
    orbit_representatives,
    parse_uso,
    random_odd,
    random_puso,
    random_uso,
)
from uso_kit import cli
from uso_kit.cli import main, read_outmap_stream

from conftest import BORDER_3, EYE, KM_3, TWIN_PEAK
from test_cube import outmaps


def write_uso(tmp_path, name, values):
    n = (len(values) - 1).bit_length()
    path = tmp_path / name
    path.write_text(emit_uso(Outmap(n, values)), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check / class / dual


def test_check_uso(tmp_path, capsys):
    path = write_uso(tmp_path, "km.uso", KM_3)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "verdict: USO" in out
    assert "pair-evals: 19" in out


def test_check_expectation_mismatch(tmp_path, capsys):
    path = write_uso(tmp_path, "km.uso", KM_3)
    assert run(capsys, "check", path, "--expect", "uso")[0] == 0
    assert run(capsys, "check", path, "--expect", "puso")[0] == 1


def test_check_naive_mode_reports_witness(tmp_path, capsys):
    path = write_uso(tmp_path, "tp.uso", TWIN_PEAK)
    code, out, _ = run(capsys, "check", path, "--mode", "naive")
    assert code == 0
    assert "verdict: PUSO" in out
    assert "witness: 00 11" in out
    assert "puso-face: 00 11" in out


def test_check_not_orientation(tmp_path, capsys):
    path = write_uso(tmp_path, "bad.uso", (0, 0, 2, 3))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "verdict: NotOrientation" in out


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(emit_uso(klee_minty(2))))
    code, out, _ = run(capsys, "check", "-", "--expect", "uso")
    assert code == 0


def test_input_that_is_not_utf8_exits_3(tmp_path, capsys, monkeypatch):
    data = emit_uso(klee_minty(2)).encode().replace(b"11", b"1\xff")
    path = tmp_path / "bad.uso"
    path.write_bytes(data)
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    for source in (str(path), "-"):
        code, out, err = run(capsys, "check", source)
        assert (code, out) == (3, "")
        assert err.startswith("error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff")


def test_class_json_fields(tmp_path, capsys):
    path = write_uso(tmp_path, "km.uso", KM_3)
    code, out, _ = run(capsys, "class", path)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert data["verdict"] == "USO"
    assert data["uso"] is True
    assert data["border"] is False
    assert data["odd"] is True
    assert data["parity"] is None
    assert data["sinks"] == ["000"]
    assert data["pair_evals"] > 19


def test_class_json_on_puso(tmp_path, capsys):
    path = write_uso(tmp_path, "tp.uso", TWIN_PEAK)
    data = json.loads(run(capsys, "class", path)[1])
    assert data["verdict"] == "PUSO"
    assert data["parity"] == "even"
    assert data["border"] is None
    assert sorted(data["sinks"]) == ["00", "11"]


def test_dual_round_trip(tmp_path, capsys):
    path = write_uso(tmp_path, "b.uso", BORDER_3)
    code, out, _ = run(capsys, "dual", path)
    assert code == 0
    assert parse_uso(out).values == KM_3


def test_dual_rejects_non_bijective(tmp_path, capsys):
    path = write_uso(tmp_path, "tp.uso", TWIN_PEAK)
    code, _, err = run(capsys, "dual", path)
    assert code == 1
    assert "bijective" in err


def _random_cycle(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    mapping = [0] * n
    for k in range(n):
        mapping[order[k] - 1] = order[(k + 1) % n]
    return CyclicPermutation(tuple(mapping))


def _edge_flipped(phi, rng):
    """Reverse one edge of a USO so that a 2-face through it loses its unique sink."""
    while True:
        v = rng.randrange(1 << phi.n)
        e, f = (1 << pos for pos in rng.sample(range(phi.n), 2))
        values = list(phi.values)
        values[v] ^= e
        values[v ^ e] ^= e
        a, span = v & ~(e | f), e | f
        if not (values[a] ^ values[a | span]) & span or not (values[a | e] ^ values[a | f]) & span:
            return Outmap(phi.n, tuple(values))


def _broken_function(n, rng):
    """A random function whose edge {0, 1} is outgoing at both ends or at neither."""
    values = [rng.getrandbits(n) for _ in range(1 << n)]
    values[1] = values[1] & ~1 | values[0] & 1
    return Outmap(n, tuple(values))


def _pinned_inputs():
    rng = random.Random(20171)
    made = []
    for n in range(1, 13):
        made.append(flip(klee_minty(n), rng.getrandbits(n)))
        made.append(_broken_function(n, rng))
        if n >= 2:
            made.append(flip(cyclic_puso(n, _random_cycle(n, rng)), rng.getrandbits(n)))
        if n >= 3:
            made.append(_edge_flipped(flip(klee_minty(n), rng.getrandbits(n)), rng))
    for _ in range(3):
        made.append(flip(odd_family(4, rng.getrandbits(1)), rng.getrandbits(3)))
        made.append(flip(odd_family(8, rng.getrandbits(16)), rng.getrandbits(7)))
    for n in range(1, 5):
        for _ in range(2):
            phi = random_uso(n, rng)
            made += [phi, dual(phi)]
    made.append(Outmap(2, TWIN_PEAK))  # not bijective: dual exits 1 naming the pair
    return made


def test_class_check_dual_outputs_are_pinned(tmp_path, capsys):
    """stdout, stderr and exit code of class, check and dual on seeded inputs, n = 1..12."""
    inputs = _pinned_inputs()
    assert len(inputs) == 68
    digest = hashlib.sha256()
    for k, phi in enumerate(inputs):
        path = tmp_path / f"{k}.uso"
        path.write_text(emit_uso(phi), encoding="utf-8")
        for command in ("class", "check", "dual"):
            code, out, err = run(capsys, command, str(path))
            digest.update(f"{k} {command} {code}\n{out}\0{err}\0".encode())
    assert digest.hexdigest() == (
        "cf5cfe49cf6f0a8078ca2b5128b8576716dbb7e88dd59dec217152e7b47d3106"
    )


# ---------------------------------------------------------------------------
# generators


def test_gen_km_matches_library(capsys):
    code, out, _ = run(capsys, "gen", "km", "--n", "4")
    assert code == 0
    assert parse_uso(out) == klee_minty(4)


def test_gen_cyclic_with_permutation(capsys):
    code, out, _ = run(capsys, "gen", "cyclic", "--n", "3", "--perm", "3,1,2")
    assert code == 0
    assert is_puso(parse_uso(out))


def test_gen_cyclic_rejects_non_cycle(capsys):
    code, _, err = run(capsys, "gen", "cyclic", "--n", "3", "--perm", "1,3,2")
    assert code == 2
    assert "cycle" in err


def test_gen_extend_and_complement(tmp_path, capsys):
    bow_path = write_uso(tmp_path, "bow.uso", (0, 1, 3, 2))
    code, out, _ = run(capsys, "gen", "extend", bow_path, "--bit", "0")
    assert code == 0
    assert parse_uso(out).values == (0, 5, 3, 6, 6, 3, 5, 0)

    km_path = write_uso(tmp_path, "km.uso", KM_3)
    code, out, _ = run(capsys, "gen", "complement", km_path, "--vertex", "000")
    assert code == 0
    assert parse_uso(out).values == (7, 0, 1, 2, 3, 6, 4, 5)


def test_gen_extend_refuses_a_20_cube_from_its_header_line(capsys, monkeypatch):
    """The header decides the 21-dimensional result: the malformed body is never parsed."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("20\n0\n"))
    code, out, err = run(capsys, "gen", "extend", "-", "--bit", "0")
    assert (code, out) == (3, "")
    assert "dimension 21 exceeds the cap of 20" in err


def test_gen_complement_bad_vertex(tmp_path, capsys):
    # a malformed option value is a usage error (exit 2), as for gen flip --coords
    km_path = write_uso(tmp_path, "km.uso", KM_3)
    for vertex in ("00", "012"):
        code, _, err = run(capsys, "gen", "complement", km_path, "--vertex", vertex)
        assert code == 2
        assert "vertex" in err


def test_gen_family_and_codeword_listing(capsys):
    code, out, _ = run(capsys, "gen", "family", "--n", "4", "--selector", "1")
    assert code == 0
    assert is_odd(parse_uso(out))[0]
    code, out, _ = run(capsys, "gen", "family", "--n", "4", "--list-codewords")
    assert code == 0
    assert out.splitlines() == ["000", "111"]


def test_gen_flip(tmp_path, capsys):
    path = write_uso(tmp_path, "bow.uso", (0, 1, 3, 2))
    code, out, _ = run(capsys, "gen", "flip", path, "--coords", "1,2")
    assert code == 0
    assert parse_uso(out).values == (3, 2, 0, 1)


@pytest.mark.parametrize(
    "coords, text",
    [
        ("99999999999999999999999", "coordinates are numbered 1..20, got 99999999999999999999999"),
        ("100000000", "coordinates are numbered 1..20, got 100000000"),
        ("4", "flip set 0b1000 uses coordinates beyond 1..3"),
    ],
    ids=["huge", "past-max-dim", "off-the-3-cube"],
)
def test_gen_flip_refuses_coordinates_off_the_cube_in_one_line(tmp_path, capsys, coords, text):
    """A coordinate past MAX_DIM is refused before a mask of that many bits is built."""
    path = write_uso(tmp_path, "km3.uso", KM_3)
    code, out, err = run(capsys, "gen", "flip", path, "--coords", coords)
    assert (code, out, err) == (2, "", f"error: {text}\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (("km", "--n", "21"), 3, "dimension 21 exceeds"),
        (("cyclic", "--n", "21"), 3, "dimension 21 exceeds"),
        (("family", "--n", "32"), 3, "dimension 31 exceeds"),
        (("family", "--n", "32", "--list-codewords"), 3, "dimension 31 exceeds"),
        (("km", "--n", "-1"), 2, "dimension -1 is negative"),
    ],
)
def test_gen_refuses_bad_dimensions_up_front(capsys, argv, code, text):
    """Refused before any value is built: family 32 would loop over 2**26 data words."""
    got, out, err = run(capsys, "gen", *argv)
    assert (got, out) == (code, "")
    assert text in err


# ---------------------------------------------------------------------------
# count


def test_count_text_table(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "uso", "puso", "border", "odd"]
    assert lines[-1].split() == ["3", "744", "16", "112", "112"]


def test_count_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_n"] == 4
    row4 = data["rows"][4]
    assert row4["uso"] is None           # opt-in not requested
    assert row4["puso"] == "224"
    assert row4["odd"] == "12928"


def test_count_rejects_unknown_opt_in(capsys):
    code, _, err = run(capsys, "count", "--max-n", "3", "--opt-in", "cake")
    assert code == 2
    assert "opt-in" in err


def test_count_rejects_opt_in_above_max_n(capsys):
    code, out, err = run(capsys, "count", "--max-n", "3", "--opt-in", "odd5")
    assert code == 2
    assert out == ""
    assert "odd5" in err and "max_n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--max-n", "-1"),
        ("enumerate", "--class", "uso", "--n", "-1"),
        ("orbits", "--class", "odd", "--n", "-2"),
    ],
)
def test_negative_dimensions_are_usage_errors(capsys, argv):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (2, "")
    assert f"dimension {argv[-1]} is negative" in err


def test_count_beyond_scope(capsys):
    assert run(capsys, "count", "--max-n", "6")[0] == 3


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    """numpy's _ArrayMemoryError is a MemoryError; the CLI maps it to exit 3."""
    path = write_uso(tmp_path, "km.uso", klee_minty(3).values)

    def exhausted(phi, counter=None):
        raise MemoryError("Unable to allocate 4.00 GiB for an array")

    monkeypatch.setattr(cli, "classify", exhausted)
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (3, "")
    assert err == "error: out of memory: Unable to allocate 4.00 GiB for an array\n"


def test_count_has_no_job_count(capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        main(["count", "--max-n", "2", "--jobs", "2"])
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    code, plain, _ = run(capsys, "count", "--max-n", "2")
    assert code == 0
    monkeypatch.setenv("USO_KIT_JOBS", "abc")
    assert run(capsys, "count", "--max-n", "2") == (0, plain, "")
    with pytest.raises(ValueError):
        count_table(3, (), 2)


# ---------------------------------------------------------------------------
# orbits / enumerate / dot


def test_orbits_of_builtin_class(capsys):
    code, out, _ = run(capsys, "orbits", "--class", "uso", "--n", "2")
    assert code == 0
    assert out.strip() == "orbits: 2"


def test_orbits_show_representatives(capsys):
    code, out, _ = run(capsys, "orbits", "--class", "puso", "--n", "3", "--show")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orbits: 2"
    reps = read_outmap_stream("\n".join(lines[1:]) + "\n")
    assert len(reps) == 2
    assert all(is_puso(phi) for phi in reps)


def test_orbits_from_files(tmp_path, capsys):
    # an eye and a bow in one stream, plus the same eye again from a second file
    stream = emit_uso(Outmap(2, EYE)) + "\n" + emit_uso(Outmap(2, (0, 1, 3, 2)))
    path = tmp_path / "pair.uso"
    path.write_text(stream, encoding="utf-8")
    single = write_uso(tmp_path, "one.uso", EYE)
    code, out, _ = run(capsys, "orbits", str(path), single)
    assert code == 0
    assert out.strip() == "orbits: 2"


def test_orbits_of_a_dimension_five_stream(tmp_path, capsys):
    """n = 5 streams reduce in batches; each record's orbit is its canonical_form."""
    rng = random.Random(55)
    records = [random_puso(5, rng) for _ in range(12)]
    records += [flip(phi, 0b10110) for phi in records[:4]] + [klee_minty(5)]
    path = tmp_path / "five.uso"
    path.write_text("".join(emit_uso(phi) for phi in records), encoding="utf-8")
    code, out, _ = run(capsys, "orbits", str(path), "--show")
    assert code == 0
    bodies = sorted({canonical_form(phi).body for phi in records})
    assert out == f"orbits: {len(bodies)}\n" + "".join(f"5\n{body.decode()}" for body in bodies)


def test_orbits_requires_input(capsys):
    assert run(capsys, "orbits")[0] == 2


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
def test_orbits_of_no_records_is_malformed_input(text, capsys, monkeypatch):
    """Empty or blank-only input exits 3, as check - on it does."""
    for cmd in ("orbits", "check"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, cmd, "-")
        assert (code, out) == (3, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "orbits", "-")[2] == "error: no outmaps found in input\n"


def test_orbits_of_mixed_dimensions_is_malformed_input(tmp_path, capsys, monkeypatch):
    """Exit 3 naming the first record whose dimension differs from record 1's; records
    count across files.  The library keeps its ValueError."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n0\n1\n2\n00\n10\n11\n01\n"))
    err = "error: orbits need one common dimension: record 2 has dimension 2, record 1 has 1\n"
    assert run(capsys, "orbits", "-") == (3, "", err)
    first = write_uso(tmp_path, "km.uso", KM_3)
    second = tmp_path / "two.uso"
    second.write_text(emit_uso(klee_minty(3)) + emit_uso(klee_minty(2)), encoding="utf-8")
    err = "error: orbits need one common dimension: record 3 has dimension 2, record 1 has 3\n"
    assert run(capsys, "orbits", first, str(second)) == (3, "", err)
    with pytest.raises(ValueError, match="one common dimension"):
        orbit_representatives([klee_minty(1), klee_minty(2)])


def test_orbits_class_refuses_files(capsys):
    code, out, err = run(capsys, "orbits", "/no/such/file.uso", "--class", "uso", "--n", "2")
    assert code == 2
    assert out == ""
    assert "--class" in err


def test_orbits_n_needs_class(tmp_path, capsys):
    path = write_uso(tmp_path, "km.uso", KM_3)
    code, out, err = run(capsys, "orbits", path, "--n", "4")
    assert code == 2
    assert out == ""
    assert "--n needs --class" in err


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "puso", "--n", "2")
    assert code == 0
    outmaps = read_outmap_stream(out)
    assert len(outmaps) == 4
    assert all(is_puso(phi) for phi in outmaps)


def test_enumerate_uso_3_stream_is_pinned(capsys):
    """The 744 3-USOs in edge-word order, byte for byte (sha256 of the stream)."""
    code, out, _ = run(capsys, "enumerate", "--class", "uso", "--n", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1156a668b1aa7e252ed3dd14de3df08e987a7e8044d4f237f077711346c46a89"
    )


def test_enumerate_to_directory(tmp_path, capsys):
    outdir = tmp_path / "usos"
    code, out, _ = run(capsys, "enumerate", "--class", "uso", "--n", "2", "--out", str(outdir))
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert len(files) == 12
    assert files[0] == "uso2_00.uso"
    assert files[-1] == "uso2_11.uso"
    first = parse_uso((outdir / files[0]).read_text(encoding="utf-8"))
    assert first.n == 2


def test_enumerate_refuses_large_materialization(capsys):
    code, _, err = run(
        capsys, "enumerate", "--class", "odd", "--n", "5", "--out", "/tmp/x", "--allow-large"
    )
    assert code == 2


def test_enumerate_large_needs_flag(capsys):
    assert run(capsys, "enumerate", "--class", "odd", "--n", "5")[0] == 3


def test_dot_export(tmp_path, capsys):
    path = write_uso(tmp_path, "km.uso", KM_3)
    code, out, _ = run(capsys, "dot", path)
    assert code == 0
    assert out.startswith("digraph cube {")
    assert out.count("->") == 3 * 2**2      # n * 2**(n-1) arcs
    assert out.count("label=") == 8
    assert 'v0 [label="000"];' in out


def test_dot_rejects_non_orientation(tmp_path, capsys):
    path = write_uso(tmp_path, "bad.uso", (0, 0, 2, 3))
    code, _, err = run(capsys, "dot", path)
    assert code == 1
    assert "edge" in err


def test_dot_names_both_endpoints_of_the_inconsistent_edge(tmp_path, capsys):
    # the coordinate-3 edge at 000 leaves both of its endpoints, 000 and 001
    values = list(klee_minty(3).values)
    values[0] |= 0b100
    code, _, err = run(capsys, "dot", write_uso(tmp_path, "bad.uso", values))
    assert code == 1
    assert "edge between 000 and 001 is not consistently directed" in err


# ---------------------------------------------------------------------------
# plumbing


def test_format_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.uso"
    path.write_text("2\n0x\n10\n01\n11\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "line 2" in err


def test_missing_file_exit(capsys):
    assert run(capsys, "check", "/no/such/file.uso")[0] == 3


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_read_outmap_stream_reports_record(capsys):
    with pytest.raises(Exception) as err:
        read_outmap_stream("2\n00\n10\n01\n11\nbogus\n")
    assert "record 2" in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n00\n1x\n01\n11\n", "record 1: line 3: invalid character 'x'"),
        (
            "1\n0\n1\n2\n00\n10\n",
            "record 2: line 4: expected 4 vertex lines for dimension 2, got 2",
        ),
        ("1\n0\n11\n", "record 1: line 3: expected exactly 1 characters, got 2"),
        ("30\n", "record 1: line 1: dimension 30 outside 0..20"),
        ("1\n0\n1\nbogus\n", "record 2: line 1: expected a decimal dimension, got 'bogus'"),
        ("0\n1\n", "record 1: line 2: expected exactly 0 characters, got 1"),
        ("1\n0\n1\n\n\n1\n1\n \n", "record 2: line 3: invalid character ' '"),
        ("2\r\n00\r\n10\r\n01\r\n1\u0661\r\n", "record 1: line 5: invalid character '\u0661'"),
        # above n = 10 rows skip the line table
        (
            "11\n" + "0" * 11 + "\n" + ("1" * 10 + "2\n") * 2047,
            "record 1: line 3: invalid character '2'",
        ),
        (
            "11\n" + "0" * 12 + "\n" + ("0" * 11 + "\n") * 2047,
            "record 1: line 2: expected exactly 11 characters, got 12",
        ),
        # a short row next to a long one: the total length is right
        (
            "11\n" + ("0" * 11 + "\n") * 5 + "0" * 10 + "\n" + "0" * 12 + "\n"
            + ("0" * 11 + "\n") * 2041,
            "record 1: line 7: expected exactly 11 characters, got 10",
        ),
        (
            "11\n" + ("0" * 11 + "\n") * 3 + "0" * 10 + "\u0661\n" + ("0" * 11 + "\n") * 2044,
            "record 1: line 5: invalid character '\u0661'",
        ),
        (
            "11\r\n" + ("0" * 11 + "\r\n") * 2046 + "0" * 10 + "x\r\n" + "0" * 11 + "\r\n",
            "record 1: line 2048: invalid character 'x'",
        ),
    ],
)
def test_read_outmap_stream_error_texts(text, message):
    """Each malformed record is named by its index and its line within the record."""
    with pytest.raises(FormatError) as err:
        read_outmap_stream(text)
    assert str(err.value) == message


@given(st.lists(st.tuples(st.integers(0, 2), outmaps(4)), max_size=6), st.integers(0, 2))
@settings(max_examples=100)
def test_read_outmap_stream_round_trips_records_and_blank_lines(records, trailing):
    """Emitted records with 0-2 blank lines before each and after the last parse back."""
    text = "".join("\n" * blanks + emit_uso(phi) for blanks, phi in records) + "\n" * trailing
    assert read_outmap_stream(text) == [phi for _, phi in records]


def test_read_outmap_stream_rejects_huge_dimension_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            read_outmap_stream("1000000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "record 1" in str(err.value)
    assert peak < 1 << 20


def _module_env():
    """The environment of a fresh interpreter that imports the package imported here."""
    src = str(Path(uso_kit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _module_run(*argv, **kwargs):
    """Run the command line in a fresh interpreter on the package imported here."""
    return subprocess.run(
        [sys.executable, "-m", "uso_kit", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        **kwargs,
    )


def test_reader_closing_the_pipe_early_exits_141_quietly():
    """`uso-kit enumerate ... | head`: a closed stdout is no input error (exit 3) but
    ends the writer as SIGPIPE would (128 + 13), with nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "uso_kit", "enumerate", "--class", "odd", "--n", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_module_env(),
    )
    # one record of 17 lines; the other 12927 (about 1 MB) overflow the pipe's buffer
    record = [proc.stdout.readline() for _ in range(17)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == ""
    assert record[0] == "4\n" and all(len(line) == 5 for line in record[1:])


def test_console_script_round_trip():
    gen = _module_run("gen", "km", "--n", "3")
    assert gen.returncode == 0
    check = _module_run("check", "-", "--expect", "uso", input=gen.stdout)
    assert check.returncode == 0
    assert "verdict: USO" in check.stdout


def test_console_script_version():
    proc = _module_run("--version")
    assert proc.returncode == 0
    assert "uso-kit" in proc.stdout


def test_console_script_target_is_callable():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = re.search(r'^uso-kit = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M)
    assert target is not None
    assert callable(getattr(importlib.import_module(target[1]), target[2]))


def test_all_lists_exactly_the_public_names():
    """__all__ and the package's public non-module bindings stay one list."""
    bound = {
        name
        for name, obj in vars(uso_kit).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(uso_kit.__all__) == bound
    assert len(uso_kit.__all__) == len(bound)


# ---------------------------------------------------------------------------
# refusals that no other test reaches


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: complementary_vertex(klee_minty(3), 4, FaceSpec(0, 3)), ValueError,
         "vertex 0b100 lies outside the face"),
        (lambda: cyclic_puso(4, CyclicPermutation.shift(3)), ValueError,
         "cycle length 3 does not match dimension 4"),
        (lambda: extend_border(klee_minty(2), 2), ValueError, "bit must be 0 or 1"),
        (lambda: is_complementable(klee_minty(2), 4), ValueError,
         "vertex 0b100 lies outside the cube"),
        (lambda: induced_outmap(klee_minty(2), FaceSpec(0, 4)), ValueError,
         "face does not fit inside the cube"),
        (lambda: list(enumerate_pusos(4)), ResourceLimitError,
         "exhaustive PUSO enumeration is capped at n = 3"),
        (lambda: random_odd(5, random.Random(0)), ResourceLimitError,
         "odd USO lists are materialized up to n = 4 only"),
        (lambda: random_uso(5, random.Random(0)), ResourceLimitError,
         "random USOs are supported for n <= 4"),
        (lambda: sys.exit(main(["orbits", "--class", "uso"])), SystemExit, "--class needs --n"),
    ],
    ids=[
        "complementary_vertex", "cyclic_puso", "extend_border", "is_complementable",
        "induced_outmap", "enumerate_pusos", "random_odd", "random_uso", "orbits",
    ],
)
def test_refusals_name_their_type_and_reason(capsys, call, error, text):
    """The CLI case is a usage error: exit 2, its reason on stderr."""
    with pytest.raises(error) as got:
        call()
    if error is SystemExit:
        assert got.value.code == 2 and text in capsys.readouterr().err
    else:
        assert str(got.value) == text
