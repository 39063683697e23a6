"""A seeded contract corpus for the subcommands that read .uso input, pinned byte for byte.

The corpus runs about 160 calls of check, class, dual, gen extend|complement|flip
and orbits through cli.main, in process.  Their inputs are .uso texts of
Klee-Minty cubes, flipped cubes, duals, odd and border USOs, cyclic PUSOs and
non-orientations at n = 0..12, each mutated in one seeded way: CRLF line ends,
a missing final newline, a rewritten dimension line, a vertical tab, file
separator, BOM or non-UTF-8 byte, a replaced, deleted or truncated part, a
doubled body or a trailing blank line.  Half of the inputs come through stdin,
which sees CRLF as written, and half through files, which read it as LF.  Each
dimension line of HEADERS also goes once through check - on a 3-cube's body.

Every call keeps the exit-code contract of uso_kit.cli, and one sha256 over
(argv, exit code, stdout, stderr) of the whole corpus is pinned.  A change
that alters an output on purpose re-pins the digest and says why.
"""

import hashlib
import io
import random
import sys

from uso_kit import (
    Outmap,
    cyclic_puso,
    dual,
    emit_uso,
    flip,
    klee_minty,
    odd_family,
    parse_uso,
    random_odd,
)
from uso_kit.cli import main
from uso_kit.cube import read_outmap_stream

CORPUS_SHA256 = "4d6365244cb06d2687142818e8f4c847e4ceb6cb43d8e7fabbf6d35788f8e58c"

# dimension lines that int() or strip() might read differently from the format
HEADERS = ("{n} ", " {n}", "0{n}", "020", "+{n}", "\uff13", "21", "-1", "1" + "0" * 20, "5" * 5000)


def _mutate(text: str, rng: random.Random) -> str:
    """The text with one seeded mutation, or unchanged: two in five stay well-formed."""
    head, _, body = text.partition("\n")
    kind = rng.choice((0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 6, 6, 7, 8, 9, 10, 11, 12, 13, 13))
    at = rng.randrange(len(text))
    if kind == 0:
        return text
    if kind == 1:
        return text.replace("\n", "\r\n")
    if kind == 2:
        return text[:-1]
    if kind == 3:
        return rng.choice(HEADERS).format(n=head) + "\n" + body
    if kind == 4:
        return text[:at] + rng.choice("\x0b\x1c") + text[at:]
    if kind == 5:
        return "\ufeff" + text
    if kind == 6:  # a digit turned over, which keeps the record well-formed
        at = text.find("0", len(head) + 1)
        return text if at < 0 else text[:at] + "1" + text[at + 1 :]
    if kind == 7:
        return text[:at] + rng.choice("2x ") + text[at + 1 :]
    if kind == 8:
        return text[:at]
    if kind == 9:
        return text + body
    if kind == 10:
        return text + "\n"
    if kind == 11:
        return text[:at] + text[at + 1 :]
    if kind == 12:
        return rng.choice(("0\n", "0\n\n", "0\n\n\n", "1\n0\n1", "\n" + text))
    return head + "\n" + body.replace("\n", "\n\n", 1)


def _subjects(rng: random.Random) -> list[Outmap]:
    """Seeded outmaps at n = 0..12: USOs, duals, odd and border USOs, PUSOs and others."""
    out = []
    for n in range(13):
        km = klee_minty(n)
        out.append(flip(km, rng.getrandbits(n)) if n else km)
        out.append(dual(out[-1]) if n % 2 else Outmap(n, [rng.getrandbits(n) for _ in km.values]))
    out += [odd_family(4, 1), dual(odd_family(4, 2)), dual(random_odd(3, rng))]
    out += [cyclic_puso(n) for n in (3, 4, 5, 8)]
    return out


def _calls(rng: random.Random):
    """(argv, input text) pairs; argv names its input file, or - for stdin."""
    subjects = _subjects(rng)
    for k in range(126):
        phi = subjects[k % len(subjects)]
        n = phi.n
        text = _mutate(emit_uso(phi), rng)
        vertex = "".join(rng.choice("01") for _ in range(n)) if rng.random() < 0.8 else "0" * (n + 1)
        coords = ",".join(str(rng.randrange(1, n + 2)) for _ in range(rng.randrange(3)))
        command = [
            ["check", "{}"],
            ["check", "{}", "--expect", rng.choice(("uso", "puso"))],
            ["check", "{}", "--mode", "naive"] if n <= 6 else ["check", "{}"],
            ["class", "{}"],
            ["dual", "{}"],
            ["gen", "extend", "{}", "--bit", rng.choice("01")],
            ["gen", "complement", "{}", "--vertex", vertex],
            ["gen", "flip", "{}", "--coords", coords],
        ][k % 8]
        yield command, text
    for k in range(24):
        n = rng.randrange(5)
        records = [_subjects_of(n, rng) for _ in range(rng.randrange(1, 5))]
        text = "".join(("\n" if rng.random() < 0.3 else "") + emit_uso(phi) for phi in records)
        yield ["orbits", "{}"] + (["--show"] if k % 3 == 0 else []), _mutate(text, rng)


def _subjects_of(n: int, rng: random.Random) -> Outmap:
    """A seeded n-dimensional outmap for the orbits streams."""
    if rng.random() < 0.2:
        return Outmap(n, [rng.getrandbits(n) for _ in range(1 << n)])
    return flip(klee_minty(n), rng.getrandbits(n))


def _written_uso_parses_back(argv, out):
    if argv[0] == "dual" or argv[0] == "gen":
        parse_uso(out)
    elif argv[0] == "orbits" and "--show" in argv:
        read_outmap_stream(out.partition("\n")[2])


def _run(argv, capsys, digest):
    """One call through cli.main, held to the exit-code contract and added to the digest."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    mismatch = code == 1 and "--expect" in argv and not err
    if code and not mismatch:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if code == 0:
        assert not err, (argv, err)
        _written_uso_parses_back(argv, out)
    digest.update(repr((argv, code, out, err)).encode())


def test_cli_corpus_keeps_the_exit_code_contract_and_its_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(19)
    digest = hashlib.sha256()
    for k, (argv, text) in enumerate(_calls(rng)):
        if k % 2:
            source = f"in{k}.uso"
            data = text.encode()
            if rng.random() < 0.1:  # a byte that no UTF-8 text holds
                at = rng.randrange(len(data) + 1)
                data = data[:at] + b"\xff" + data[at:]
            (tmp_path / source).write_bytes(data)
        else:
            source = "-"
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        _run([part.format(source) for part in argv], capsys, digest)
    # each dimension line of HEADERS once on a 3-cube's body: the seeded mutations draw none
    # of the lines longer than 2 characters
    body = emit_uso(klee_minty(3)).partition("\n")[2]
    for header in HEADERS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(header.format(n=3) + "\n" + body))
        _run(["check", "-"], capsys, digest)
    for argv in (["check", "missing.uso"], ["dual", "."], ["orbits", "missing.uso"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3 and not out and err.startswith("error: ") and err.count("\n") == 1
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == CORPUS_SHA256
