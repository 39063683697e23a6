"""Command line front end.

Subcommands operate on the .uso text format (see uso_kit.cube); every FILE
argument accepts "-" for stdin and results go to stdout.  Exit codes:

* 0  the command ran and the answer, if any, was affirmative
* 1  the input was well-formed but the mathematical answer is no: a failed
     --expect check, or an operation whose precondition the input violates
     (not bijective, not a USO, not an orientation, vertex not
     complementable, ...)
* 2  usage errors: unknown flags, malformed option values
* 3  unreadable, malformed or non-UTF-8 input files, or a request beyond
     the supported resource limits or the memory available
* 141  the reader closed stdout early (`| head`), as SIGPIPE would end a writer
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classes import dual, is_border, is_odd, puso_parity
from .constructions import (
    CyclicPermutation,
    _check_dimension,
    complement_vertex,
    cyclic_puso,
    extend_border,
    flip,
    hamming_codewords,
    klee_minty,
    odd_family,
)
from .cube import (
    MAX_DIM,
    Outmap,
    emit_uso,
    face_sinks,
    mask_from_coords,
    parse_uso,
    read_outmap_stream,
    value_line,
)
from .enumeration import (
    count_table,
    enumerate_class,
    orbit_representatives,
)
from .errors import (
    FormatError,
    NotAnOrientationError,
    ResourceLimitError,
    UsoKitError,
)
from .recognition import (
    PairEvalCounter,
    Verdict,
    classify,
    is_orientation,
    is_uso_naive,
)


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8: {exc}") from None


def _read_outmap(path: str) -> Outmap:
    return parse_uso(_read_text(path))


def _parse_vertex(text: str, n: int) -> int:
    """Vertex bitstring in .uso line convention: char i-1 is coordinate i."""
    if len(text) != n or any(ch not in "01" for ch in text):
        raise ValueError(f"vertex must be {n} characters over 0/1, got {text!r}")
    return sum(1 << pos for pos, ch in enumerate(text) if ch == "1")


def _emit(phi: Outmap) -> int:
    sys.stdout.write(emit_uso(phi))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    phi = _read_outmap(args.file)
    counter = PairEvalCounter()
    if args.mode == "naive":
        report = is_uso_naive(phi, counter)
    else:
        report = classify(phi, counter)
    print(f"n: {phi.n}")
    print(f"verdict: {report.verdict.value}")
    if report.witness is not None:
        u, v = report.witness
        print(f"witness: {value_line(u, phi.n)} {value_line(v, phi.n)}")
    if report.puso_face is not None:
        face = report.puso_face
        print(f"puso-face: {value_line(face.lower, phi.n)} {value_line(face.upper, phi.n)}")
    print(f"pair-evals: {counter.count}")
    if args.expect is not None:
        want = Verdict.USO if args.expect == "uso" else Verdict.PUSO
        return 0 if report.verdict is want else 1
    return 0


def _cmd_class(args) -> int:
    phi = _read_outmap(args.file)
    counter = PairEvalCounter()
    report = classify(phi, counter)
    verdict = report.verdict
    out = {
        "n": phi.n,
        "verdict": verdict.value,
        "orientation": verdict is not Verdict.NOT_ORIENTATION,
        "uso": verdict is Verdict.USO,
        "puso": verdict is Verdict.PUSO,
        "border": None,
        "odd": None,
        "parity": None,
        "sinks": [value_line(v, phi.n) for v in face_sinks(phi)],
        "pair_evals": 0,
    }
    if verdict is Verdict.USO:
        out["border"] = is_border(phi, counter)[0]
        out["odd"] = is_odd(phi, counter)[0]
    elif verdict is Verdict.PUSO:
        out["parity"] = puso_parity(phi, counter).value
    out["pair_evals"] = counter.count
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dual(args) -> int:
    return _emit(dual(_read_outmap(args.file)))


def _cmd_gen_km(args) -> int:
    return _emit(klee_minty(args.n))


def _cmd_gen_cyclic(args) -> int:
    perm = None if args.perm is None else CyclicPermutation.parse(args.perm)
    return _emit(cyclic_puso(args.n, perm))


def _cmd_gen_extend(args) -> int:
    text = _read_text(args.file)
    if text.partition("\n")[0].strip() == str(MAX_DIM):  # refused before the body is parsed
        _check_dimension(MAX_DIM + 1)
    return _emit(extend_border(parse_uso(text), args.bit))


def _cmd_gen_complement(args) -> int:
    phi = _read_outmap(args.file)
    return _emit(complement_vertex(phi, _parse_vertex(args.vertex, phi.n)))


def _cmd_gen_family(args) -> int:
    if args.list_codewords:
        words = hamming_codewords(args.n)
        for word in words.words:
            print(value_line(word, words.block_length))
        return 0
    return _emit(odd_family(args.n, args.selector))


def _cmd_gen_flip(args) -> int:
    phi = _read_outmap(args.file)
    coords = tuple(int(part) for part in args.coords.split(",") if part)
    return _emit(flip(phi, mask_from_coords(coords)))


def _cmd_count(args) -> int:
    opts = tuple(part for part in (args.opt_in or "").split(",") if part)
    table = count_table(args.max_n, opts)

    def cell(value):
        return None if value is None else str(value)

    if args.json:
        payload = {
            "max_n": table.max_n,
            "opt_in": sorted(set(opts)),
            "rows": [
                {
                    "n": n,
                    "uso": cell(row.uso),
                    "puso": cell(row.puso),
                    "border": cell(row.border),
                    "odd": cell(row.odd),
                }
                for n, row in enumerate(table.rows)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    headers = ("n", "uso", "puso", "border", "odd")
    grid = [headers]
    for n, row in enumerate(table.rows):
        grid.append(tuple(cell(v) or "-" for v in (n, row.uso, row.puso, row.border, row.odd)))
    widths = [max(len(line[col]) for line in grid) for col in range(len(headers))]
    for line in grid:
        print("  ".join(text.rjust(width) for text, width in zip(line, widths)))
    return 0


def _cmd_orbits(args) -> int:
    if args.cls is not None:
        if args.n is None:
            raise ValueError("--class needs --n")
        if args.files:
            raise ValueError("--class takes no input files")
        outmaps = enumerate_class(args.cls, args.n)
    elif args.n is not None:
        raise ValueError("--n needs --class")
    elif args.files:
        outmaps = [
            phi for path in args.files for phi in read_outmap_stream(_read_text(path))
        ]
        if not outmaps:
            raise FormatError("no outmaps found in input")
        k = next((k for k, phi in enumerate(outmaps) if phi.n != outmaps[0].n), 0)
        if k:
            dims = f"record {k + 1} has dimension {outmaps[k].n}, record 1 has {outmaps[0].n}"
            raise FormatError(f"orbits need one common dimension: {dims}")
    else:
        raise ValueError("provide input files or --class with --n")
    reps = orbit_representatives(outmaps)
    print(f"orbits: {len(reps)}")
    if args.show:
        for form in reps:
            sys.stdout.write(f"{form.n}\n{form.body.decode()}")
    return 0


def _cmd_enumerate(args) -> int:
    if args.out is not None and args.allow_large:
        raise ValueError("--out materializes the stream; it cannot combine with --allow-large")
    stream = enumerate_class(args.cls, args.n, args.allow_large)
    if args.out is None:
        for phi in stream:
            sys.stdout.write(emit_uso(phi))
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outmaps = list(stream)
    width = max(1, len(str(max(len(outmaps) - 1, 0))))
    for idx, phi in enumerate(outmaps):
        name = f"{args.cls}{args.n}_{idx:0{width}d}.uso"
        (outdir / name).write_text(emit_uso(phi), encoding="utf-8")
    print(f"wrote {len(outmaps)} files to {outdir}")
    return 0


def export_dot(phi: Outmap) -> str:
    """GraphViz digraph of an orientation: one node per vertex, one arc per edge."""
    ok, witness = is_orientation(phi)
    if not ok:
        v, i = witness  # the edge's lower endpoint and its coordinate
        raise NotAnOrientationError(
            f"edge between {value_line(v, phi.n)} and {value_line(v | 1 << (i - 1), phi.n)} "
            "is not consistently directed"
        )
    lines = ["digraph cube {", "  rankdir=BT;"]
    for v in range(1 << phi.n):
        lines.append(f'  v{v} [label="{value_line(v, phi.n)}"];')
    for v in range(1 << phi.n):
        for pos in range(phi.n):
            if not v >> pos & 1:
                w = v | 1 << pos
                tail, head = (v, w) if phi.values[v] >> pos & 1 else (w, v)
                lines.append(f"  v{tail} -> v{head};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_dot(args) -> int:
    sys.stdout.write(export_dot(_read_outmap(args.file)))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uso-kit",
        description="Construct, recognize, classify, and count unique sink orientations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify one outmap and optionally assert a verdict")
    p.add_argument("file", help=".uso file, or - for stdin")
    p.add_argument(
        "--mode",
        choices=("fast", "naive"),
        default="fast",
        help="fast: one antipodal pair per face; naive: scan all vertex pairs",
    )
    p.add_argument(
        "--expect",
        choices=("uso", "puso"),
        help="exit 1 unless the verdict matches",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("class", help="full classification report as JSON")
    p.add_argument("file", help=".uso file, or - for stdin")
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("dual", help="emit the dual of a bijective outmap")
    p.add_argument("file", help=".uso file, or - for stdin")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gen", help="emit a constructed outmap")
    gen = p.add_subparsers(dest="generator", required=True)

    g = gen.add_parser("km", help="decreasing-path USO of dimension n")
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(func=_cmd_gen_km)

    g = gen.add_parser("cyclic", help="PUSO from a cyclic coordinate permutation")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--perm", help="images of 1..n, comma separated (default: shift)")
    g.set_defaults(func=_cmd_gen_cyclic)

    g = gen.add_parser("extend", help="double a border USO into a PUSO one dimension up")
    g.add_argument("file", help=".uso file, or - for stdin")
    g.add_argument("--bit", type=int, choices=(0, 1), required=True)
    g.set_defaults(func=_cmd_gen_extend)

    g = gen.add_parser("complement", help="reverse all edges at a complementable vertex")
    g.add_argument("file", help=".uso file, or - for stdin")
    g.add_argument("--vertex", required=True, help="vertex bitstring, leftmost = coordinate 1")
    g.set_defaults(func=_cmd_gen_complement)

    g = gen.add_parser("family", help="odd USO from codeword-selected complementations")
    g.add_argument("--n", type=int, required=True, help="a power of two >= 4")
    g.add_argument("--selector", type=int, default=0, help="codeword subset index")
    g.add_argument(
        "--list-codewords",
        action="store_true",
        help="print the complementable codewords instead of an outmap",
    )
    g.set_defaults(func=_cmd_gen_family)

    g = gen.add_parser("flip", help="reverse all edges along the given coordinates")
    g.add_argument("file", help=".uso file, or - for stdin")
    g.add_argument("--coords", required=True, help="coordinates, comma separated, e.g. 1,3")
    g.set_defaults(func=_cmd_gen_flip)

    p = sub.add_parser("count", help="exact class counts per dimension")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--opt-in", help="opt-in cells, comma separated: uso4,odd5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("orbits", help="count symmetry classes (vertex relabelings)")
    p.add_argument("files", nargs="*", help="concatenated .uso records, or - for stdin")
    p.add_argument("--class", dest="cls", choices=("uso", "puso", "odd", "border"))
    p.add_argument("--n", type=int)
    p.add_argument("--show", action="store_true", help="also print canonical representatives")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("enumerate", help="stream a full class as concatenated .uso records")
    p.add_argument("--class", dest="cls", required=True, choices=("uso", "puso", "odd", "border"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="directory: write one numbered .uso file per outmap")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="permit the long-running dimension-5 odd/border streams",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("dot", help="GraphViz export of an orientation")
    p.add_argument("file", help=".uso file, or - for stdin")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (`| head`), which is no input error: exit quietly, as a
        # writer SIGPIPE killed would (128 + 13), with stdout on devnull for the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FormatError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except UsoKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
