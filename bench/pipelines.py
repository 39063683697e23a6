"""Pipelines of the uso-kit benchmark: inputs, timed work and output checks.

Each pipeline calls the library in the order the matching `uso-kit`
subcommand handler calls it, in this single-threaded interpreter with
jobs=1, and times only that work, in laps of at most a few hundred
milliseconds where the calls allow it (see clock.py).  Input generation and
the output checks run outside the timed region.  A wrong output or an
exception counts as a failed operation.

    count      `uso-kit count --max-n 5 --opt-in uso4`: count_table from
               cold caches.
    filter     the odd(5) counting filter (_odd_successor_worker, which runs
               _valid_upper_mask) over seeded lower facets.
    stream     `uso-kit enumerate --class odd --n 5 --allow-large`: a fixed
               prefix of the stream, each record through emit_uso.
    recognize  accepts through the `class` + `dual` path (parse_uso,
               classify, face_sinks, is_border, is_odd, dual, emit_uso);
               rejects through the `check` path (parse_uso, classify).
    orbits     `uso-kit orbits -`: read_outmap_stream, then
               orbit_representatives per dimension (canonical_form per
               record at n = 5, where orbit_representatives stops).

The process pool behind --jobs is deliberately not measured: wall-clock
scaling on a small shared machine says nothing about the code.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from dataclasses import dataclass, field

from uso_kit import classes, cli, constructions, cube, enumeration, recognition
from uso_kit.errors import UsoKitError

from clock import NUMPY, lap

Verdict = recognition.Verdict

# The paper's count table (PAPER.md), rows n = 0..5 as (uso, puso, border,
# odd).  None marks the cells count_table(5, opt_in=("uso4",)) leaves open.
PAPER_TABLE = (
    (1, 0, 1, 1),
    (2, 0, 2, 2),
    (12, 4, 8, 8),
    (744, 16, 112, 112),
    (5541744, 224, 12928, 12928),
    (None, 25856, None, None),
)
USO3_ORBITS = 19
ODD4_ORBITS = 35
ODD4_COUNT = 12928

PIPELINES = ("count", "filter", "stream", "recognize", "orbits")

# Work per repetition.  A workload runs its own pipelines at FULL size for
# the whole time budget and every other pipeline at PROBE size, so that each
# run reports every end-to-end metric.  SMOKE is the self-test size.
FULL = {
    "count": (5, ("uso4",)),
    "filter": 40,  # lower facets
    "stream": 12000,  # records
    "recognize": (7, 8, 9, 10, 11, 12),  # dimensions
    "orbits": (1200, 40),  # odd(4) sample records, random_puso(5) records
}
PROBE = {
    "count": (5, ("uso4",)),
    "filter": 20,
    "stream": 3000,
    "recognize": (7, 8, 9, 10),
    "orbits": (400, 10),
}
SMOKE = {
    "count": (3, ()),
    "filter": 2,
    "stream": 200,
    "recognize": (7, 8),
    "orbits": (20, 1),
}
PROBE_REPS = {"count": 1, "filter": 6, "stream": 6, "recognize": 6, "orbits": 6}
FACETS_PER_LAP = 10
RECORDS_PER_LAP = 1000

# Dimensions whose face schedules the recognize warm-up builds.  The library
# caches schedules only up to n = 10 and rebuilds larger ones on every call,
# so warming n = 11, 12 would only add a constant to set-up.
RECOGNIZE_WARM_DIMS = (7, 8, 9, 10)


def _library_caches():
    """Every lru cache of the library, collected before any rebinding."""
    found = {}
    for module in (cube, recognition, classes, constructions, enumeration, cli):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return tuple(found.values())


_CACHES = _library_caches()


def clear_caches() -> None:
    """Drop every library cache, as a fresh `uso-kit` process starts."""
    for cache in _CACHES:
        cache.cache_clear()


def _edge_failing(n: int) -> cube.Outmap:
    """An outmap whose first edge is outgoing at neither endpoint."""
    return cube.Outmap(n, (0,) * (1 << n))


def warm_recognize() -> None:
    """Build the per-dimension face schedules classify and is_uso_fast use."""
    for n in RECOGNIZE_WARM_DIMS:
        phi = _edge_failing(n)
        recognition.classify(phi)
        recognition.is_uso_fast(phi)


def warm_orbits() -> None:
    """Build the symmetry tables the canonicaliser uses for n = 3..5."""
    for n in (3, 4, 5):
        enumeration.canonical_form(cube.Outmap(n, (0,) * (1 << n)))


def warm_up_workload(workload: str) -> None:
    """Set-up of a workload beyond the import: exhaustive warms nothing."""
    if workload == "recognize":
        warm_recognize()
    elif workload == "orbits":
        warm_orbits()


def rng_for(seed: int, pipeline: str, rep: int) -> random.Random:
    return random.Random(f"{seed}:{pipeline}:{rep}")


@contextlib.contextmanager
def phase(tracer, name: str):
    """A tracer phase span around timed work; nothing when untraced."""
    if tracer is None:
        yield
    else:
        with tracer.phase(name):
            yield


@contextlib.contextmanager
def unrecorded(tracer):
    """Checks and input preparation stay out of the trace."""
    if tracer is None:
        yield
    else:
        with tracer.paused():
            yield


class Checks:
    """Operations checked, and how many of them failed."""

    attempted = 0
    failed = 0

    def judge(self, ok: bool, what: str) -> None:
        """Record one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Outcome(Checks):
    """What one repetition of a pipeline did: timed seconds, answers, checks."""

    work_s: float = 0.0  # scaled seconds
    wall_s: float = 0.0
    metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    data: object = None


class Pools:
    """Whole classes the inputs are drawn from, built once per process."""

    def __init__(self) -> None:
        self.uso3 = [phi.values for phi in enumeration.enumerate_class("uso", 3)]
        odd3 = list(enumeration.enumerate_class("odd", 3))
        self.puso4 = [
            constructions.extend_border(classes.dual(phi), bit).values
            for phi in odd3
            for bit in (0, 1)
        ]
        self.odd4 = [phi.values for phi in enumeration.enumerate_class("odd", 4)]


def _relabel(n: int, values, rng: random.Random) -> tuple[int, ...]:
    """Apply a random cube symmetry V -> sigma(V) XOR R to an outmap."""
    perm = list(range(n))
    rng.shuffle(perm)
    table = [0] * (1 << n)
    for mask in range(1 << n):
        table[mask] = sum(1 << perm[pos] for pos in range(n) if mask >> pos & 1)
    r = rng.getrandbits(n)
    out = [0] * (1 << n)
    for v, value in enumerate(values):
        out[table[v] ^ r] = table[value]
    return tuple(out)


# ---------------------------------------------------------------------------
# count


def prepare_count(size, rng, pools):
    return size


def run_count(inputs, tracer=None) -> Outcome:
    max_n, opt_in = inputs
    clear_caches()
    with lap() as t, phase(tracer, "count"):
        table = enumeration.count_table(max_n, opt_in, 1)
    rows = tuple((row.uso, row.puso, row.border, row.odd) for row in table.rows)
    return Outcome(t.scaled_s, t.wall_s, {"count_table_s": t.scaled_s}, data=rows)


def check_count(inputs, out: Outcome, rng) -> None:
    max_n, _ = inputs
    # The sizes used are max_n <= 3, or max_n = 5 with the uso4 opt-in, so the
    # expected rows are a prefix of the paper's table.
    out.judge(out.data == PAPER_TABLE[: max_n + 1], f"count_table rows {out.data}")


# ---------------------------------------------------------------------------
# filter


def prepare_filter(size, rng, pools):
    return rng.sample(range(ODD4_COUNT), size)


def _scalar_survivors(i0: int, rows) -> int:
    """Survivors of lower facet i0 by the scalar _compose_valid_pattern path."""
    prev = enumeration._odd_values(4)
    odd_pairs = enumeration._odd_distance_pairs(4)
    row0 = rows[i0]
    return sum(
        1
        for i1, psi1 in enumerate(prev)
        if enumeration._compose_valid_pattern(prev[i0], psi1, 4, row0, rows[i1], odd_pairs)
        is not None
    )


def run_filter(facets, tracer=None) -> Outcome:
    # The filter's input, built once per count_odd_successor call.
    with unrecorded(tracer):
        nib, rows = enumeration._facet_arrays(4)
    worker = enumeration._odd_successor_worker
    totals, laps = [], []
    for k in range(0, len(facets), FACETS_PER_LAP):
        with lap(NUMPY) as t, phase(tracer, "filter"):
            totals += [worker((nib, rows, 4, i0, i0 + 1)) for i0 in facets[k : k + FACETS_PER_LAP]]
        laps.append(t)
    work = sum(t.scaled_s for t in laps)
    return Outcome(
        work,
        sum(t.wall_s for t in laps),
        {"odd5_facets_per_s": len(facets) / work},
        {"filter_survivors": sum(totals) // 2},
        data=(totals, rows),
    )


def check_filter(facets, out: Outcome, rng) -> None:
    totals, rows = out.data
    for k, (i0, total) in enumerate(zip(facets, totals)):
        ok = total % 2 == 0 and 0 <= total <= 2 * ODD4_COUNT
        if k == 0:
            ok = ok and total == 2 * _scalar_survivors(i0, rows.tolist())
        out.judge(ok, f"odd(5) filter on lower facet {i0}: {total}")


# ---------------------------------------------------------------------------
# stream


def prepare_stream(size, rng, pools):
    return size


def run_stream(size, tracer=None) -> Outcome:
    # The odd(4) list the stream composes from, built once per process.
    with unrecorded(tracer):
        enumeration._odd_values(4)
    stream = enumeration.enumerate_class("odd", 5, allow_large=True)
    texts, laps = [], []
    while len(texts) < size:
        want = min(RECORDS_PER_LAP, size - len(texts))
        with lap() as t, phase(tracer, "stream"):
            got = [cube.emit_uso(phi) for phi in itertools.islice(stream, want)]
        laps.append(t)
        texts += got
        if len(got) < want:
            break  # the stream ended early; the check reports it
    stream.close()
    work = sum(t.scaled_s for t in laps)
    return Outcome(
        work,
        sum(t.wall_s for t in laps),
        {"odd5_stream_records_per_s": len(texts) / work},
        data=texts,
    )


def check_stream(size, out: Outcome, rng) -> None:
    texts = out.data
    out.judge(len(texts) == size, f"stream gave {len(texts)} of {size} records")
    out.judge(len(set(texts)) == len(texts), "stream repeated a record")
    for k in sorted(rng.sample(range(len(texts)), max(1, len(texts) // 100))):
        try:
            phi = cube.parse_uso(texts[k])
            ok = phi.n == 5 and cube.emit_uso(phi) == texts[k] and classes.is_odd(phi)[0]
        except UsoKitError:
            ok = False
        out.judge(ok, f"streamed odd(5) record {k} is not an odd USO")


# ---------------------------------------------------------------------------
# recognize


@dataclass(frozen=True)
class Item:
    role: str  # "accept" or "reject"
    kind: str  # how the input was built
    n: int
    text: str
    expect: Verdict


def _random_cycle(n: int, rng) -> constructions.CyclicPermutation:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    mapping = [0] * n
    for k in range(n):
        mapping[order[k] - 1] = order[(k + 1) % n]
    return constructions.CyclicPermutation(tuple(mapping))


def _edge_flip(phi: cube.Outmap, rng) -> cube.Outmap:
    """Reverse one edge of a USO so that a 2-face through it has no unique sink.

    The result is still an orientation and fails on a 2-face, so its verdict
    is Other for n >= 3.
    """
    n = phi.n
    for _ in range(10000):
        v = rng.randrange(1 << n)
        e, f = (1 << pos for pos in rng.sample(range(n), 2))
        values = list(phi.values)
        values[v] ^= e
        values[v ^ e] ^= e
        a = v & ~(e | f)
        span = e | f
        if not (values[a] ^ values[a | span]) & span or not (values[a | e] ^ values[a | f]) & span:
            return cube.Outmap(n, tuple(values))
    raise RuntimeError("no edge flip breaks a 2-face")


def _broken_function(n: int, rng) -> cube.Outmap:
    """A random function whose first edge {0, 1} is outgoing at both or neither end."""
    values = [rng.getrandbits(n) for _ in range(1 << n)]
    values[1] = (values[1] & ~1) | (values[0] & 1)
    return cube.Outmap(n, tuple(values))


def prepare_recognize(dims, rng, pools):
    made = []
    for n in dims:
        base = constructions.flip(constructions.klee_minty(n), rng.getrandbits(n))
        made.append(("accept", "klee_minty", base, Verdict.USO))
        if n == 7:
            member = constructions.odd_family(8, rng.getrandbits(16))
            made.append(
                ("accept", "odd_family", constructions.flip(member, rng.getrandbits(7)), Verdict.USO)
            )
        made.append(("reject", "edge_flip", _edge_flip(base, rng), Verdict.OTHER))
        puso = constructions.cyclic_puso(n, _random_cycle(n, rng))
        made.append(("reject", "cyclic", constructions.flip(puso, rng.getrandbits(n)), Verdict.PUSO))
        made.append(("reject", "random", _broken_function(n, rng), Verdict.NOT_ORIENTATION))
    return [Item(role, kind, phi.n, cube.emit_uso(phi), expect) for role, kind, phi, expect in made]


def _class_then_dual(text: str):
    """`uso-kit class` then `uso-kit dual` on one input."""
    phi = cube.parse_uso(text)
    counter = recognition.PairEvalCounter()
    report = recognition.classify(phi, counter)
    classify_evals = counter.count
    cube.face_sinks(phi)
    border = odd = None
    if report.verdict is Verdict.USO:
        border = classes.is_border(phi, counter)[0]
        odd = classes.is_odd(phi, counter)[0]
    dual_text = cube.emit_uso(classes.dual(phi))
    return phi, report, classify_evals, counter.count, border, odd, dual_text


def _check(text: str):
    """`uso-kit check` on one input."""
    phi = cube.parse_uso(text)
    counter = recognition.PairEvalCounter()
    report = recognition.classify(phi, counter)
    return phi, report, counter.count, counter.count, None, None, None


def run_recognize(items, tracer=None) -> Outcome:
    spent = {"accept": 0.0, "reject": 0.0}
    wall = 0.0
    results = []
    with phase(tracer, "warmup"):
        warm_recognize()
    for item in items:
        handler = _class_then_dual if item.role == "accept" else _check
        with lap() as t, phase(tracer, "recognize"):
            try:
                result = handler(item.text)
            except Exception as exc:  # a failed operation, reported by the check
                result = exc
        spent[item.role] += t.scaled_s
        wall += t.wall_s
        results.append(result)
    accepts = sum(1 for item in items if item.role == "accept")
    rejects = len(items) - accepts
    evals = [r for r in results if not isinstance(r, Exception)]
    return Outcome(
        spent["accept"] + spent["reject"],
        wall,
        {
            "recognize_accept_per_s": accepts / spent["accept"],
            "recognize_reject_per_s": rejects / spent["reject"],
        },
        {
            "classify_evals": sum(r[2] for r in evals),
            "pair_evals": sum(r[3] for r in evals),
        },
        data=results,
    )


def check_recognize(items, out: Outcome, rng) -> None:
    for item, result in zip(items, out.data):
        what = f"{item.role} {item.kind} n={item.n}"
        if isinstance(result, Exception):
            out.judge(False, f"{what} raised {result!r}")
            continue
        phi, report, classify_evals, _, border, odd, dual_text = result
        n = item.n
        ok = report.verdict is item.expect
        if item.role == "accept":
            # Both constructions give odd USOs; dual is an involution.
            ok = ok and classify_evals == 3**n - 2**n and odd is True
            ok = ok and classes.dual(cube.parse_uso(dual_text)).values == phi.values
            if n <= 9:
                # border(phi) iff odd(dual(phi)), by a different scan.
                ok = ok and border == classes.is_odd(classes.dual(phi))[0]
        elif item.kind == "edge_flip":
            ok = ok and report.puso_face is not None and report.puso_face.dim == 2
        elif item.kind == "cyclic":
            ok = ok and classify_evals == 3**n - 2**n
        else:
            ok = ok and classify_evals == 1 and report.witness == (0, 1)
        if n <= 8:
            ok = ok and recognition.is_uso_naive(phi).verdict is report.verdict
        out.judge(ok, f"{what}: verdict {report.verdict}, {classify_evals} pair evals")


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitStream:
    text: str
    records: int
    odd4_sources: frozenset  # indices into the odd(4) list that were sampled
    puso5: int


def prepare_orbits(size, rng, pools: Pools) -> OrbitStream:
    odd4_sample, puso5 = size
    records = [(3, _relabel(3, values, rng)) for values in pools.uso3]
    records += [(4, _relabel(4, values, rng)) for values in pools.puso4]
    sources = [rng.randrange(len(pools.odd4)) for _ in range(odd4_sample)]
    records += [(4, _relabel(4, pools.odd4[i], rng)) for i in sources]
    for _ in range(puso5):
        records.append((5, _relabel(5, enumeration.random_puso(5, rng).values, rng)))
    rng.shuffle(records)
    text = "".join(cube.emit_uso(cube.Outmap(n, values)) for n, values in records)
    return OrbitStream(text, len(records), frozenset(sources), puso5)


def _orbit_representatives(group):
    """orbit_representatives, which stops at n = 4; the same reduction by
    canonical_form, which goes to n = 5, for the n = 5 records."""
    if group[0].n <= 4:
        return enumeration.orbit_representatives(group)
    forms = {}
    for phi in group:
        form = enumeration.canonical_form(phi)
        forms.setdefault(form.body, form)
    return [forms[body] for body in sorted(forms)]


def run_orbits(stream: OrbitStream, tracer=None) -> Outcome:
    with unrecorded(tracer):
        warm_orbits()
    groups: dict[int, list] = {}
    with lap() as t, phase(tracer, "orbits"):
        for phi in cli.read_outmap_stream(stream.text):
            groups.setdefault(phi.n, []).append(phi)
    laps = [t]
    reps = {}
    for n, group in sorted(groups.items()):
        with lap() as t, phase(tracer, "orbits"):
            reps[n] = _orbit_representatives(group)
        laps.append(t)
    records = sum(len(group) for group in groups.values())
    work = sum(t.scaled_s for t in laps)
    return Outcome(
        work,
        sum(t.wall_s for t in laps),
        {"orbits_records_per_s": records / work},
        {"orbits_found": sum(len(found) for found in reps.values())},
        data=(groups, reps),
    )


def check_orbits(stream: OrbitStream, out: Outcome, rng) -> None:
    groups, reps = out.data
    sizes = {n: len(group) for n, group in groups.items()}
    out.judge(sum(sizes.values()) == stream.records, f"read {sizes} of {stream.records} records")
    out.judge(len(reps.get(3, ())) == USO3_ORBITS, f"uso(3) gave {len(reps.get(3, ()))} orbits")
    verdicts = {
        n: [recognition.classify(form.to_outmap()).verdict for form in found]
        for n, found in reps.items()
    }
    odd4_reps = [
        form for form, verdict in zip(reps.get(4, ()), verdicts.get(4, ())) if verdict is Verdict.USO
    ]
    ok = len(odd4_reps) <= ODD4_ORBITS and all(classes.is_odd(f.to_outmap())[0] for f in odd4_reps)
    if len(stream.odd4_sources) == ODD4_COUNT:
        ok = ok and len(odd4_reps) == ODD4_ORBITS
    out.judge(ok, f"odd(4) sample gave {len(odd4_reps)} orbits")
    ok = all(v in (Verdict.USO, Verdict.PUSO) for v in verdicts.get(4, ()))
    out.judge(ok, "an n=4 orbit representative is neither odd USO nor PUSO")
    ok = len(reps.get(5, ())) <= stream.puso5
    ok = ok and all(v is Verdict.PUSO for v in verdicts.get(5, ()))
    out.judge(ok, "an n=5 orbit representative is not a PUSO")
    # A canonical form is unchanged under a random symmetry and is one of the
    # representatives found.
    for n, group in sorted(groups.items()):
        bodies = {form.body for form in reps[n]}
        for phi in rng.sample(group, min(2, len(group))):
            form = enumeration.canonical_form(phi)
            moved = enumeration.canonical_form(cube.Outmap(n, _relabel(n, phi.values, rng)))
            out.judge(form == moved and form.body in bodies, f"canonical form of an n={n} record")


PREPARE = {
    "count": prepare_count,
    "filter": prepare_filter,
    "stream": prepare_stream,
    "recognize": prepare_recognize,
    "orbits": prepare_orbits,
}
RUN = {
    "count": run_count,
    "filter": run_filter,
    "stream": run_stream,
    "recognize": run_recognize,
    "orbits": run_orbits,
}
CHECK = {
    "count": check_count,
    "filter": check_filter,
    "stream": check_stream,
    "recognize": check_recognize,
    "orbits": check_orbits,
}
