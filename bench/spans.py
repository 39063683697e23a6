"""Span tracer for the uso-kit benchmark.

Spans are recorded by rebinding layer entry points of the library from
here: the wrapper replaces the function in every library module that holds
it, so calls between modules are seen too, and the library's source is not
touched.  Each span is kept in memory as [name, start, end, parent, run id,
attributes] and written out at the end.  Functions that take a pair-eval
counter are handed one when the caller passed none, so every span of a
recognizer knows how many pair evaluations ran inside it.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from time import perf_counter

import uso_kit
from uso_kit import classes, cli, constructions, cube, enumeration, recognition

MODULES = (uso_kit, cube, recognition, classes, constructions, enumeration, cli)


def _survivors(args, result):
    return {"survivors": int(result[0].sum())}


def _compose(args, result):
    return {"m": args[2], "survived": result is not None}


def _uso_pairs(args, result):
    rows, _, lo, hi = args[0]
    return {"pairs": (hi - lo) * len(rows)}


def _canonical_dim(args, result):
    return {"n": args[0].n}


# (owner, attribute, span name, takes a pair-eval counter, attribute maker)
ENTRY_POINTS = (
    (cube, "parse_uso", "cube.parse_uso", False, None),
    (cube, "emit_uso", "cube.emit_uso", False, None),
    (cube.Outmap, "__post_init__", "cube.outmap_init", False, None),
    (cube, "face_sinks", "cube.face_sinks", False, None),
    (recognition, "classify", "recognition.classify", True, None),
    (recognition, "is_uso_fast", "recognition.is_uso_fast", True, None),
    (recognition, "is_puso", "recognition.is_puso", True, None),
    (recognition, "is_uso_naive", "recognition.is_uso_naive", True, None),
    (classes, "is_odd", "classes.is_odd", True, None),
    (classes, "is_border", "classes.is_border", True, None),
    (classes, "dual", "classes.dual", False, None),
    (enumeration, "count_table", "enumeration.count_table", False, None),
    (enumeration, "_odd_values", "enumeration.odd_values", False, None),
    (enumeration, "_uso_values", "enumeration.uso_values", False, None),
    (enumeration, "_sink_rows", "enumeration.sink_rows", False, None),
    (enumeration, "_compose_valid_pattern", "enumeration.compose", False, _compose),
    (enumeration, "_uso_successor_worker", "enumeration.uso_successor", False, _uso_pairs),
    (enumeration, "_odd_successor_worker", "enumeration.odd_successor", False, None),
    (enumeration, "_valid_upper_mask", "enumeration.filter", False, _survivors),
    (enumeration, "canonical_form", "enumeration.canonical_form", False, _canonical_dim),
    (enumeration, "orbit_representatives", "enumeration.orbit_reps", False, None),
    (cli, "read_outmap_stream", "cli.read_stream", False, None),
)

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """Records spans while installed; phases group spans by pipeline."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._recording = True
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        span = self._open("phase." + name)
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def _wrapper(self, fn, name: str, counts_evals: bool, note):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            counter = None
            if counts_evals:
                counter = args[1] if len(args) > 1 else kwargs.get("counter")
                if counter is None:
                    counter = recognition.PairEvalCounter()
                    args = args[:1]
                    kwargs = {**kwargs, "counter": counter}
                before = counter.count
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            attrs = note(args, result) if note is not None else {}
            if counter is not None:
                attrs["evals"] = counter.count - before
            span[ATTRS] = attrs or None
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every entry point; names the library no longer has are skipped."""
        for owner, attr, name, counts_evals, note in ENTRY_POINTS:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(original, name, counts_evals, note)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write every span, with its self time, as gzipped JSON lines."""
        self_times = self_seconds(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span, own in zip(self.spans, self_times):
                record = {
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "run": span[RUN],
                    "self": own,
                }
                if span[ATTRS]:
                    record.update(span[ATTRS])
                out.write(json.dumps(record) + "\n")


def self_seconds(spans) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def phases_of(spans) -> list[str | None]:
    """Name of the phase each span runs under (its nearest phase ancestor)."""
    out: list[str | None] = []
    for span in spans:
        if span[NAME].startswith("phase."):
            out.append(span[NAME][len("phase.") :])
        elif span[PARENT] >= 0:
            out.append(out[span[PARENT]])
        else:
            out.append(None)
    return out


def _self_evals(spans) -> list[int]:
    """Pair evaluations of each span minus those of its child spans."""
    evals = [(span[ATTRS] or {}).get("evals", 0) for span in spans]
    own = list(evals)
    for span, count in zip(spans, evals):
        if span[PARENT] >= 0:
            own[span[PARENT]] -= count
    return own


RECOGNIZERS = (
    "recognition.classify",
    "recognition.is_uso_fast",
    "recognition.is_puso",
    "recognition.is_uso_naive",
)
PAIR_SCANS = ("classes.is_odd", "classes.is_border")
LAYERS = ("cube", "recognition", "classes", "enumeration", "cli")


def layer_metrics(spans, timed_phases) -> dict[str, float]:
    """Per-layer metrics of one traced pass, each scoped to the phase it serves."""
    own = self_seconds(spans)
    own_evals = _self_evals(spans)
    phases = phases_of(spans)

    def pick(names, scope, where=None):
        names = (names,) if isinstance(names, str) else names
        return [
            i
            for i, span in enumerate(spans)
            if span[NAME] in names
            and (scope is None or phases[i] in scope)
            and (where is None or where(span[ATTRS] or {}))
        ]

    def busy(names, scope):
        return sum(own[i] for i in pick(names, scope))

    def per_call(names, scope, scale, where=None):
        chosen = pick(names, scope, where)
        return scale * sum(own[i] for i in chosen) / len(chosen) if chosen else 0.0

    def total(names, key, scope):
        return sum(spans[i][ATTRS][key] for i in pick(names, scope))

    rec = ("recognize",)
    evals = sum(own_evals[i] for i in pick(RECOGNIZERS, rec))
    recognizer_s = busy(RECOGNIZERS, rec)
    metrics = {
        "cube.parse_us": per_call("cube.parse_uso", ("orbits",), 1e6),
        "cube.emit_us": per_call("cube.emit_uso", ("stream",), 1e6),
        "cube.outmap_init_us": per_call("cube.outmap_init", ("stream",), 1e6),
        "recognition.classify_s": busy("recognition.classify", rec),
        "recognition.pair_evals": evals,
        "recognition.pair_evals_per_s": evals / recognizer_s if recognizer_s else 0.0,
        "recognition.schedule_build_s": sum(
            span[END] - span[START] for span in spans if span[NAME] == "phase.warmup"
        ),
        "recognition.is_puso_s": busy("recognition.is_puso", ("count",)),
        "classes.is_odd_s": busy("classes.is_odd", rec),
        "classes.is_border_s": busy("classes.is_border", rec),
        "classes.dual_s": busy("classes.dual", rec),
        "classes.pair_evals": sum(own_evals[i] for i in pick(PAIR_SCANS, rec)),
        "enumeration.odd_values_s": busy("enumeration.odd_values", ("count",)),
        "enumeration.compose_s": busy("enumeration.compose", ("count",)),
        "enumeration.compose_pairs": len(pick("enumeration.compose", ("count",))),
        "enumeration.compose_survivors": total(
            "enumeration.compose", "survived", ("count",)
        ),
        "enumeration.uso_values_s": busy("enumeration.uso_values", ("count",)),
        "enumeration.uso_successor_s": busy("enumeration.uso_successor", ("count",)),
        "enumeration.uso_pairs": total("enumeration.uso_successor", "pairs", ("count",)),
        "enumeration.sink_rows_s": busy("enumeration.sink_rows", ("count", "stream")),
        "enumeration.filter_ms_per_facet": per_call("enumeration.filter", ("filter",), 1e3),
        "enumeration.filter_survivors": total("enumeration.filter", "survivors", ("filter",)),
        "enumeration.canonical_ms.n4": per_call(
            "enumeration.canonical_form", ("orbits",), 1e3, lambda a: a.get("n") == 4
        ),
        "enumeration.canonical_ms.n5": per_call(
            "enumeration.canonical_form", ("orbits",), 1e3, lambda a: a.get("n") == 5
        ),
        "enumeration.orbit_reps_s": busy("enumeration.orbit_reps", ("orbits",)),
        "cli.read_stream_s": busy("cli.read_stream", ("orbits",)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            own[i]
            for i, span in enumerate(spans)
            if span[NAME].startswith(layer + ".") and phases[i] in timed_phases
        )
    return metrics


def funnel(spans) -> dict[int, int]:
    """Compose survivors per facet dimension m (each stands for two odd USOs)."""
    out: dict[int, int] = {}
    for span in spans:
        if span[NAME] == "enumeration.compose" and span[ATTRS]["survived"]:
            out[span[ATTRS]["m"]] = out.get(span[ATTRS]["m"], 0) + 1
    return out
