"""The benchmark in bench/ hooks into private library names; keep them working.

bench/spans.py rebinds layer entry points by name and bench/pipelines.py
calls several private helpers directly.  This test installs the benchmark's
tracer and makes those calls in the shapes the benchmark uses, so a refactor
that renames or reshapes one of them fails here instead of silently
dropping a benchmark metric.
"""

import importlib.util
import itertools
from pathlib import Path

from uso_kit import classes, cube, enumeration, klee_minty, recognition

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_and_call_shapes():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []

        nib, rows = enumeration._facet_arrays(3)
        prev = enumeration._odd_values(3)
        odd_pairs = enumeration._odd_distance_pairs(3)
        row_list = rows.tolist()
        survivors = sum(
            1
            for i1, psi1 in enumerate(prev)
            if enumeration._compose_valid_pattern(
                prev[0], psi1, 3, row_list[0], row_list[i1], odd_pairs
            )
            is not None
        )
        assert enumeration._odd_successor_worker((nib, rows, 3, 0, 1)) == 2 * survivors

        # odd5_facets_per_s runs the worker on one lower facet of dimension 4
        nib4, rows4 = enumeration._facet_arrays(4)
        i0 = 4321
        start = len(tracer.spans)
        total = enumeration._odd_successor_worker((nib4, rows4, 4, i0, i0 + 1))
        filtered = [
            span[spans.ATTRS]["survivors"]
            for span in tracer.spans[start:]
            if span[spans.NAME] == "enumeration.filter"
        ]
        assert len(filtered) == 1 and total == 2 * filtered[0] > 0
        valid, patterns = enumeration._valid_upper_mask(i0, nib4, rows4, 4)
        assert valid.dtype == bool and valid.shape == (12928,)
        assert int(valid.sum()) == filtered[0]
        assert int(patterns.max()) < 1 << 16

        uso_rows = enumeration._sink_rows(enumeration._uso_values(2), 2)
        assert enumeration._uso_successor_worker((uso_rows, 4, 0, len(uso_rows))) == 744

        table = enumeration.count_table(3, (), 1)
        assert [(r.uso, r.puso, r.border, r.odd) for r in table.rows] == [
            (1, 0, 1, 1),
            (2, 0, 2, 2),
            (12, 4, 8, 8),
            (744, 16, 112, 112),
        ]

        # uso cells are coloring-collision sums: count_table never runs the
        # pair worker, so enumeration.uso_successor_s and uso_pairs read 0 there
        start = len(tracer.spans)
        assert enumeration.count_table(4, ("uso4",), 1).rows[4].uso == 5_541_744
        names = [span[spans.NAME] for span in tracer.spans[start:]]
        assert "enumeration.count_table" in names
        assert names.count("enumeration.uso_successor") == 0

        km = klee_minty(4)
        recognition.classify(km)

        # recognition.pair_evals reads the evals the counter= hook records
        start = len(tracer.spans)
        km10 = klee_minty(10)
        assert recognition.classify(km10).verdict is recognition.Verdict.USO
        assert recognition.is_uso_fast(km10)
        evals = [
            (span[spans.NAME], span[spans.ATTRS]["evals"])
            for span in tracer.spans[start:]
            if span[spans.NAME].startswith("recognition.")
        ]
        assert evals == [
            ("recognition.classify", 3**10 - 2**10),
            ("recognition.is_uso_fast", 3**10 - 2**10),
        ]
        assert classes.is_odd(km)[0] and not classes.is_border(km)[0]
        canonical = enumeration.canonical_form(km).to_outmap()
        assert len(enumeration.orbit_representatives([km, canonical])) == 1

        names = {span[spans.NAME] for span in tracer.spans}
        assert {
            "enumeration.odd_successor",
            "enumeration.filter",
            "enumeration.compose",
            "enumeration.uso_successor",
            "enumeration.count_table",
            "enumeration.canonical_form",
            "enumeration.orbit_reps",
            "recognition.classify",
            "classes.is_odd",
            "classes.is_border",
        } <= names
    finally:
        tracer.uninstall()


def test_stream_call_shape_records_one_emit_and_init_per_record():
    """cube.emit_us and cube.outmap_init_us average these spans over the stream phase."""
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # the odd(4) list the stream composes from, built before the spans counted
        enumeration._odd_values(4)
        start = len(tracer.spans)
        stream = enumeration.enumerate_class("odd", 5, allow_large=True)
        texts = [cube.emit_uso(phi) for phi in itertools.islice(stream, 200)]
        stream.close()
        names = [span[spans.NAME] for span in tracer.spans[start:]]
        assert len(set(texts)) == 200
        assert names.count("cube.emit_uso") == 200
        assert names.count("cube.outmap_init") == 200
    finally:
        tracer.uninstall()
