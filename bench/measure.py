"""Measurement flows of the uso-kit benchmark: untraced and traced runs.

See run.py for the workloads and the metrics.
"""

from __future__ import annotations

import gc
import statistics
import sys
from time import perf_counter

import pipelines
import spans

WORKLOADS = {
    "exhaustive": ("count", "filter", "stream"),
    "recognize": ("recognize",),
    "orbits": ("orbits",),
}

# name -> (unit, better, pipeline whose repetitions give the value).  A
# metric belongs to the workload that runs its pipeline at full size.
END_TO_END = {
    "setup_s": ("s", "lower", None),
    "peak_rss_mb": ("MB", "lower", None),
    "count_table_s": ("s", "lower", "count"),
    "odd5_facets_per_s": ("1/s", "higher", "filter"),
    "odd5_stream_records_per_s": ("1/s", "higher", "stream"),
    "recognize_accept_per_s": ("1/s", "higher", "recognize"),
    "recognize_reject_per_s": ("1/s", "higher", "recognize"),
    "orbits_records_per_s": ("1/s", "higher", "orbits"),
}

# name -> (unit, better); counts marked higher are answers, not work.
PER_LAYER = {
    "cube.parse_us": ("us", "lower"),
    "cube.emit_us": ("us", "lower"),
    "cube.outmap_init_us": ("us", "lower"),
    "cube.self_s": ("s", "lower"),
    "recognition.classify_s": ("s", "lower"),
    "recognition.pair_evals": ("count", "lower"),
    "recognition.pair_evals_per_s": ("1/s", "higher"),
    "recognition.schedule_build_s": ("s", "lower"),
    "recognition.is_puso_s": ("s", "lower"),
    "recognition.self_s": ("s", "lower"),
    "classes.is_odd_s": ("s", "lower"),
    "classes.is_border_s": ("s", "lower"),
    "classes.dual_s": ("s", "lower"),
    "classes.pair_evals": ("count", "lower"),
    "classes.self_s": ("s", "lower"),
    "enumeration.odd_values_s": ("s", "lower"),
    "enumeration.compose_s": ("s", "lower"),
    "enumeration.compose_pairs": ("count", "lower"),
    "enumeration.compose_survivors": ("count", "higher"),
    "enumeration.uso_values_s": ("s", "lower"),
    "enumeration.uso_successor_s": ("s", "lower"),
    "enumeration.uso_pairs": ("count", "lower"),
    "enumeration.sink_rows_s": ("s", "lower"),
    "enumeration.filter_ms_per_facet": ("ms", "lower"),
    "enumeration.filter_survivors": ("count", "higher"),
    "enumeration.canonical_ms.n4": ("ms", "lower"),
    "enumeration.canonical_ms.n5": ("ms", "lower"),
    "enumeration.orbit_reps_s": ("s", "lower"),
    "enumeration.orbits_found": ("count", "higher"),
    "enumeration.self_s": ("s", "lower"),
    "cli.read_stream_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Exact counters of a traced pass that the ledger compares run to run.
TRACE_COUNTERS = (
    "recognition.pair_evals",
    "classes.pair_evals",
    "enumeration.compose_pairs",
    "enumeration.compose_survivors",
    "enumeration.uso_pairs",
    "enumeration.filter_survivors",
    "enumeration.orbits_found",
)


def repetition(p, size, seed, rep, pools, tally):
    """Prepare, run and check one repetition of pipeline p; checks add to tally."""
    rng = pipelines.rng_for(seed, p, rep)
    inputs = pipelines.PREPARE[p](size, rng, pools)
    gc.collect()  # each repetition starts from a clean heap, as a fresh process would
    outcome = pipelines.RUN[p](inputs)
    pipelines.CHECK[p](inputs, outcome, rng)
    outcome.data = None
    tally.add(outcome)
    return outcome


def untraced(workload, seed, seconds, sizes, probe, tally):
    """The workload's pipelines for the time budget, the others as probes.

    Returns the end-to-end metrics but setup_s and peak_rss_mb, and the exact
    counters of each pipeline's first repetition.
    """
    focus = WORKLOADS[workload]
    pools = pipelines.Pools()
    outcomes = {p: [] for p in pipelines.PIPELINES}
    for p in pipelines.PIPELINES:
        if p not in focus:
            for rep in range(pipelines.PROBE_REPS[p]):
                outcomes[p].append(repetition(p, probe[p], seed, rep, pools, tally))
    start = perf_counter()
    rounds = 0
    while True:
        for p in focus:
            outcomes[p].append(repetition(p, sizes[p], seed, rounds, pools, tally))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    metrics = {}
    for name, (_, _, p) in END_TO_END.items():
        if p is not None:
            metrics[name] = statistics.median(o.metrics[name] for o in outcomes[p])
    counters = {p: outcomes[p][0].counters for p in pipelines.PIPELINES}
    return metrics, counters


def traced(workload, seed, sizes, probe, tally):
    """One repetition of each pipeline untraced, then traced on the same inputs.

    Returns the per-layer metrics, the exact counters and the tracer.
    """
    focus = WORKLOADS[workload]
    pools = pipelines.Pools()
    inputs = {}
    for p in pipelines.PIPELINES:
        size = sizes[p] if p in focus else probe[p]
        inputs[p] = pipelines.PREPARE[p](size, pipelines.rng_for(seed, p, 0), pools)

    def one_pass(tracer):
        outcomes = {}
        for p in pipelines.PIPELINES:
            if p == "recognize":
                pipelines.clear_caches()  # so the warm-up phase builds schedules
            if tracer is not None:
                tracer.run_id = f"{workload}/{p}"
            gc.collect()
            outcomes[p] = pipelines.RUN[p](inputs[p], tracer)
            with pipelines.unrecorded(tracer):
                pipelines.CHECK[p](inputs[p], outcomes[p], pipelines.rng_for(seed, p, 1))
            outcomes[p].data = None
            tally.add(outcomes[p])
        return outcomes

    reference = one_pass(None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        observed = one_pass(tracer)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"entry points not found: {', '.join(tracer.missing)}", file=sys.stderr)

    metrics = spans.layer_metrics(tracer.spans, pipelines.PIPELINES)
    metrics["enumeration.orbits_found"] = observed["orbits"].counters["orbits_found"]
    metrics["trace.overhead_ratio"] = sum(o.work_s for o in observed.values()) / sum(
        o.work_s for o in reference.values()
    )
    for p in pipelines.PIPELINES:
        tally.judge(
            observed[p].counters == reference[p].counters,
            f"{p} counters drifted between passes: {reference[p].counters} -> {observed[p].counters}",
        )
    rec = reference["recognize"].counters
    spans_evals = metrics["recognition.pair_evals"] + metrics["classes.pair_evals"]
    tally.judge(spans_evals == rec["pair_evals"], f"traced pair evals {spans_evals} vs {rec}")
    tally.judge(
        metrics["enumeration.filter_survivors"] == reference["filter"].counters["filter_survivors"],
        "traced filter survivors differ from the untraced pass",
    )
    for m, survivors in sorted(spans.funnel(tracer.spans).items()):
        odd = pipelines.PAPER_TABLE[m + 1][3]
        tally.judge(2 * survivors == odd, f"funnel: 2 * {survivors} survivors at m={m} != odd {odd}")
    counters = {name: metrics[name] for name in TRACE_COUNTERS}
    return metrics, counters, tracer


