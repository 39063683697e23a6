"""uso-kit benchmark: exhaustive counting, recognition and orbit reduction.

Run from the root of a checkout:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 24 --trace 0

It imports uso_kit from the checkout's src/ and exits with code 2, printing
no result, when that source is absent.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds the provenance (machine, versions, source digest, seed,
workload) and each metric's unit and better direction.  Both are also
written, with the spans of a traced run, under .bench_out/ in the checkout.

Workloads (one closed-loop caller, jobs=1, a fresh interpreter per run):

    exhaustive  count_table(5, opt_in=("uso4",)) from cold caches, the odd(5)
                counting filter over seeded lower facets, and a fixed prefix
                of the odd(5) stream.  The enumeration layer does the work.
    recognize   seeded .uso inputs at n = 7..12; accepts through `class` +
                `dual`, rejects through `check`.  Recognition and classes do
                the work; enumeration does none.
    orbits      one seeded concatenated .uso stream (uso(3), puso(4), an
                odd(4) sample that shares orbits, random_puso(5) records that
                do not) through `orbits -`.  The canonicaliser and the parser
                do the work.

A workload runs its own pipelines at full size for --seconds and every
other pipeline a few times at a small fixed probe size, so that each run
reports every end-to-end metric; a metric is meant to be read on the
workload that runs its pipeline at full size (see measure.END_TO_END).
Times are wall times scaled to a reference interpreter speed by a
calibration loop run around each lap of work (see clock.py), and each
metric is the median over the repetitions of a run.  setup_s is the median
over five fresh interpreters of the time to import uso_kit and run the
workload's warm-up.

--trace 1 prepares one repetition of every pipeline, runs it untraced and
then traced with the same inputs, and reports per-layer metrics from the
traced pass with the traced/untraced wall-time ratio as tracing overhead.

Exact counters (pair evaluations, compose pairs and survivors, uso pairs,
filter survivors, orbits found) are compared with the untraced pass, with
the funnel identity 2 * compose survivors = odd(m + 1), and with the values
an earlier run of the same library and benchmark source, workload and seed
left in .bench_out/counters.json; any drift is a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5
# A fresh interpreter times its import of uso_kit and the warm-up, bracketed
# by two calibration loops, and prints the scaled seconds.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import clock
with clock.lap() as t:
    import pipelines
    pipelines.warm_up_workload(sys.argv[3])
print(t.scaled_s)
"""
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return parser, args


def digest(directory: Path) -> str:
    """sha256 over the Python sources under a directory."""
    out = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        out.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return out.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:  # no git program
        return None
    return done.stdout.strip() or None


def provenance(args, metric_info) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": digest(SRC),
        "bench_sha256": digest(BENCH_DIR),
        "metrics": {name: {"unit": u, "better": b} for name, (u, b, *_) in metric_info.items()},
    }


def setup_seconds(workload: str) -> float:
    """Median scaled time of fresh interpreters importing uso_kit and warming up."""
    env = {**os.environ, **SINGLE_THREAD}
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_name(args) -> str:
    smoke = "-smoke" if args.smoke else ""
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}"


def compare_ledger(key: str, counters, tally) -> None:
    """Flag exact counters that differ from an earlier run with the same key."""
    path = OUT_DIR / "counters.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    counters = json.loads(json.dumps(counters))
    if key in ledger:
        tally.judge(ledger[key] == counters, f"counters drifted: {ledger[key]} -> {counters}")
    else:
        ledger[key] = counters
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "uso_kit" / "__init__.py").is_file():
        print(f"error: no uso_kit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import measure
    import uso_kit

    if Path(uso_kit.__file__).resolve().parent != SRC / "uso_kit":
        print(f"error: uso_kit imported from {uso_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(measure.WORKLOADS)}")

    sizes = measure.pipelines.SMOKE if args.smoke else measure.pipelines.FULL
    probe = measure.pipelines.SMOKE if args.smoke else measure.pipelines.PROBE
    tally = measure.pipelines.Checks()
    info = measure.PER_LAYER if args.trace else measure.END_TO_END
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, counters, tracer = measure.traced(args.workload, args.seed, sizes, probe, tally)
            tracer.write(OUT_DIR / f"trace-{run_name(args)}.jsonl.gz")
        else:
            metrics, counters = measure.untraced(
                args.workload, args.seed, args.seconds, sizes, probe, tally
            )
            metrics["setup_s"] = setup_seconds(args.workload)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        key = f"{digest(SRC)}|{digest(BENCH_DIR)}|{run_name(args)}"
        compare_ledger(key, counters, tally)
    except Exception:  # the run cannot finish; report it without a result
        traceback.print_exc()
        return 1

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": info[name][0]} for name in info},
    }
    record = {"provenance": provenance(args, info), "counters": counters, "result": result}
    (OUT_DIR / f"result-{run_name(args)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"provenance": record["provenance"], "counters": counters}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
