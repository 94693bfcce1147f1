"""Benchmark of declqr: three closed-loop workloads, one caller, BLAS pinned
to one thread.

    python3 bench/run.py --workload {sweep,dense,ring,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root (or anywhere: paths are taken from this file).
The program is imported from ./src; the benchmark generates every input from
--seed and hands the program only those inputs. A run

1. imports declqr and sets up: times a fresh interpreter importing declqr,
   generates the inputs, writes the system and config files and runs one op
   of each kind as warm-up;
2. runs whole rounds of ops back to back until --seconds have passed, timing
   each op, and sets up again SETUP_REPEATS - 1 times at even intervals
   (setup_s is the median);
3. checks every op's output against computations made apart from the program
   (checks.py), and re-runs the first round to confirm identical output;
4. prints the metrics and, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 every
round runs twice, untraced and then with every declqr layer wrapped
(tracing.py); the metrics are the per-layer ones, and the span file is
written to .bench_out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from stats import percentile
from tracing import OP_SPAN, PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "dense", "ring")
SETUP_REPEATS = 5
# Percentile reported as the tail; a run holds well over 100 ops, so at least
# ten samples lie beyond it. The median and the mean rate are not reported:
# the host's speed has a fast and a slow mode, and from run to run the median
# and mean follow the share of time spent in each (bench/README.md).
TAIL_PERCENTILE = 90

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import declqr from ./src with BLAS pinned to one thread; exit 2 if the
    source tree is not there."""
    src = ROOT / "src"
    if not (src / "declqr" / "__init__.py").is_file():
        print(f"benchmark: no declqr sources under {src}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import declqr

    if Path(declqr.__file__).resolve().parent != (src / "declqr").resolve():
        print(f"benchmark: imported declqr from {declqr.__file__}", file=sys.stderr)
        sys.exit(2)


def set_up(workload, seed, workdir, rep):
    """One timed set-up: a fresh interpreter that imports declqr (from its
    start to its exit), then the input pool and one warm-up op per kind.

    Returns (rounds, seconds)."""
    from workloads import build_rounds

    t0 = time.perf_counter()
    probe = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import declqr"
    subprocess.run([sys.executable, "-c", probe], check=True)
    repdir = workdir / f"setup{rep}"
    repdir.mkdir(parents=True)
    rounds = build_rounds(workload, seed, str(repdir))
    warmed = set()
    for op in rounds[0]:
        if op.kind not in warmed:
            op.run()
            warmed.add(op.kind)
    return rounds, time.perf_counter() - t0


def run_phase(rounds, seconds, first_round=0, wrap=None):
    """Whole rounds back to back until `seconds` have passed.

    Returns (latencies in s, Counter of (slot, output), wall time, next round).
    An op that raises is recorded as its exception's repr, which counts as a
    failure; the loop goes on.
    """
    latencies = []
    outputs = Counter()
    t0 = time.perf_counter()
    r = first_round
    while True:
        for op in rounds[r % len(rounds)]:
            call = op.run if wrap is None else wrap(op.run)
            start = time.perf_counter()
            try:
                raw = call()
            except Exception as exc:  # any crash of the program is a failed op
                raw = ("exception", repr(exc))
            latencies.append(time.perf_counter() - start)
            outputs[(op.slot, raw if raw[0] != 0 else op.collect(raw))] += 1
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return latencies, outputs, time.perf_counter() - t0, r


def verify(rounds, outputs):
    """Check every distinct (op, output) once; weight verdicts by count.

    Returns (correct, failed, problems). A failed op is one the program
    reported as an error, or one of the known-fault family that gave the
    wrong answer; any other wrong answer makes the run incorrect.
    """
    import checks

    ops = {op.slot: op for rnd in rounds for op in rnd}
    correct, failed, problems = True, 0, []
    for (slot, out), count in outputs.items():
        op = ops[slot]
        reason = f"program error: {out[1]}" if out[0] != 0 else op.check(out, checks)
        if reason is None:
            continue
        if out[0] != 0 or op.known_fault:
            failed += count
        else:
            correct = False
        problems.append(f"{op.kind}/{op.family} slot {slot} x{count}: {reason}")
    for op in rounds[0]:
        raw = op.run()
        if raw[0] == 0 and (op.slot, op.collect(raw)) not in outputs:
            correct = False
            problems.append(f"{op.kind}/{op.family} slot {op.slot}: rerun output differs")
    return correct, failed, problems


def run_workload(workload, seed, seconds, trace):
    workdir = OUT_DIR / f"tmp-{workload}-{os.getpid()}"
    try:
        rounds, setup_s = set_up(workload, seed, workdir, 0)
        if not trace:
            # The other set-ups are spread over the timed phase, so that their
            # median sees the host's fast and slow phases in the run's mix.
            lat, outputs, r, setup_times = [], Counter(), 0, [setup_s]
            for rep in range(1, SETUP_REPEATS):
                seg_lat, seg_out, _, r = run_phase(rounds, seconds / (SETUP_REPEATS - 1), r)
                lat += seg_lat
                outputs += seg_out
                setup_times.append(set_up(workload, seed, workdir, rep)[1])
            values = {
                "setup_s": statistics.median(setup_times),
                "latency_p90_ms": 1e3 * percentile(lat, TAIL_PERCENTILE),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        else:
            values, lat, outputs = traced_run(workload, seed, rounds, seconds)
            units = dict(PER_LAYER)
        correct, failed, problems = verify(rounds, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems[:20]:
        print(f"  problem: {line}", file=sys.stderr)
    attempted = len(lat)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(workload, seed, rounds, seconds):
    """Every round runs twice in a row, untraced and then traced.

    The two sides see the same ops at nearly the same moment, so the host's
    slow and fast phases fall on both sides of the overhead comparison.
    """
    tracer = Tracer()
    sides = {traced: [[], Counter(), 0.0] for traced in (False, True)}
    t0 = time.perf_counter()
    r = 0
    while time.perf_counter() - t0 < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                wrap = (lambda fn: tracer.wrap(OP_SPAN, fn)) if traced else None
                lat, out, wall, _ = run_phase(rounds, 0.0, r, wrap)
            finally:
                tracer.remove()
            side = sides[traced]
            side[0] += lat
            side[1] += out
            side[2] += wall
        r += 1
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    values = layer_metrics(tracer.spans, tracer.care_iterations, tracer.lyapunov_operator_bytes)
    (lat0, out0, wall0), (lat1, out1, wall1) = sides[False], sides[True]
    untraced, traced = len(lat0) / wall0, len(lat1) / wall1
    values["trace.untraced_ops_per_s"] = untraced
    values["trace.traced_ops_per_s"] = traced
    values["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    return values, lat0 + lat1, out0 + out1


def print_result(workload, result):
    print(f"workload {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    args = parse_args(argv)
    import_program()
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    line = json.dumps(final)
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
