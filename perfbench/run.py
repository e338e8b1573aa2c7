"""kahlercone benchmark: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory. One caller issues the next operation only after the previous one
returned, because a user runs one check and waits for its verdict.

--trace 0 measures the end-to-end metrics with no tracing installed. The
run makes operations 0, 1, 2, ... (each a fresh input from the seed) until
--seconds of wall time are used, and between them a fixed calibration
computation; every time is rescaled by the calibration's mean (see
REF_CALIBRATION_S), because a shared host's speed can drift by 60%. Every
--seconds/COLD come one cold CLI process, one reference process (see
REF_PROCESS_S) and one more set-up; setup_s and cli_cold_ms are medians
over those.

--trace 1 makes passes over the block and runs each op twice in a row,
untraced and then with every public kahlercone function wrapped (see
tracing.py), and reports per-layer
self time and call counts per operation, plus the tracing overhead as the
throughput lost between the two kinds of run. The spans are written to perfbench/out/.

Each answer is checked between operations, outside the timed region,
against the independent oracles in oracle.py. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Cold CLI processes (and extra set-ups) per run.
COLD = 20

TRACED = (
    "geometry.kahler_metric", "geometry.christoffels",
    "geometry.curvature_report", "geometry.verify_identity",
    "linalg.contract", "linalg.invert", "linalg.inertia",
    "cubic.cone_contains", "cubic.cone_sample", "cubic.parse_text",
    "cubic.norm_identity_check", "cubic.CubicForm.evaluate",
    "cubic.CubicForm.gradient", "cubic.CubicForm.hessian",
    "special.build_tilde_metric", "special.tilde_christoffel_check",
    "special.affine_curvature_check", "poly.Poly.compose",
    "report.render_json", "report.render_text", "cli.main",
)


def _call(op, i):
    try:
        return op(i)
    except Exception as exc:      # a raising operation counts as failed
        return exc


def _tail(durations):
    """Highest percentile with at least ten operations beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_verify_s(seed):
    """Wall seconds of one fresh `python -m kahlercone.cli verify` process,
    and whether it answered PASS with exit code 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "kahlercone.cli", "verify", "--form",
            "y1*y2^2", "--samples", "6", "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - start
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout)["overall"] == "PASS"
    except (ValueError, KeyError):
        ok = False
    return elapsed, ok


# A cold process is rescaled by a reference cold process that uses no
# kahlercone code, run right after it, not by the calibration: process
# start-up and imports follow the host's speed less closely than in-process
# arithmetic does. The reference imports this module, and with it the
# standard library modules it uses, and runs 40 calibrations; on the 2-vCPU
# VM described at REF_CALIBRATION_S it usually takes about REF_PROCESS_S.
REF_PROCESS_S = 0.125
REFERENCE_ARGV = [sys.executable, "-c",
                  "import run\nfor _ in range(40): run.calibration_s()"]


def reference_process_s():
    """Wall seconds of one reference process."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, cwd=HERE, capture_output=True, timeout=60,
                   check=True)
    return time.perf_counter() - start


def run_ops(wl, indices, tracer=None):
    """Run the operations `indices` one after another (a closed loop with
    one caller). Only the operation itself is timed; its answer is checked
    between operations, so checking adds neither time nor retained memory.
    Returns the per-op durations and the number of failed ops.
    """
    clock = time.perf_counter
    durations, failed = [], 0
    for i in indices:
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        result = _call(wl.op, i)
        t1 = clock()
        if tracer is not None:
            tracer.op = -1
        durations.append(t1 - t0)
        failed += isinstance(result, Exception) or not wl.check(i, result)
    return durations, failed


def jet_bits(jets):
    """Largest numerator or denominator bit length in the exact jets."""
    bits = 0
    for jet in jets:
        n = jet.g.n
        values = [v for row in jet.g.rows() + jet.ginv.rows() for v in row]
        values += [jet.dg[i, j, k] for i in range(n) for j in range(n)
                   for k in range(n)]
        values += jet.d2g.entries()
        bits = max([bits] + [max(v.numerator.bit_length(),
                                 v.denominator.bit_length())
                             for v in values if isinstance(v, Fraction)])
    return bits


def roadmap_columns(wl, tracer, points=3):
    """Per-point ms of the ROADMAP baseline columns, from traced calls.

    LHS and RHS are curvature_lhs / curvature_rhs minus the jet they build.
    """
    kc = wl.kc
    lines = ["roadmap columns, ms per point, median of "
             f"{points} points: form jet LHS RHS christoffels "
             "curvature_report verify"]

    def timed(fn, *args):
        mark = len(tracer.spans)
        result = fn(*args)
        sid, _, start, end, _, _ = tracer.spans[-1]      # the call's own span
        jets = sum(s[3] - s[2] for s in tracer.spans[mark:]
                   if s[4] == sid and s[1] == "geometry.kahler_metric")
        return result, (end - start) * 1000.0, jets * 1000.0

    for label, form, pts in (("sparse", wl.sparse, wl.points),
                             ("dense", wl.dense, wl.images)):
        cols = [[] for _ in range(6)]
        for y in pts[:points]:
            cols[0].append(timed(kc.kahler_metric, form, y)[1])
            for c, fn in ((1, kc.curvature_lhs), (2, kc.curvature_rhs)):
                _, ms, jet_ms = timed(fn, form, y)
                cols[c].append(ms - jet_ms)
            cols[3].append(timed(kc.christoffels, form, y)[1])
            cols[4].append(timed(kc.curvature_report, form, y)[1])
            cols[5].append(timed(kc.verify_identity, form, [y])[1])
        lines.append(f"  {label:6s} " + " ".join(
            f"{statistics.median(c):8.1f}" for c in cols))
    return lines


def per_layer(tracer, ops, accepted):
    totals = tracer.totals()
    metrics = {}
    for name in TRACED:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.self_ms_per_op"] = _metric(self_s * 1000.0 / ops, "ms")
        metrics[f"{name}.calls_per_op"] = _metric(calls / ops, "count")
    names = {s[0]: s[1] for s in tracer.spans}
    tried = sum(1 for s in tracer.spans
                if s[5] >= 0 and s[1] == "cubic.cone_contains"
                and names.get(s[4]) == "cubic.cone_sample")
    metrics["cubic.cone_sample.accept_ratio"] = _metric(
        accepted / tried if tried else 0.0, "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kahlercone", "__init__.py")):
        print(f"error: kahlercone sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def timed_setup():
        start = time.perf_counter()
        made = workloads.setup(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        gc.collect()        # free a discarded import now, not mid-op
        return elapsed, made

    first_setup, wl = timed_setup()
    print(f"{args.workload} seed {args.seed}: first set-up {first_setup:.4f} s")

    if args.trace:
        metrics, attempted, failed = traced_run(wl, args)
    else:
        metrics, attempted, failed = untraced_run(wl, args, first_setup,
                                                  timed_setup)

    correct = failed == 0 and attempted > 0
    if hasattr(wl, "probe"):
        print(wl.probe())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def passes(seconds, first_pass_s):
    """Passes in a run: as many as fit in `seconds`, judged by the first."""
    return max(1, round(seconds / first_pass_s))


# A shared host's speed drifts: on a 2-vCPU cloud VM the same work took up
# to 60% longer for spells from a fraction of a second to several minutes,
# in CPU time as in wall time. So the untraced run also times a fixed
# calibration computation that uses no kahlercone code, interleaved with the
# timed work so that it takes CAL_SHARE of the time that work takes. Every
# time is then rescaled by REF_CALIBRATION_S over the calibration's mean:
# the two means cover the same stretch of the host's speed. A slower
# program reads slower; a slower host does not.
REF_CALIBRATION_S = 0.0014
CAL_SHARE = 0.1
_CAL_N = 6
_CAL_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4)
                + (4 if i == j else 0) for j in range(_CAL_N)]
               for i in range(_CAL_N)]


def calibration_s():
    """Wall time of one exact Gauss-Jordan inverse of a fixed 6x6 matrix.
    The cyclic collector is off meanwhile, so that the garbage the timed
    work left behind is not collected, and paid for, here."""
    gc.disable()
    start = time.perf_counter()
    a = [row + [Fraction(int(i == j)) for j in range(_CAL_N)]
         for i, row in enumerate(_CAL_MATRIX)]
    for c in range(_CAL_N):
        p = next(r for r in range(c, _CAL_N) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(_CAL_N):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    took = time.perf_counter() - start
    gc.enable()
    return took


def untraced_run(wl, args, first_setup, timed_setup):
    """Run ops 0, 1, 2, ... in whole rounds until --seconds of wall time
    are used, with calibrations between them. Every --seconds/COLD come one
    cold CLI process, one reference process and one more set-up."""
    cold_seed = random.Random(args.seed).randint(0, 10**6)
    ops, cold, refs, setups, cals = [], [], [], [first_setup], []
    work, calibrated = first_setup, 0.0
    failed = 0
    clock = time.perf_counter
    start = clock()
    mark = gap = args.seconds / COLD
    while True:
        for _ in range(wl.round):
            (took,), more_failed = run_ops(wl, (len(ops),))
            ops.append(took)
            failed += more_failed
            if clock() - start >= mark and len(cold) < COLD:
                mark += gap
                took, ok = cold_verify_s(cold_seed)
                cold.append(took)
                refs.append(reference_process_s())
                failed += not ok
                setups.append(timed_setup()[0])
                work += took + refs[-1] + setups[-1]
            work += ops[-1]
            while calibrated < CAL_SHARE * work:
                cals.append(calibration_s())
                calibrated += cals[-1]
        if clock() - start >= args.seconds:
            break
    if not cold:
        took, ok = cold_verify_s(cold_seed)
        cold.append(took)
        refs.append(reference_process_s())
        failed += not ok
    attempted = len(ops) + len(cold)
    scale = REF_CALIBRATION_S / statistics.mean(cals)
    times = [took * scale for took in ops]
    tail, pct, n = _tail(times)
    print(f"closed loop, 1 caller: {len(ops)} ops in {sum(ops):.2f} s, "
          f"{clock() - start:.2f} s wall; op_tail_ms is p{pct:.2f} of {n} ops")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"times rescaled by {scale:.4f} from {len(cals)} calibrations "
          f"(mean {statistics.mean(cals) * 1000:.3f} ms, reference "
          f"{REF_CALIBRATION_S * 1000:.3f} ms); setup_s median of "
          f"{len(setups)} set-ups; cli_cold_ms median of {len(cold)} "
          f"processes, rescaled by {REF_PROCESS_S:.3f} s over the median of "
          f"{len(refs)} reference processes ({statistics.median(refs):.4f} s)")
    metrics = {
        "setup_s": _metric(statistics.median(setups) * scale, "s"),
        "throughput_ops_s": _metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": _metric(statistics.median(times) * 1000.0, "ms"),
        "op_tail_ms": _metric(tail * 1000.0, "ms"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
        "cli_cold_ms": _metric(statistics.median(cold) * REF_PROCESS_S
                               / statistics.median(refs) * 1000.0, "ms"),
    }
    return metrics, attempted, failed


def traced_run(wl, args):
    """Make passes over the block, as many as fit in args.seconds, running
    each op twice in a row, untraced and then traced, so that both runs see
    the same machine conditions. The first pass also collects the jets."""
    from tracing import Tracer
    tracer = Tracer()
    block = range(wl.block)
    accepted = []
    tracer.observe("cubic.cone_sample",
                   lambda r: tracer.op >= 0 and accepted.append(len(r)))
    jets = []
    tracer.observe("geometry.kahler_metric", jets.append)
    plain, traced, failed = [], [], 0
    pairs = 1
    while len(traced) < pairs * wl.block:
        for i in block:
            more, more_failed = run_ops(wl, (i,))
            tracer.install()
            try:
                again, again_failed = run_ops(wl, (i,), tracer)
            finally:
                tracer.uninstall()
            plain += more
            traced += again
            failed += more_failed + again_failed
        if len(traced) == wl.block:
            tracer.observe("geometry.kahler_metric", None)
            pairs = passes(args.seconds, sum(plain) + sum(traced))
    tracer.install()
    try:              # the ROADMAP baseline columns, outside the ops
        extra = roadmap_columns(wl, tracer) if hasattr(wl, "images") else []
    finally:
        tracer.uninstall()
    ops = len(traced)
    overhead = 100.0 * (1.0 - sum(plain) / len(plain) * ops / sum(traced))
    metrics = per_layer(tracer, ops, sum(accepted))
    metrics["geometry.jet_max_bits"] = _metric(jet_bits(jets), "bits")
    metrics["trace.overhead_pct"] = _metric(overhead, "%")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(path)
    print(f"traced {ops} ops in {sum(traced):.2f} s, untraced {len(plain)} ops "
          f"in {sum(plain):.2f} s; tracing overhead {overhead:.1f}% of "
          "throughput")
    for line in extra:
        print(line)
    for name in TRACED:
        calls = metrics[f"{name}.calls_per_op"]["value"]
        if calls:
            print(f"  {name:34s} {calls:10.3f} calls/op "
                  f"{metrics[f'{name}.self_ms_per_op']['value']:10.3f} self ms/op")
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics, len(plain) + ops, failed


if __name__ == "__main__":
    sys.exit(main())
