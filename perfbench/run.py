"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 0 --seconds 32 --trace 0

Run from the root of a checkout; the library is imported from ./src. One
process, one thread, one caller: each operation of the workload starts when
the previous one has finished (a closed loop). The operations run as a pass
over the workload's list, and passes repeat while another one still fits in
--seconds (there is always at least one). Every result is checked against
perfbench/refdata; a failed check counts the operation as failed.

--trace 0 reports the end-to-end metrics. setup_s is the median of five
set-ups, each in a fresh interpreter. solve_s is the median pass time,
rescaled to a fixed machine speed by speed.py; the raw wall time is
printed beside it. --trace 1 runs one pass untraced and
one traced, reports the per-layer metrics, prints per-operation counts and
writes the spans to .perfbench/. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os

# pin the BLAS pools to one thread before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT = 120

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("ops_ok", "fraction"),
              ("peak_rss_mb", "MB")]


def per_layer_metrics():
    """(metric, unit) for --trace 1: the tracer's layer metrics, then the
    per-operation timings of the run's untraced pass."""
    from tracing import PER_LAYER

    return PER_LAYER + [(group, "s") for group in W.GROUPS]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _library_present() -> bool:
    return (ROOT / "src" / "sectorroots" / "__init__.py").is_file()


def run_pass(ops, tracer=None):
    """One pass over the operations: (seconds, per-op records)."""
    records = []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        error = None
        try:
            out = op.call() if tracer is None else tracer.op(op.name, op.call)
        except Exception as exc:  # a failed operation is a result, not a crash
            seconds = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - t0
            try:
                op.check(out)
            except W.CheckFailed as exc:
                error = f"check: {exc}"
        records.append((op, seconds, error))
    return time.perf_counter() - t_pass, records


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _group_seconds(records) -> dict:
    """Seconds per operation group in one pass."""
    out = {}
    for op, seconds, _ in records:
        out[op.group] = out.get(op.group, 0.0) + seconds
    return out


def _report_failures(records) -> int:
    failed = 0
    for op, _, error in records:
        if error is not None:
            failed += 1
            print(f"FAILED {op.name}: {error}")
    return failed


def _emit(correct, attempted, failed, metrics, units) -> None:
    doc = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}}
    print(json.dumps(doc))


def run_untraced(args) -> None:
    import speed

    setup_s = _setup_seconds(args.workload)
    ctx = W.setup(args.workload)
    ops = W.build_ops(ctx, args.workload, args.seed)
    passes = []
    scaled = []
    t_start = time.perf_counter()
    while True:
        with speed.SpeedProbe() as probe:
            passes.append(run_pass(ops))
        scaled.append(probe.scaled(passes[-1][0]))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p[0] for p in passes)
        if elapsed + typical > args.seconds:
            break
    attempted = sum(len(recs) for _, recs in passes)
    failed = sum(_report_failures(recs) for _, recs in passes)
    metrics = {
        "setup_s": setup_s,
        "solve_s": statistics.median(scaled),
        "ops_ok": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"# workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"passes of {len(ops)} operations, {failed} of {attempted} failed")
    for name, unit in END_TO_END:
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    print(f"  {'solve wall time':38s} "
          f"{statistics.median(p[0] for p in passes):14.6g} s")
    groups = [_group_seconds(recs) for _, recs in passes]
    for group in groups[0]:
        print(f"  {group:38s} "
              f"{statistics.median(g[group] for g in groups):14.6g} s")
    for op in ops:
        times = [s for _, recs in passes for o, s, _ in recs if o is op]
        print(f"    {op.name:36s} {statistics.median(times):14.6g} s")
    _emit(failed == 0, attempted, failed, metrics, dict(END_TO_END))


def run_traced(args) -> None:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ctx = W.setup(args.workload)
    finally:
        tracer.uninstall()
    ops = W.build_ops(ctx, args.workload, args.seed)
    base_s, base_recs = run_pass(ops)
    tracer.install()
    per_op = []
    try:
        t0 = time.perf_counter()
        records = []
        for op in ops:
            before = tracer.snapshot()
            _, recs = run_pass([op], tracer)
            after = tracer.snapshot()
            records.extend(recs)
            per_op.append((op.name, {k: after[k] - before[k] for k in after}))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failed = _report_failures(base_recs) + _report_failures(records)
    attempted = len(base_recs) + len(records)
    metrics = tracer.metrics(traced_s / base_s - 1.0)
    base_groups = _group_seconds(base_recs)
    for group in W.GROUPS:
        metrics[group] = base_groups.get(group, 0.0)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(span_file)
    print(f"# workload {args.workload}, seed {args.seed}: traced pass "
          f"{traced_s:.3f} s, untraced {base_s:.3f} s; "
          f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}")
    keys = ("windings", "winding_failed", "gk_panels", "segment_calls",
            "anchored_calls", "reanchors", "path_samples", "roots",
            "product_value_calls")
    print("# " + " ".join(["operation".ljust(16), *keys]))
    for name, delta in per_op:
        print("# " + " ".join([name.ljust(16)] + [str(delta[k]) for k in keys]))
    per_layer = per_layer_metrics()
    for name, unit in per_layer:
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    units = dict(per_layer)
    _emit(failed == 0, attempted, failed, metrics, units)


def main(argv=None) -> int:
    args = _parse(argv)
    if not _library_present():
        print(f"error: no library at {ROOT / 'src' / 'sectorroots'}; run "
              f"from the root of a sectorroots checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        t0 = time.perf_counter()
        W.setup(args.workload)
        print(time.perf_counter() - t0)
        return 0
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
