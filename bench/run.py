"""atlas benchmark: time to an exact verdict, end to end and per layer.

    python3 bench/run.py --workload {oracle,constancy,cayley} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --compare A.jsonl B.jsonl

Load is one process and one thread in a closed loop: a batch verifier whose
next item starts when the previous verdict is in.  Set-up (a fresh import of
atlas plus building the seeded inputs and their references) is repeated
SETUP_REPEATS times and reported as a median; the last repetition's inputs
are measured.

--trace 0 repeats whole passes over the items until another pass would end
after S seconds (at least one pass) and reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 runs the per-operation microbenchmarks, one
untraced pass and one traced pass over the same items (the traced set-up
included), and reports the per-layer metrics; trace.overhead_frac is the
traced pass's item time over the untraced one's, minus one.

Every reported time is at a fixed machine speed (see SpeedClock): on a
shared machine the raw times of one input drift by 20-30 % from minute to
minute, while across ten seeds the scaled ones spread (interquartile range
over median) by 2-3 % for wall_s on constancy and cayley and 6-9 % on
oracle, whose long items are timed once per run.  The raw figures and the
reference kernel's median time are printed and recorded too.

Every run appends its record, with machine info, to out/results.jsonl next
to this file; a traced run also writes its spans to out/spans-*.json.  The
last line of standard output is the JSON result.  Any failed item is printed
on standard error and makes "correct" false.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import microbench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = ("padic", "svalue", "orbits", "keating", "integrate", "values",
           "germs", "verify", "cli")
SETUP_REPEATS = 7
REF_EVERY_S = 0.025        # at most this long between reference samples
REF_BURST = 8              # most samples taken at once after a long interval
REF_SPAN_S = 0.5           # reference samples this close to an interval scale it
REF_NOMINAL_S = 3.0e-4     # reference kernel time on a quiet Intel Xeon vCPU
INTEGRATE_SPANS = ("integrate.iwasawa_orbit_u0", "integrate.xi_integral")
MAX_REPORTED_FAILURES = 20


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fresh_import() -> SimpleNamespace:
    """Import atlas from scratch, so that every set-up repetition pays the
    import time."""
    for name in [n for n in sys.modules if n == "atlas" or n.startswith("atlas.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"atlas.{m}") for m in MODULES})


def reference_kernel() -> Fraction:
    """Fixed exact-rational work of the kind atlas does; how long it takes
    tells how fast the machine runs Python at that moment."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    return total


class SpeedClock:
    """Times intervals and, between them, the reference kernel.

    The machine is shared and its speed drifts by tens of percent over
    seconds and minutes; CPU time drifts with wall time, so neither is steady
    on its own.  `scaled` multiplies each interval by REF_NOMINAL_S over the
    median of the reference times sampled near it (see `factor`; at least
    the samples just before and after): the interval's length at a fixed
    machine speed.  The raw lengths are kept as well."""

    def __init__(self):
        self.ref_at, self.ref_s = [], []
        self.intervals = []            # (start, raw seconds)
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.ref_at.append(t0)
        self.ref_s.append(time.perf_counter() - t0)

    def catch_up(self) -> None:
        """One sample per REF_EVERY_S elapsed since the last, up to
        REF_BURST, so that long intervals get as many samples at each end."""
        gap = time.perf_counter() - self.ref_at[-1]
        for _ in range(min(REF_BURST, int(gap / REF_EVERY_S))):
            self.sample()

    def start(self) -> float:
        self.catch_up()
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        self.intervals.append((t0, time.perf_counter() - t0))

    def raw(self) -> list:
        return [dt for _, dt in self.intervals]

    def factor(self, t0: float, dt: float) -> float:
        """REF_NOMINAL_S over the median reference time around [t0, t0+dt];
        an interval longer than REF_SPAN_S looks its own length to each side,
        since only its two ends are sampled."""
        span = max(REF_SPAN_S, dt)
        j = bisect.bisect_right(self.ref_at, t0)
        lo = min(j - 1, bisect.bisect_left(self.ref_at, t0 - span))
        hi = max(j + 1, bisect.bisect_right(self.ref_at, t0 + dt + span))
        return REF_NOMINAL_S / statistics.median(self.ref_s[max(lo, 0):hi])

    def scaled(self) -> list:
        return [dt * self.factor(t0, dt) for t0, dt in self.intervals]


class Loop:
    """The closed loop: runs items one after another and records
    each item's time and verdict."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = SpeedClock()
        self.passes = []               # (first, end) interval index per pass
        self.failures = []

    def run_pass(self, items) -> float:
        """Run every item once; returns the pass's raw seconds."""
        first = len(self.clock.intervals)
        for i, item in enumerate(items):
            if self.tracer is not None:
                self.tracer.item = i
            t0 = self.clock.start()
            try:
                ok, err = item.run(), None
            except Exception:  # an item that raises counts as failed
                ok, err = False, traceback.format_exc()
            self.clock.stop(t0)
            if ok is not True:
                self.failures.append((item.label, err))
        self.clock.catch_up()
        self.passes.append((first, len(self.clock.intervals)))
        return sum(self.clock.raw()[first:])


def _p50_p90_ms(times) -> tuple:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return deciles[4] * 1e3, deciles[8] * 1e3


def timed_run(items, seconds: float, setup_s: float) -> tuple:
    loop = Loop()
    start = time.perf_counter()
    while True:
        last = loop.run_pass(items)
        if time.perf_counter() - start + last > seconds:
            break
    scaled, raw = loop.clock.scaled(), loop.clock.raw()
    p50, p90 = _p50_p90_ms(scaled)
    metrics = {
        "wall_s": statistics.median(sum(scaled[a:b]) for a, b in loop.passes),
        "items_per_s": len(scaled) / sum(scaled),
        "item_ms_p50": p50,
        "item_ms_p90": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    raw_p50, raw_p90 = _p50_p90_ms(raw)
    info = {"passes": len(loop.passes), "items_per_pass": len(items),
            "raw_wall_s": statistics.median(sum(raw[a:b]) for a, b in loop.passes),
            "raw_item_ms_p50": raw_p50, "raw_item_ms_p90": raw_p90,
            "reference_us": statistics.median(loop.clock.ref_s) * 1e6}
    return len(scaled), loop.failures, metrics, info


def microbenchmarks(A, quick: bool) -> dict:
    clock = SpeedClock()
    timed = []
    for name, op in microbench.ops(A).items():
        t0 = clock.start()
        per_call = microbench.per_call_s(op, quick)
        clock.stop(t0)
        clock.sample()
        timed.append((name, per_call))
    return {name: per_call * clock.factor(t0, dt) * microbench.SCALE[name]
            for (name, per_call), (t0, dt) in zip(timed, clock.intervals)}


def traced_run(A, build, seed: int, quick: bool, items, trace_path) -> tuple:
    micro = microbenchmarks(A, quick)

    plain = Loop()
    plain.run_pass(items)

    tracer = Tracer(A)
    traced = Loop(tracer)
    tracer.install()
    try:
        tracer.item = "setup"
        traced.run_pass(build(A, seed, quick))
        probes = workloads.probes(A)
        tracer.item = "probe"
        for name, call in probes.items():
            if tracer.calls(name) == 0:
                call()
    finally:
        tracer.uninstall()
    traced.clock.sample()
    tracer.dump(trace_path)

    scale = traced.clock.factor
    self_s = tracer.self_times(scale)
    counts = tracer.counts
    phi1 = [s for s in tracer.spans if s[0] == "verify.phi1"]
    balls = counts["integrate.balls_evaluated"]
    metrics = dict(micro)
    metrics.update({
        "padic.scalars_constructed": counts["padic.scalars_constructed"],
        "integrate.balls_evaluated": balls,
        "integrate.ball_splits": counts["integrate.ball_splits"],
        "integrate.decided_ratio": (balls - counts["integrate.ball_splits"]) / balls,
        "integrate.balls_per_s": balls / tracer.outermost_time(INTEGRATE_SPANS, scale),
        "orbits.delta_calls_per_phi1": sum(s[5] for s in phi1) / len(phi1),
        "orbits.case_of.calls": tracer.calls("orbits.case_of"),
        "orbits.orbit_reps.calls": tracer.calls("orbits.orbit_reps"),
        "orbits.quat_mat_solve.calls": tracer.calls("orbits.quat_mat_solve"),
        "keating.l_int_keating.calls": tracer.calls("keating.l_int_keating"),
        "germs.dgamma_table.calls": tracer.calls("germs.dgamma_table"),
        "values.forced_s_values.calls": tracer.calls("values.forced_s_values"),
        "svalue.LogQVal.constructed": counts["svalue.LogQVal.constructed"],
        "trace.overhead_frac": sum(traced.clock.scaled()) / sum(plain.clock.scaled()) - 1,
    })
    for name in probes:
        metrics[f"{name}.self_s"] = self_s[name]
    failures = plain.failures + traced.failures
    attempted = 2 * len(items)
    info = {"items_per_pass": len(items), "spans": len(tracer.spans)}
    return attempted, failures, metrics, info


def run(args) -> int:
    if not (ROOT / "src" / "atlas" / "__init__.py").is_file():
        print(f"error: no atlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; the l_int oracle check is an assert",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = {m["name"]: m["unit"]
             for m in load_spec()["per_layer" if args.trace else "end_to_end"]}
    build = workloads.WORKLOADS[args.workload]

    clock = SpeedClock()
    for _ in range(SETUP_REPEATS):
        t0 = clock.start()
        A = fresh_import()
        items = build(A, args.seed, args.quick)
        clock.stop(t0)
    clock.sample()
    setup_s = statistics.median(clock.scaled())

    OUT.mkdir(exist_ok=True)
    if args.trace:
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        attempted, failures, metrics, info = traced_run(
            A, build, args.seed, args.quick, items, trace_path)
        info["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        attempted, failures, metrics, info = timed_run(items, args.seconds, setup_s)
        info["raw_setup_s"] = statistics.median(clock.raw())

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for label, err in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {args.workload} seed={args.seed}: {label}", file=sys.stderr)
        if err:
            print(err, file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    machine = machine_info()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "machine": machine,
              "info": info, **result}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"machine: python {machine['python']}, nproc {machine['nproc']}, "
          f"cpu {machine['cpu']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in info.items())
          + f", fail_frac {len(failures) / attempted} ({len(failures)}/{attempted})")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def compare(path_a, path_b) -> int:
    """Print, per workload and metric, the median of each file's runs and
    the relative change from the first file to the second.  Smoke-test runs
    (--quick) are skipped."""
    def load(path):
        groups, machine = {}, None
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line) if line.strip() else None
                if rec is None or rec.get("quick"):
                    continue
                machine = machine or rec.get("machine")
                for name, m in rec["metrics"].items():
                    groups.setdefault((rec["workload"], name), []).append(m)
        return groups, machine

    a, ma = load(path_a)
    b, mb = load(path_b)
    print(f"A: {path_a} ({ma})")
    print(f"B: {path_b} ({mb})")
    print(f"{'workload':<10} {'metric':<36} {'unit':<6} {'A median':>14} {'n':>3} "
          f"{'B median':>14} {'n':>3} {'change':>9}")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        va = [m["value"] for m in a.get(key, [])]
        vb = [m["value"] for m in b.get(key, [])]
        unit = (a.get(key) or b.get(key))[0]["unit"]
        med_a, med_b = (statistics.median(v) if v else None for v in (va, vb))
        change = (f"{(med_b - med_a) / abs(med_a):+.2%}"
                  if med_a and med_b is not None else "-")
        print(f"{workload:<10} {name:<36} {unit:<6} {_fmt(med_a):>14} {len(va):>3} "
              f"{_fmt(med_b):>14} {len(vb):>3} {change:>9}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one item per input family and short microbenchmarks "
                         "(smoke tests)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two results.jsonl files and exit")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
