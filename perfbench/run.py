"""twistfusion benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  One process, one client, closed loop: each
operation starts when the previous one has returned.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it name every metric with its unit and record the
environment.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced pass.  ``--workload all`` runs
every workload both ways in child processes and prints every metric.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SETUP_REPEATS = 15
MODULES = ("cli", "diagrams", "exactnum", "fusion", "irreducibility", "linalg", "repmatrix",
           "tensor")

# The host's speed drifts by tens of percent within minutes, far more than
# any seed moves the work.  So every operation is bracketed by timings of a
# fixed reference kernel, and its wall time is rescaled to the speed at which
# the kernel takes REFERENCE_S seconds.  Raw wall times are printed as well.
REFERENCE_S = 0.006
_REF_RNG = random.Random(20261017)
_REF_INTS = np.array([[_REF_RNG.getrandbits(64) - (1 << 63) for _ in range(24)]
                      for _ in range(24)], dtype=object)
_REF_FRACS = [Fraction(_REF_RNG.randint(-999, 999), _REF_RNG.randint(1, 999))
              for _ in range(400)]


def reference_time() -> float:
    """Median of five timings of exact-arithmetic work that does not touch
    twistfusion: object-int matrix products and Fraction sums, the staples of
    the package.  It tracks the speed the host gives this process."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        (_REF_INTS @ _REF_INTS) @ _REF_INTS
        acc = Fraction(0)
        for x, y in zip(_REF_FRACS, reversed(_REF_FRACS)):
            acc += x * y
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the program under test

def load_api() -> SimpleNamespace:
    """Import twistfusion afresh from this checkout's src/ (empty caches)."""
    if not os.path.isfile(os.path.join(SRC, "twistfusion", "__init__.py")):
        raise FileNotFoundError(f"no twistfusion sources under {SRC}")
    for name in [m for m in sys.modules if m == "twistfusion" or m.startswith("twistfusion.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("twistfusion")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise ImportError(f"twistfusion imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module("twistfusion." + m) for m in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def setup(workload_cls, seed: int, tracer=None):
    """Import, make the inputs, warm the fusion cache; the set-up time."""
    t0 = time.perf_counter()
    api = load_api()
    if tracer is not None:
        bench_trace.install(api, tracer)
    wl = workload_cls(seed)
    ops = wl.round(api)
    for text, N in wl.diagrams:
        api.fusion.fusion_operator(api.diagrams.parse_skew(text), N)
    return time.perf_counter() - t0, api, wl, ops


# ---------------------------------------------------------------------------
# timing

def run_op(api, op):
    t = time.perf_counter()
    try:
        out = op.run(api)
    except (Exception, SystemExit) as exc:  # one bad operation must not end the run
        out = exc
        out.trace_text = traceback.format_exc()
    return time.perf_counter() - t, out


def run_rounds(api, ops, seconds: float, span=None):
    """Whole rounds until ``seconds`` have passed.  Each round is a list of
    (op, wall latency, output, speed factor); the factor rescales the latency
    to the reference speed, from the kernel timed just before and after."""
    rounds = []
    start = time.perf_counter()
    ref = reference_time()
    while True:
        done = []
        for op in ops:
            if span is None:
                lat, out = run_op(api, op)
            else:
                with span(op):
                    lat, out = run_op(api, op)
            after = reference_time()
            done.append((op, lat, out, 2 * REFERENCE_S / (ref + after)))
            ref = after
        rounds.append(done)
        if time.perf_counter() - start >= seconds:
            return rounds


def tail(values):
    """Highest percentile with at least ten samples above it, or the maximum
    when there are ten samples or fewer; (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def check(api, rounds):
    total = bench_workloads.Outcome()
    for done in rounds:
        for op, _lat, out, _f in done:
            if isinstance(out, BaseException):
                total.add(bench_workloads.Outcome(attempted=op.points, errors=op.points))
                print(f"error in {op.label}:\n{out.trace_text}", file=sys.stderr)
                continue
            try:
                total.add(op.check(api, out))
            except Exception as exc:  # a malformed answer
                total.add(bench_workloads.Outcome(attempted=op.points,
                                                  broken=[f"{op.label}: {exc!r}"]))
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# the two passes

def timing_metrics(per_round, points):
    """p50, tail and throughput, each taken within a round, medians over rounds."""
    return (statistics.median(statistics.median(l) for l in per_round),
            statistics.median(tail(l)[0] for l in per_round),
            statistics.median(points / sum(l) for l in per_round))


def untraced(workload_cls, seed: int, seconds: float):
    setups, raw_setups = [], []
    ref = reference_time()
    for _ in range(SETUP_REPEATS):
        dt, api, wl, ops = setup(workload_cls, seed)
        after = reference_time()
        raw_setups.append(dt)
        setups.append(dt * 2 * REFERENCE_S / (ref + after))
        ref = after
    rounds = run_rounds(api, ops, seconds)
    outcome = check(api, rounds)
    per_round = [[lat * f for _op, lat, _out, f in done] for done in rounds]
    wall = [[lat for _op, lat, _out, _f in done] for done in rounds]
    p50, tail_s, throughput = timing_metrics(per_round, sum(op.points for op in ops))
    raw = timing_metrics(wall, sum(op.points for op in ops))
    factors = [f for done in rounds for *_, f in done]
    n = outcome.attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_s.p50": p50,
        "latency_s.tail": tail_s,
        "throughput_ops": throughput,
        "answered_ratio": 1 - outcome.errors / n,
        "right_ratio": 1 - outcome.wrong / n,
        "conclusive_ratio": 1 - outcome.inconclusive / outcome.verdicts if outcome.verdicts else 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"rounds {len(rounds)}, operations per round {len(ops)}, "
        f"units per round {sum(op.points for op in ops)}, wall round times "
        + ", ".join(f"{sum(l):.3f}" for l in wall) + " s",
        f"speed factors (reference kernel {REFERENCE_S} s / measured): median "
        f"{statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}",
        f"raw wall time: setup_s {statistics.median(raw_setups):.6f}, latency_s.p50 {raw[0]:.6f}, "
        f"latency_s.tail {raw[1]:.6f}, throughput_ops {raw[2]:.6f}",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"latency_s.tail is p{tail(per_round[0])[1]:.1f} of each round's {len(ops)} "
        f"operations ({sum(len(l) for l in per_round)} samples in all)",
        f"error_ratio {outcome.errors / n:.6f}, wrong_ratio {outcome.wrong / n:.6f}, "
        f"inconclusive_ratio {outcome.inconclusive / outcome.verdicts if outcome.verdicts else 0.0:.6f}"
        f" ({n} attempted)",
    ]
    for op, lat, _out, f in rounds[0]:
        notes.append(f"  {lat * f:9.4f} s  (wall {lat:.4f} s)  {op.label}")
    for name in sorted(set(outcome.wrong_points)):
        notes.append(f"wrong: {name}")
    return outcome, metrics, notes


def traced(workload_cls, seed: int, seconds: float):
    for _ in range(SETUP_REPEATS - 1):
        setup(workload_cls, seed)  # same warm-up as the untraced pass
    tracer = bench_trace.Tracer()
    with tracer.span("setup"):
        _dt, api, wl, ops = setup(workload_cls, seed, tracer)
    tracer.uninstall()
    scan = workload_cls is bench_workloads.ScanWalls
    base_ops = wl.round(api, jobs=1) if scan else ops
    def round_s(rounds):
        return sum(lat * f for _op, lat, _out, f in rounds[0])

    untraced_s = round_s(run_rounds(api, base_ops, 0))
    parallel = None
    if scan:
        parallel = untraced_s / (2 * round_s(run_rounds(api, ops, 0)))

    bench_trace.install(api, tracer)
    name = "cli.scan" if scan else "op"
    rounds = run_rounds(api, base_ops, 0, span=lambda op: tracer.span(name))
    traced_s = round_s(rounds)
    rebound = tracer.rebound()
    tracer.uninstall()
    restored = all(owner.__dict__[attr] is original for owner, attr, original in rebound)
    outcome = check(api, rounds)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
    tracer.write(span_file)
    metrics, notes = layer_metrics(bench_trace.SpanIndex(tracer.spans))
    metrics["cli.scan.parallel_efficiency"] = parallel if parallel is not None else 0.0
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    notes.insert(0, f"untraced round {untraced_s:.3f} s, traced round {traced_s:.3f} s, "
                    f"{len(tracer.spans)} spans written to {os.path.relpath(span_file, ROOT)}")
    if not restored:
        outcome.broken.append("tracer left a rebound name in place")
    return outcome, metrics, notes


def layer_metrics(idx: bench_trace.SpanIndex):
    def ratio(num, den):
        return num / den if den else 0.0

    def total(names, key):
        return sum(idx.counters(names, key))

    fus = ["fusion.fusion_operator"]
    mm = ["linalg.scaled_matmul"]
    rel = ["repmatrix.relation_products"]
    rank = ["linalg.rank_exact"]
    null = ["linalg.nullspace_exact"]
    window = ["tensor.laurent.trimmed", "tensor.laurent.coefficient"]
    m = {
        "fusion.fusion_operator.busy_s": idx.busy(fus),
        "fusion.fusion_operator.calls": idx.count(fus),
        "fusion.fusion_operator.miss_ratio": ratio(total(fus, "miss"), idx.count(fus)),
        "repmatrix.swz_frame_blocks.busy_s": idx.busy(["repmatrix.swz_frame_blocks"]),
        "repmatrix.swz_frame_blocks.blocks": total(["repmatrix.swz_frame_blocks"], "blocks"),
        "repmatrix.swz_frame_blocks.frame_entries":
            total(["repmatrix.swz_frame_blocks"], "frame_entries"),
        "repmatrix.s_generators.busy_s": idx.busy(["repmatrix.s_generators"]),
        "repmatrix.check_defining_relations.self_s":
            idx.self_time(["repmatrix.check_defining_relations"]),
        "repmatrix.check_defining_relations.samples":
            total(["repmatrix.check_defining_relations"], "samples"),
        "repmatrix.relation_products.busy_s": idx.busy(rel),
        "repmatrix.relation_products.mults": total(rel, "mults"),
        "repmatrix.relation_products.max_bits": max(idx.counters(rel, "max_bits"), default=0),
        "repmatrix.relation_products.int64_safe_ratio":
            ratio(total(rel, "int64_safe"), total(rel, "products")),
        "tensor.laurent.busy_s": idx.busy(bench_trace.LAURENT_OPS),
        "tensor.laurent.matmuls": idx.count(["tensor.laurent.matmul"]),
        "tensor.laurent.window_retries":
            sum(1 for r in idx.counters(window, "raised") if r == "_WindowExhausted"),
        "tensor.transpose_legs.busy_s": idx.busy(["tensor.transpose_legs"]),
        "linalg.to_int_scaled.busy_s": idx.busy(["linalg.to_int_scaled"]),
        "linalg.to_int_scaled.calls": idx.count(["linalg.to_int_scaled"]),
        "linalg.scaled_matmul.calls": idx.count(mm),
        "linalg.scaled_matmul.busy_s": idx.busy(mm),
        "linalg.scaled_matmul.mults": total(mm, "mults"),
        "linalg.scaled_matmul.max_bits": max(idx.counters(mm, "max_bits"), default=0),
        "linalg.scaled_matmul.int64_safe_ratio": ratio(total(mm, "int64_safe"), idx.count(mm)),
        "linalg.rank_exact.busy_s": idx.busy(rank),
        "linalg.rank_exact.calls": idx.count(rank),
        "linalg.rank_exact.deficient_ratio": ratio(total(rank, "deficient"), idx.count(rank)),
        "linalg.nullspace_exact.busy_s": idx.busy(null),
        "linalg.nullspace_exact.calls": idx.count(null),
        "linalg.nullspace_exact.max_cols": max(idx.counters(null, "cols"), default=0),
        "irreducibility.verdict.busy_s": idx.busy(["irreducibility.verdict"]),
        "irreducibility.phi_leading.self_s": idx.self_time(["irreducibility.phi_leading"]),
        "irreducibility.commutant_dim.self_s": idx.self_time(["irreducibility.commutant_dim"]),
        "exactnum.series_at_infinity.busy_s": idx.busy(["exactnum.series_at_infinity"]),
        "exactnum.laurent_at.busy_s": idx.busy(["exactnum.laurent_at"]),
        "cli.scan.busy_s": idx.busy(["cli.scan"]),
    }
    notes = []
    root = "irreducibility.verdict"
    verdict_s = idx.busy([root])
    if verdict_s:
        names = sorted(idx.names_under(root))
        parts = {root: idx.self_time([root])}
        parts.update({n: idx.self_time([n], within={root}) for n in names})
        notes.append(f"self times under {root} (busy {verdict_s:.4f} s):")
        for n, s in sorted(parts.items(), key=lambda kv: -kv[1]):
            notes.append(f"  {s:9.4f} s  {100 * s / verdict_s:5.1f}%  {n}")
        notes.append(f"  sum of self times / verdict busy = {sum(parts.values()) / verdict_s:.6f}")
    return m, notes


# ---------------------------------------------------------------------------
# reporting

def environment() -> list[str]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}",
        f"commit {git_commit()}",
    ]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def units(trace: int) -> dict:
    """Metric names and units the contract asks of this pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    cls = bench_workloads.WORKLOADS[args.workload]
    passes = traced if args.trace else untraced
    outcome, metrics, notes = passes(cls, args.seed, args.seconds)
    wanted = units(args.trace)
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metric set differs from the contract: "
                           f"{sorted(set(metrics) ^ set(wanted))}")
    for line in environment():
        print(line)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    for line in notes:
        print(line)
    for name in wanted:
        print(f"  {name} = {metrics[name]!r} {wanted[name]}")
    for line in outcome.broken:
        print(f"INCORRECT: {line}")
    result = {
        "correct": not outcome.broken and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.errors,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own child process."""
    for line in environment():
        print(line)
    status = 0
    for name in bench_workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"\n== {name} (trace {trace}): correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for line in lines[2:-1]:
                print(line)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(bench_workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
