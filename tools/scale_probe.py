"""Print stage times of twistfusion at modules of dimension 6 to 36.

    python3 tools/scale_probe.py [--stages LIST]

The package is imported from ``src/`` next to this script.  The modules are
so3 ``1,1:-1/3;1,1:1/5`` (dim 9), ``1,1:1/5;2:-3/7`` (dim 18) and
``3,2,1/2,1:1/7`` (dim 27), so4 ``1,1:1/5;1,1:-2/7`` (dim 36), which runs
only the ``witness`` and ``burnside`` stages, the sp2 wall points
``1:1/2;2:-2/5`` and ``1:2/5;2:7/5`` (dim 6), which run only the ``wall``
stage, and sp2 ``2,1:-1/3`` (dim 2), which runs only the ``relations``
stage.  LIST is a comma list of stages, run in this order, default all of
them:

  * ``phi``: ``irreducibility.phi_leading``, pair blocks and frame product,
    with how many ``int_matmul`` calls it made, how many of them failed the
    int64 certificate and ran on Python ints, and the largest entry and
    the content of the integer phi matrix in bits; for the dim-9 and dim-18
    modules, a second ``warm`` line times it again at another point of the
    same shape (``1,1:2/7;1,1:-3/11`` and ``1,1:-2/9;2:4/11``), whose pair
    and S blocks come from the block cache the first point filled;
  * ``rank``: ``irreducibility.surjectivity`` of that phi (needs ``phi``);
  * ``witness``: ``irreducibility.phi_witness``, the residue witness an
    off-wall verdict runs instead of ``phi`` and ``rank``: the shape's
    witness plan (``repmatrix.WitnessPlan``, built once per shape) reads
    each block's lowest frame mod p from its frame residues, without
    substituting the blocks exactly.  It prints the witnessed Laurent order
    and rank, or why they do not decide (a zero residue, also where a
    block's residue cannot tell its lowest frame, or a rank below (dim
    Z)^2): a verdict then takes the exact path instead.  It adds a ``warm``
    line at the second point of the shape, for the dim-9, dim-18 and dim-36
    modules (after ``phi`` the first line is warm too, since its blocks are
    cached).  The warm dim-18 line reads 11-13 ms in some processes and
    55-70 ms in others, on any checkout: OpenBLAS threads on the small
    stacked products of its leg contractions ((1, 5832, 18) @ (1, 18, 18),
    7-11 ms each in the slow mode against 0.1-0.2 ms) set the time, not
    the code.  ``OPENBLAS_NUM_THREADS=1`` in the environment makes it stable
    at 11-13 ms; the tool does not set it, so compare dim-18 rows only
    between runs made with the same setting.  Below each line, the plan's one-time build (cold; ``plan
    cached`` on a warm line), the witness time split between the plan's
    residue half (``WitnessPlan.residues``) and rank half
    (``WitnessPlan.ranks``), and the number of the plan's blocks (connected
    components of a support that holds every point's contraction matrix)
    with the largest;
  * ``burnside``: ``irreducibility.burnside``, the Burnside growth of the
    algebra the sampled S(u0) blocks generate, with its dimension, the
    number of words and whether the exact closure proof ran (only when the
    words are fewer than (dim Z)^2), split as in the ``wall`` stage below;
  * ``wall``: the steps of a verdict at a wall point where phi is not
    surjective, each the best of WALL_RUNS runs on a fresh spec with warm
    block caches: the exact phi (``phi_leading``), its exact rank
    (``surjectivity``) and ``burnside``, split into the sampled generators
    (``algebra_generators``, the integer S(u0) blocks, and the ``_modp_rref``
    that picks the ones to grow from), growth (``_grow_mod_p``) and the
    closure proof (the rest of ``burnside``);
  * ``commutant``: ``irreducibility.commutant_dim`` at the default K, which
    no verdict reads;
  * ``relations``: ``repmatrix.check_defining_relations`` once (its
    aux-factor blocks cold unless an earlier stage built them), then the
    best of RELATION_RUNS runs on fresh specs with warm caches, split
    between sampling T from the cached blocks (``_t_samples``), forming S
    and the block stacks (the rest of ``_relation_samples``), the R and R'
    stacks (``_aux_stacks``, kept per form and grid) and the two kernel
    decisions (``_rtt_holds`` and ``_reflection_holds``, each one
    ``_decide`` call); then the number of RTT and reflection sample pairs
    decided by the exact float64 kernel and by residue kernels, and how many
    residue kernels (primes) those pairs took in all, counted per pair
    although one call decides them all.  The sp2 ``2,1:-1/3`` row (dim 2)
    runs only this stage: a module of the size that sets the median of the
    benchmark's relations-sweep, where per-call overhead, not arithmetic,
    sets the time;
  * ``echelon``: once, after the modules, ``linalg.echelon`` on three 40 x
    60 integer matrices of rank 40 with entries uniform in +-2^20, +-2^30
    and +-2^40, drawn in that order from ``np.random.default_rng(1)``: the
    median of ECHELON_RUNS times of each, the primes a run draws and the
    reconstructions it tries (``_modp_rref`` and ``_lift`` calls);
  * ``scan``: once, after the modules, ``cli.main`` running ``scan --jobs 2``
    and then ``scan --jobs 1`` over the 4 points of SCAN_GRID on the dim-9
    shape so3 ``1,1;1,1``, each twice in this process.  The first ``--jobs
    2`` run pays for starting the worker pool, the second reuses it; the
    ``--jobs 1`` runs show the same points without workers.  Run alone
    (``--stages scan``), the first run of each computes cold points, the
    second warm ones; after the other stages the shape's blocks are already
    cached here, and the workers inherit them when they fork.  Then, for
    each scan-walls grid of the benchmark at seed 1 (read from
    ``perfbench/bench_workloads.py``), the split a scan makes: how many
    points the batched witness (``irreducibility.phi_witnesses``) decides
    and how many it sends to the exact path, the batch time and the time
    of the exact verdicts of the points sent on, all in this process, each
    the best of SCAN_RUNS runs on fresh specs after one run that fills the
    caches.

At dim 27, on a 2-vCPU Xeon VM, ``phi`` takes 7-10 s and ``witness``
3.6 s, most of it building the two breve pair blocks (the plan's build
0.1 s, residues 0.27 s, ranks 0.07 s).  In ``--stages relations`` the
warm ``check_defining_relations`` takes 16-28, 46-61 and 161-178 ms at dims
9, 18 and 27 and 1.0-1.7 ms at the dim-2 sp2 row, of which T sampling is
0.6-0.8, 0.8-1.0, 1.1-1.6 and 0.11-0.20 ms and the kept R and R' stacks
0.01-0.03 ms; the kernel decisions take the rest, the dim-27 reflection
decision 127-139 ms with 40 of its 81 samples on three primes each.  The
dim-36 witness takes 1.1 s cold, of which the plan's build 0.5 s, and
0.16-0.21 s warm; the dim-9 one 8 ms cold and under 1 ms warm.  Times are
wall times of one run in this process, except the best-of-runs of the
``wall`` stage and of the warm ``relations`` lines.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import os
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("phi", "rank", "witness", "burnside", "wall", "commutant", "relations", "echelon",
          "scan")
# the stages that run once, not per module
ONCE = ("echelon", "scan")
# (form, N, modules, a second point of the shape for the warm lines, the
# stages the module runs: None for all)
MODULES = (("so", 3, "1,1:-1/3;1,1:1/5", "1,1:2/7;1,1:-3/11", None),
           ("so", 3, "1,1:1/5;2:-3/7", "1,1:-2/9;2:4/11", None),
           ("so", 3, "3,2,1/2,1:1/7", None, None),
           ("so", 4, "1,1:1/5;1,1:-2/7", "1,1:2/7;1,1:-3/11", ("witness", "burnside")),
           ("sp", 2, "1:1/2;2:-2/5", None, ("wall",)),
           ("sp", 2, "1:2/5;2:7/5", None, ("wall",)),
           ("sp", 2, "2,1:-1/3", None, ("relations",)))
WALL_RUNS = 20
RELATION_RUNS = 10
SCAN_GRID = "-1/3,2/7;1/5,-3/11"
SCAN_RUNS = 10
ECHELON_BITS = (20, 30, 40)
ECHELON_RUNS = 3


def _record_kernels(repmatrix) -> Counter:
    """Count, per relation, the sample pairs on each kernel path and the
    primes they took: rebinds ``float_kernels`` and the two relation sides
    of ``repmatrix``.  One relation check decides a batch of pairs, and each
    kernel hands them to the sides a chunk at a time; a pair counts once as
    exact or residue (at the first prime of its kernel set), and once per
    prime it takes."""
    counts: Counter = Counter()
    kernels = repmatrix.float_kernels
    first = [False]

    def recording(arrays, bound, inner):
        for k, (arrays, p) in enumerate(kernels(arrays, bound, inner)):
            first[0] = k == 0
            yield arrays, p

    def counted(name, sides):
        def run(*args):
            # the pairs of the call: the leading axes of its work buffers
            p, pairs = args[-2], math.prod(args[-1][0].shape[:-6])
            counts[name, "exact" if p is None else "primes"] += pairs
            counts[name, "residue"] += pairs * (p is not None and first[0])
            return sides(*args)
        return run

    repmatrix.float_kernels = recording
    repmatrix._rtt_sides = counted("rtt", repmatrix._rtt_sides)
    repmatrix._reflection_sides = counted("reflection", repmatrix._reflection_sides)
    return counts


def _record_relation_split(repmatrix) -> Counter:
    """Accumulate the time of the steps of a relation check: rebinds
    ``_t_samples`` (T at every point, from the cached blocks),
    ``_aux_stacks`` (R and R'), ``_relation_samples`` (both of them, S
    and the block stacks) and the two kernel decisions ``_rtt_holds`` and
    ``_reflection_holds`` of ``repmatrix``."""
    spent: Counter = Counter()

    def timed(name, fn):
        def run(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[name] += time.perf_counter() - t0
            return out
        return run

    for name in ("_t_samples", "_aux_stacks", "_relation_samples", "_rtt_holds",
                 "_reflection_holds"):
        setattr(repmatrix, name, timed(name, getattr(repmatrix, name)))
    return spent


def _record_matmuls(linalg, modules) -> Counter:
    """Count ``int_matmul`` calls and those that fail the int64 certificate:
    rebinds ``int_matmul`` in ``linalg`` and in every module that imports it."""
    counts: Counter = Counter()
    int_matmul = linalg.int_matmul

    def recording(A, B):
        out = int_matmul(A, B)
        counts["calls"] += 1
        counts["python"] += out.dtype == object
        return out

    for mod in (linalg,) + modules:
        mod.int_matmul = recording
    return counts


def _record_witness(repmatrix) -> dict:
    """Time the one-time build of each witness plan and the residue and rank
    halves of each witness, and keep the rank's residues and plan: rebinds
    ``__init__``, ``residues`` and ``ranks`` of ``repmatrix.WitnessPlan``."""
    seen: dict = {}
    plan = repmatrix.WitnessPlan

    def timed(name, fn):
        def run(self, *args):
            t0 = time.perf_counter()
            out = fn(self, *args)
            seen[name] = seen.get(name, 0.0) + time.perf_counter() - t0
            seen["plan"] = self
            return out
        return run

    for name in ("__init__", "residues", "ranks"):
        setattr(plan, name, timed(name, getattr(plan, name)))
    return seen


def _record_burnside(irr) -> dict:
    """Accumulate the time of the Burnside steps: rebinds
    ``algebra_generators`` and ``_modp_rref`` (which picks the generators to
    grow from) as the sampled generators, and ``_grow_mod_p`` as growth, in
    ``irreducibility``."""
    spent: dict = {}

    def timed(key, fn):
        def run(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
            return out
        return run

    irr.algebra_generators = timed("generators", irr.algebra_generators)
    irr._modp_rref = timed("generators", irr._modp_rref)
    irr._grow_mod_p = timed("growth", irr._grow_mod_p)
    return spent


def wall_probe(tf, form, modules: str, spent: dict) -> None:
    """Best-of-WALL_RUNS times of the steps of a non-surjective wall verdict."""
    irr, repmatrix = tf.irreducibility, tf.repmatrix
    best: dict = {}

    def keep(key, value):
        best[key] = min(best.get(key, value), value)

    for _ in range(WALL_RUNS + 1):  # the first run fills the caches
        Z = repmatrix.FusedModuleSpec.from_string(form, modules)
        t0 = time.perf_counter()
        phi = irr.phi_leading(Z)
        t1 = time.perf_counter()
        rank, surj = irr.surjectivity(phi)
        t2 = time.perf_counter()
        spent.clear()
        span = irr.burnside(Z)
        t3 = time.perf_counter()
        if _ == 0:
            continue
        keep("exact phi", t1 - t0)
        keep("exact rank", t2 - t1)
        keep("burnside", t3 - t2)
        for key in ("generators", "growth"):
            keep(key, spent.get(key, 0.0))
        keep("closure", t3 - t2 - spent.get("generators", 0.0) - spent.get("growth", 0.0))
    print(f"  wall verdict steps, best of {WALL_RUNS}: phi rank {rank} of {Z.dimZ ** 2}, "
          f"dim A_Z {span.dim}", flush=True)
    print(f"    exact phi {best['exact phi'] * 1e3:.2f} ms, exact rank {best['exact rank'] * 1e3:.2f} "
          f"ms, burnside {best['burnside'] * 1e3:.2f} ms: sampled generators "
          f"{best['generators'] * 1e3:.2f} ms, growth {best['growth'] * 1e3:.2f} ms, closure proof "
          f"{best['closure'] * 1e3:.2f} ms", flush=True)


def _witness_split(seen: dict) -> str:
    plan = seen["plan"]
    rows, cols = (plan.block_rows >= 0).sum(axis=1), (plan.block_cols >= 0).sum(axis=1)
    k = int((rows * cols).argmax())
    built = (f"plan built {seen['__init__']:.3f} s (cold)" if "__init__" in seen
             else "plan cached")
    return (f"    {built}; residues {seen['residues']:.3f} s, ranks {seen['ranks']:.3f} s; "
            f"{plan.D} x {plan.D} contraction, {len(rows)} blocks, largest {rows[k]} x {cols[k]}")


def _phi_note(linalg, phi, matmuls: Counter) -> str:
    mat = phi.coeff.mat
    content = math.gcd(*mat.ravel().tolist())
    return (f"order {phi.order}; {matmuls['calls']} int_matmul, {matmuls['python']} "
            f"past int64; entries {linalg.max_abs(mat).bit_length()} bits, "
            f"content {content.bit_length()} bits")


def _witness_note(irr, Z, witness) -> str:
    p, full = irr._WITNESS_PRIME, Z.dimZ ** 2
    order, rank = witness
    if rank == 0:
        return f"not decided, exact path: residue zero mod {p}"
    if rank < full:
        return f"not decided, exact path: rank {rank} of {full} mod {p}"
    return f"order {order}, rank {rank} of {full} mod {p}"


def _timed(label: str, fn, note):
    t0 = time.perf_counter()
    out = fn()
    print(f"  {label:<26}{time.perf_counter() - t0:9.3f} s   {note(out)}", flush=True)
    return out


def probe(tf, kind: str, N: int, modules: str, warm, stages, counts: Counter,
          matmuls: Counter, seen: dict, spent: dict, split: Counter) -> None:
    irr, repmatrix = tf.irreducibility, tf.repmatrix
    form = tf.tensor.GForm.default(kind, N)
    Z = repmatrix.FusedModuleSpec.from_string(form, modules)
    print(f"{kind}{N} {modules}  dim {Z.dimZ}", flush=True)
    if "phi" in stages:
        matmuls.clear()
        phi = _timed("phi_leading", lambda: irr.phi_leading(Z),
                     lambda p: _phi_note(tf.linalg, p, matmuls))
        if "rank" in stages:
            _timed("surjectivity", lambda: irr.surjectivity(phi),
                   lambda r: f"rank {r[0]} of {Z.dimZ ** 2}")
        if warm is not None:
            matmuls.clear()
            W = repmatrix.FusedModuleSpec.from_string(form, warm)
            _timed("phi_leading (warm)", lambda: irr.phi_leading(W),
                   lambda p: f"at {warm}; " + _phi_note(tf.linalg, p, matmuls))
    if "witness" in stages:
        seen.clear()
        _timed("phi_witness", lambda: irr.phi_witness(Z), lambda w: _witness_note(irr, Z, w))
        print(_witness_split(seen), flush=True)
        if warm is not None:
            seen.clear()
            W = repmatrix.FusedModuleSpec.from_string(form, warm)
            _timed("phi_witness (warm)", lambda: irr.phi_witness(W),
                   lambda w: f"at {warm}; " + _witness_note(irr, W, w))
            print(_witness_split(seen), flush=True)
    if "burnside" in stages:
        spent.clear()
        t0 = time.perf_counter()
        _timed("burnside", lambda: irr.burnside(Z),
               lambda b: f"dim {b.dim} of {Z.dimZ ** 2}; {len(b.words)} words, closure proof "
                         f"{'ran' if b.closure_proved else 'not needed'}")
        rest = time.perf_counter() - t0 - spent["generators"] - spent["growth"]
        print(f"    sampled generators {spent['generators']:.3f} s, growth {spent['growth']:.3f} s, "
              f"closure proof and the rest {rest:.3f} s", flush=True)
    if "wall" in stages:
        wall_probe(tf, form, modules, spent)
    if "commutant" in stages:
        K = irr.default_truncation(Z)
        _timed("commutant_dim", lambda: irr.commutant_dim(Z, K), lambda c: f"dim {c[0]} (K = {K})")
    if "relations" in stages:
        _timed("check_defining_relations", lambda: repmatrix.check_defining_relations(Z),
               lambda rep: "proven" if rep.proven else "NOT proven")
        best = None
        for _ in range(RELATION_RUNS):
            counts.clear()
            split.clear()
            t0 = time.perf_counter()
            repmatrix.check_defining_relations(repmatrix.FusedModuleSpec.from_string(form, modules))
            split["total"] = time.perf_counter() - t0
            if best is None or split["total"] < best["total"]:
                best = Counter(split)
        rest = best["_relation_samples"] - best["_t_samples"] - best["_aux_stacks"]
        print(f"  warm, best of {RELATION_RUNS}:{best['total'] * 1e3:13.3f} ms", flush=True)
        print(f"    split: T sampling {best['_t_samples'] * 1e3:.3f} ms, S and blocks "
              f"{rest * 1e3:.3f} ms, R and R' {best['_aux_stacks'] * 1e3:.3f} ms, RTT "
              f"decision {best['_rtt_holds'] * 1e3:.3f} ms, reflection decision "
              f"{best['_reflection_holds'] * 1e3:.3f} ms", flush=True)
        for rel in ("rtt", "reflection"):
            print(f"    {rel + ':':<12}{counts[rel, 'exact']:4d} exact float64, "
                  f"{counts[rel, 'residue']:4d} residue samples ({counts[rel, 'primes']} primes)")


def echelon_probe(linalg) -> None:
    """Median of ECHELON_RUNS times of ``echelon`` on a 40 x 60 integer
    matrix per entry width in ECHELON_BITS, with the primes and the
    reconstructions of a run: rebinds ``_modp_rref`` and ``_lift`` of
    ``linalg`` while it runs."""
    import numpy as np

    counts: Counter = Counter()
    rref, lift = linalg._modp_rref, linalg._lift

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)
        return run

    linalg._modp_rref, linalg._lift = counted("primes", rref), counted("lifts", lift)
    rng = np.random.default_rng(1)
    print(f"echelon of 40 x 60 integer matrices, median of {ECHELON_RUNS}", flush=True)
    for bits in ECHELON_BITS:
        A = rng.integers(-(1 << bits), 1 << bits, size=(40, 60), endpoint=True)
        times = []
        for _ in range(ECHELON_RUNS):
            counts.clear()
            t0 = time.perf_counter()
            pivots, _ = linalg.echelon(A)
            times.append(time.perf_counter() - t0)
        print(f"  entries +-2^{bits}: {sorted(times)[len(times) // 2]:.3f} s, rank {len(pivots)}, "
              f"{counts['primes']} primes, {counts['lifts']} reconstructions tried", flush=True)
    linalg._modp_rref, linalg._lift = rref, lift


def scan_probe(tf, cli) -> None:
    argv = ["scan", "--n", "3", "--form", "so", "--modules", "1,1;1,1", f"--grid={SCAN_GRID}",
            "--json"]
    print(f"scan so3 1,1;1,1 --grid={SCAN_GRID}  (4 points, dim 9)", flush=True)
    for jobs in (2, 1):
        for run in ("first", "again"):
            def quiet_scan():
                with redirect_stdout(io.StringIO()):
                    return cli.main(argv + ["--jobs", str(jobs)])

            _timed(f"scan --jobs {jobs} ({run})", quiet_scan, lambda code: f"exit {code}")
    scan_walls_split(tf)


def scan_walls_split(tf) -> None:
    """For each seed-1 scan-walls grid: the points the batched witness
    decides, those it sends to the exact path, and the best of SCAN_RUNS
    times of the batch and of the exact verdicts of the points sent on."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import bench_workloads

    irr, repmatrix = tf.irreducibility, tf.repmatrix
    print("scan-walls grids, seed 1: batched witness and exact path, best of "
          f"{SCAN_RUNS}", flush=True)
    for kind, N, mods, lists in bench_workloads.ScanWalls(1).grids:
        form = tf.tensor.GForm.default(kind, N)
        texts = [";".join(f"{d}:{Fraction(z)}" for d, z in zip(mods.split(";"), zs))
                 for zs in itertools.product(*lists)]
        best = {}
        for run in range(SCAN_RUNS + 1):  # the first run fills the caches
            Zs = [repmatrix.FusedModuleSpec.from_string(form, text) for text in texts]
            t0 = time.perf_counter()
            witnesses = irr.phi_witnesses(Zs)
            t1 = time.perf_counter()
            rest = [(Z, w) for Z, w in zip(Zs, witnesses) if w[1] < Z.dimZ ** 2]
            for Z, w in rest:
                irr.verdict(Z, witness=w)
            t2 = time.perf_counter()
            if run:
                best["batch"] = min(best.get("batch", t1 - t0), t1 - t0)
                best["exact"] = min(best.get("exact", t2 - t1), t2 - t1)
        print(f"  {kind}{N} {mods:<4} {texts[0].split(';')[0]:<10} {len(texts)} points: "
              f"{len(texts) - len(rest)} decided by the batch, {len(rest)} to the exact path; "
              f"batch {best['batch'] * 1e3:.2f} ms, exact {best['exact'] * 1e3:.2f} ms",
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--stages", default=",".join(STAGES))
    args = ap.parse_args(argv)
    stages = args.stages.split(",")
    unknown = set(stages) - set(STAGES)
    if unknown or ("rank" in stages and "phi" not in stages):
        ap.error(f"stages are a subset of {','.join(STAGES)}, with phi for rank")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twistfusion as tf
    from twistfusion import cli

    counts = _record_kernels(tf.repmatrix)
    split = _record_relation_split(tf.repmatrix)
    matmuls = _record_matmuls(tf.linalg, (tf.tensor, tf.repmatrix, tf.irreducibility))
    seen = _record_witness(tf.repmatrix)
    spent = _record_burnside(tf.irreducibility)
    for kind, N, modules, warm, only in MODULES:
        run = [s for s in stages if s in (only or set(STAGES) - {"wall", *ONCE})]
        if run:
            probe(tf, kind, N, modules, warm, run, counts, matmuls, seen, spent, split)
    if "echelon" in stages:
        echelon_probe(tf.linalg)
    if "scan" in stages:
        scan_probe(tf, cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
