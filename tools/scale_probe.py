"""Print stage times of twistfusion at modules of dimension 6 to 36.

    python3 tools/scale_probe.py [--stages LIST]

The package is imported from ``src/`` next to this script.  The modules are
so3 ``1,1:-1/3;1,1:1/5`` (dim 9), ``1,1:1/5;2:-3/7`` (dim 18) and
``3,2,1/2,1:1/7`` (dim 27), so4 ``1,1:1/5;1,1:-2/7`` (dim 36), which runs
only the ``witness`` and ``burnside`` stages, and the sp2 wall points
``1:1/2;2:-2/5`` and ``1:2/5;2:7/5`` (dim 6), which run only the ``wall``
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
    off-wall verdict runs instead of ``phi`` and ``rank``: it reads each
    block's lowest frame mod p from the residues of the cached argument
    block, without substituting the blocks exactly.  It prints the
    witnessed Laurent order and rank, or why they do not decide (a zero
    residue, also where a block's residue cannot tell its lowest frame, or
    a rank below (dim Z)^2): a verdict then takes the exact path instead.
    It adds a ``warm`` line as for ``phi`` (after ``phi`` the first line is
    warm too, since its blocks are cached).  Below each line, the
    witness time split between its residue product (``term_residue``) and
    its rank mod p (``rank_mod_p``), and the number of independent blocks
    (connected components) of the contraction matrix with the largest;
  * ``burnside``: ``irreducibility.burnside``, the Burnside growth of the
    algebra the S(u) coefficients generate, with its dimension, the number
    of words and whether the exact closure proof ran (only when the words
    are fewer than (dim Z)^2);
  * ``wall``: the steps of a verdict at a wall point where phi is not
    surjective, each the best of WALL_RUNS runs on a fresh spec with warm
    block caches: the exact phi (``phi_leading``), its exact rank
    (``surjectivity``) and ``burnside``, split into the residue generators
    (``algebra_generators`` with a prime), growth (``_grow_mod_p``) and the
    closure proof (the rest of ``burnside``, which includes the exact
    generators, ``algebra_generators`` without a prime, shown apart);
  * ``commutant``: ``irreducibility.commutant_dim`` at the default K, which
    no verdict reads;
  * ``relations``: ``repmatrix.check_defining_relations``, with its time
    split between building the T frames (once per module, so 0 after other
    stages), sampling T, S, R and R' at every point and the RTT and
    reflection kernels, the number of RTT and reflection sample pairs
    decided by the exact float64 kernel and by residue kernels, and how many
    residue kernels (primes) those pairs took in all, counted per pair
    although one call decides them all;
  * ``scan``: once, after the modules, ``cli.main`` running ``scan --jobs 2``
    and then ``scan --jobs 1`` over the 4 points of SCAN_GRID on the dim-9
    shape so3 ``1,1;1,1``, each twice in this process.  The first ``--jobs
    2`` run pays for starting the worker pool, the second reuses it; the
    ``--jobs 1`` runs show the same points without workers.  Run alone
    (``--stages scan``), the first run of each computes cold points, the
    second warm ones; after the other stages the shape's blocks are already
    cached here, and the workers inherit them when they fork.

At dim 27, on a 2-vCPU Xeon VM, ``phi`` takes 7-10 s and ``witness``
4.4-6 s, most of it building the two breve pair blocks.  ``--stages
relations`` takes about 0.5 s in all: ``check_defining_relations`` takes
0.020-0.022, 0.037-0.040 and 0.141-0.158 s at dims 9, 18 and 27, of which
sampling is 0.7-0.8, 1.2-1.4 and 2.1-2.3 ms, and the dim-27 reflection
kernels, 80 of its 81 samples on three primes each, 0.11-0.13 s.  The
dim-36 witness takes 0.5-0.6 s.
Times are wall times of one run in this process, except the ``wall``
stage's best-of-runs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("phi", "rank", "witness", "burnside", "wall", "commutant", "relations", "scan")
# (form, N, modules, a second point of the shape for the warm lines, the
# stages the module runs: None for all)
MODULES = (("so", 3, "1,1:-1/3;1,1:1/5", "1,1:2/7;1,1:-3/11", None),
           ("so", 3, "1,1:1/5;2:-3/7", "1,1:-2/9;2:4/11", None),
           ("so", 3, "3,2,1/2,1:1/7", None, None),
           ("so", 4, "1,1:1/5;1,1:-2/7", None, ("witness", "burnside")),
           ("sp", 2, "1:1/2;2:-2/5", None, ("wall",)),
           ("sp", 2, "1:2/5;2:7/5", None, ("wall",)))
WALL_RUNS = 20
SCAN_GRID = "-1/3,2/7;1/5,-3/11"


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

    def recording(arrays, bound, inner, weight):
        for k, (arrays, p) in enumerate(kernels(arrays, bound, inner, weight)):
            first[0] = k == 0
            yield arrays, p

    def counted(name, sides):
        def run(A, *args):
            p = args[-2]
            counts[name, "exact" if p is None else "primes"] += len(A)
            counts[name, "residue"] += len(A) * (p is not None and first[0])
            return sides(A, *args)
        return run

    repmatrix.float_kernels = recording
    repmatrix._rtt_sides = counted("rtt", repmatrix._rtt_sides)
    repmatrix._reflection_sides = counted("reflection", repmatrix._reflection_sides)
    return counts


def _record_relation_split(repmatrix) -> Counter:
    """Accumulate the time of the steps of a relation check: rebinds
    ``_t_data`` (the T frames, built once per module), ``_relation_samples``
    (T, S, R and R' at every point, T frames included) and the two relation
    kernels ``_rtt_holds`` and ``_reflection_holds`` of ``repmatrix``."""
    spent: Counter = Counter()

    def timed(name, fn):
        def run(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[name] += time.perf_counter() - t0
            return out
        return run

    for name in ("_t_data", "_relation_samples", "_rtt_holds", "_reflection_holds"):
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


def _record_witness(irr) -> dict:
    """Time the residue product and the rank of each witness, and keep the
    rank's matrix and prime: rebinds ``term_residue`` and ``rank_mod_p`` in
    ``irreducibility``."""
    seen: dict = {}

    def timed(name, fn):
        def run(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            seen[name] = time.perf_counter() - t0
            if name == "rank_mod_p":
                seen["matrix"], seen["p"] = args
            return out
        return run

    irr.term_residue = timed("term_residue", irr.term_residue)
    irr.rank_mod_p = timed("rank_mod_p", irr.rank_mod_p)
    return seen


def _record_burnside(irr) -> dict:
    """Accumulate the time of the Burnside steps: rebinds
    ``algebra_generators`` (residue or exact, by whether a prime is given)
    and ``_grow_mod_p`` in ``irreducibility``, and counts ``s_factors``
    and ``_modp_rref`` (which picks the generators to grow from), where
    ``irreducibility`` has them, with the residue generators."""
    spent: dict = {}

    def timed(name, fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            key = name(args, kwargs) if callable(name) else name
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
            return out
        return run

    irr.algebra_generators = timed(
        lambda a, k: "exact" if len(a) < 2 and k.get("p") is None else "residue",
        irr.algebra_generators)
    irr._grow_mod_p = timed("growth", irr._grow_mod_p)
    for name in ("s_factors", "_modp_rref"):
        if hasattr(irr, name):
            setattr(irr, name, timed("residue", getattr(irr, name)))
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
        for key in ("residue", "exact", "growth"):
            keep(key, spent.get(key, 0.0))
        keep("closure", t3 - t2 - spent.get("residue", 0.0) - spent.get("growth", 0.0))
    print(f"  wall verdict steps, best of {WALL_RUNS}: phi rank {rank} of {Z.dimZ ** 2}, "
          f"dim A_Z {span.dim}", flush=True)
    print(f"    exact phi {best['exact phi'] * 1e3:.2f} ms, exact rank {best['exact rank'] * 1e3:.2f} "
          f"ms, burnside {best['burnside'] * 1e3:.2f} ms: residue generators "
          f"{best['residue'] * 1e3:.2f} ms, growth {best['growth'] * 1e3:.2f} ms, closure proof "
          f"{best['closure'] * 1e3:.2f} ms (exact generators {best['exact'] * 1e3:.2f} ms)",
          flush=True)


def _witness_split(linalg, seen: dict) -> str:
    S = linalg.stacked_blocks(seen["matrix"])
    rows, cols = S.any(axis=2).sum(axis=1), S.any(axis=1).sum(axis=1)
    k = int((rows * cols).argmax())
    return (f"    term_residue {seen['term_residue']:.3f} s, rank_mod_p {seen['rank_mod_p']:.3f} s; "
            f"{seen['matrix'].shape[0]} x {seen['matrix'].shape[1]} contraction, "
            f"{S.shape[0]} blocks, largest {rows[k]} x {cols[k]}")


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
        print(_witness_split(tf.linalg, seen), flush=True)
        if warm is not None:
            seen.clear()
            W = repmatrix.FusedModuleSpec.from_string(form, warm)
            _timed("phi_witness (warm)", lambda: irr.phi_witness(W),
                   lambda w: f"at {warm}; " + _witness_note(irr, W, w))
            print(_witness_split(tf.linalg, seen), flush=True)
    if "burnside" in stages:
        _timed("burnside", lambda: irr.burnside(Z),
               lambda b: f"dim {b.dim} of {Z.dimZ ** 2}; {len(b.words)} words, closure proof "
                         f"{'ran' if b.closure_proved else 'not needed'}")
    if "wall" in stages:
        wall_probe(tf, form, modules, spent)
    if "commutant" in stages:
        K = irr.default_truncation(Z)
        _timed("commutant_dim", lambda: irr.commutant_dim(Z, K), lambda c: f"dim {c[0]} (K = {K})")
    if "relations" in stages:
        counts.clear()
        split.clear()
        _timed("check_defining_relations", lambda: repmatrix.check_defining_relations(Z),
               lambda rep: "proven" if rep.proven else "NOT proven")
        print(f"    split: T frames {split['_t_data']:.4f} s, sampling (T, S, R, R') "
              f"{split['_relation_samples'] - split['_t_data']:.4f} s, RTT kernels "
              f"{split['_rtt_holds']:.4f} s, reflection kernels {split['_reflection_holds']:.4f} s",
              flush=True)
        for rel in ("rtt", "reflection"):
            print(f"    {rel + ':':<12}{counts[rel, 'exact']:4d} exact float64, "
                  f"{counts[rel, 'residue']:4d} residue samples ({counts[rel, 'primes']} primes)")


def scan_probe(cli) -> None:
    argv = ["scan", "--n", "3", "--form", "so", "--modules", "1,1;1,1", f"--grid={SCAN_GRID}",
            "--json"]
    print(f"scan so3 1,1;1,1 --grid={SCAN_GRID}  (4 points, dim 9)", flush=True)
    for jobs in (2, 1):
        for run in ("first", "again"):
            def quiet_scan():
                with redirect_stdout(io.StringIO()):
                    return cli.main(argv + ["--jobs", str(jobs)])

            _timed(f"scan --jobs {jobs} ({run})", quiet_scan, lambda code: f"exit {code}")


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
    seen = _record_witness(tf.irreducibility)
    spent = _record_burnside(tf.irreducibility)
    if set(stages) - {"scan"}:
        for kind, N, modules, warm, only in MODULES:
            run = [s for s in stages if s in (only or set(STAGES) - {"wall"})]
            if run:
                probe(tf, kind, N, modules, warm, run, counts, matmuls, seen, spent, split)
    if "scan" in stages:
        scan_probe(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
