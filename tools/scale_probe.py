"""Print stage times of twistfusion at so3 modules of dimension 9, 18 and 27.

    python3 tools/scale_probe.py [--stages LIST]

The package is imported from ``src/`` next to this script.  The modules are
so3 ``1,1:-1/3;1,1:1/5`` (dim 9), ``1,1:1/5;2:-3/7`` (dim 18) and
``3,2,1/2,1:1/7`` (dim 27).  LIST is a comma list of stages, run in this
order, default all of them:

  * ``phi``: ``irreducibility.phi_leading``, pair blocks and frame product,
    with how many ``int_matmul`` calls it made, how many of them failed the
    int64 certificate and ran on Python ints, and the largest entry and
    the content of the integer phi matrix in bits; for the dim-9 and dim-18
    modules, a second ``warm`` line times it again at another point of the
    same shape (``1,1:2/7;1,1:-3/11`` and ``1,1:-2/9;2:4/11``), whose pair
    and S blocks come from the block cache the first point filled;
  * ``rank``: ``irreducibility.surjectivity`` of that phi (needs ``phi``);
  * ``witness``: ``irreducibility.phi_witness``, the residue witness an
    off-wall verdict runs instead of ``phi`` and ``rank``, with the
    witnessed Laurent order and rank, or why a verdict would fall back to
    the exact path; a ``warm`` line as for ``phi`` (after ``phi`` the first
    line is warm too, since its blocks are cached);
  * ``burnside``: ``irreducibility.burnside``, the Burnside growth of the
    algebra the S(u) coefficients generate, with its dimension, the number
    of words and whether the exact closure proof ran (only when the words
    are fewer than (dim Z)^2);
  * ``commutant``: ``irreducibility.commutant_dim`` at the default K, which
    no verdict reads;
  * ``relations``: ``repmatrix.check_defining_relations``, with the number
    of RTT and reflection samples decided by the one exact float64 kernel
    and by residue kernels, and how many residue kernels (primes) those
    took;
  * ``scan``: once, after the modules, ``cli.main`` running ``scan --jobs 2``
    and then ``scan --jobs 1`` over the 4 points of SCAN_GRID on the dim-9
    shape so3 ``1,1;1,1``, each twice in this process.  The first ``--jobs
    2`` run pays for starting the worker pool, the second reuses it; the
    ``--jobs 1`` runs show the same points without workers.  Run alone
    (``--stages scan``), the first run of each computes cold points, the
    second warm ones; after the other stages the shape's blocks are already
    cached here, and the workers inherit them when they fork.

At dim 27, ``phi`` and ``witness`` take minutes (both build the pair
blocks); ``--stages relations`` runs in seconds.
Times are wall times of one run in this process.
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
STAGES = ("phi", "rank", "witness", "burnside", "commutant", "relations", "scan")
# each module with a second point of its shape for the warm phi line
MODULES = (("1,1:-1/3;1,1:1/5", "1,1:2/7;1,1:-3/11"),
           ("1,1:1/5;2:-3/7", "1,1:-2/9;2:4/11"),
           ("3,2,1/2,1:1/7", None))
SCAN_GRID = "-1/3,2/7;1/5,-3/11"


def _record_kernels(repmatrix) -> Counter:
    """Count, per relation, the samples on each kernel path: rebinds
    ``float_kernels`` and the two relation checks of ``repmatrix``."""
    counts: Counter = Counter()
    kernels = repmatrix.float_kernels
    relation = [None]

    def recording(arrays, bound, inner, weight):
        primes = 0
        for arrays, p in kernels(arrays, bound, inner, weight):
            primes += p is not None
            yield arrays, p
        counts[relation[0], "residue" if primes else "exact"] += 1
        counts[relation[0], "primes"] += primes

    def labelled(name, check):
        def run(*args):
            relation[0] = name
            return check(*args)
        return run

    repmatrix.float_kernels = recording
    repmatrix._rtt_holds = labelled("rtt", repmatrix._rtt_holds)
    repmatrix._reflection_holds = labelled("reflection", repmatrix._reflection_holds)
    return counts


def _record_matmuls(linalg, modules) -> Counter:
    """Count ``int_matmul`` calls and those that fail the int64 certificate:
    rebinds ``int_matmul`` in ``linalg`` and in every module that imports it."""
    counts: Counter = Counter()
    int_matmul = linalg.int_matmul

    def recording(A, B):
        bound = max(linalg.max_abs(A), 1) * max(linalg.max_abs(B), 1) * A.shape[1]
        counts["calls"] += 1
        counts["python"] += not linalg.int64_certified(bound)
        return int_matmul(A, B)

    for mod in (linalg,) + modules:
        mod.int_matmul = recording
    return counts


def _phi_note(linalg, phi, matmuls: Counter) -> str:
    mat = phi.coeff.mat
    content = math.gcd(*mat.ravel().tolist())
    return (f"order {phi.order}; {matmuls['calls']} int_matmul, {matmuls['python']} "
            f"past int64; entries {linalg.max_abs(mat).bit_length()} bits, "
            f"content {content.bit_length()} bits")


def _witness_note(irr, Z, witness) -> str:
    p, full = irr._WITNESS_PRIME, Z.dimZ ** 2
    if witness is None:
        return f"falls back: p = {p} overflows a float64 slot product"
    order, rank = witness
    if rank == 0:
        return f"falls back: residue zero mod {p} at order {order}"
    if rank < full:
        return f"falls back: rank {rank} of {full} mod {p}"
    return f"order {order}, rank {rank} of {full} mod {p}"


def _timed(label: str, fn, note):
    t0 = time.perf_counter()
    out = fn()
    print(f"  {label:<26}{time.perf_counter() - t0:9.3f} s   {note(out)}", flush=True)
    return out


def probe(tf, modules: str, warm, stages, counts: Counter, matmuls: Counter) -> None:
    irr, repmatrix = tf.irreducibility, tf.repmatrix
    so3 = tf.tensor.GForm.default("so", 3)
    Z = repmatrix.FusedModuleSpec.from_string(so3, modules)
    print(f"so3 {modules}  dim {Z.dimZ}", flush=True)
    if "phi" in stages:
        matmuls.clear()
        phi = _timed("phi_leading", lambda: irr.phi_leading(Z),
                     lambda p: _phi_note(tf.linalg, p, matmuls))
        if "rank" in stages:
            _timed("surjectivity", lambda: irr.surjectivity(phi),
                   lambda r: f"rank {r[0]} of {Z.dimZ ** 2}")
        if warm is not None:
            matmuls.clear()
            W = repmatrix.FusedModuleSpec.from_string(so3, warm)
            _timed("phi_leading (warm)", lambda: irr.phi_leading(W),
                   lambda p: f"at {warm}; " + _phi_note(tf.linalg, p, matmuls))
    if "witness" in stages:
        _timed("phi_witness", lambda: irr.phi_witness(Z), lambda w: _witness_note(irr, Z, w))
        if warm is not None:
            W = repmatrix.FusedModuleSpec.from_string(so3, warm)
            _timed("phi_witness (warm)", lambda: irr.phi_witness(W),
                   lambda w: f"at {warm}; " + _witness_note(irr, W, w))
    if "burnside" in stages:
        _timed("burnside", lambda: irr.burnside(Z),
               lambda b: f"dim {b.dim} of {Z.dimZ ** 2}; {len(b.words)} words, closure proof "
                         f"{'ran' if b.closure_proved else 'not needed'}")
    if "commutant" in stages:
        K = irr.default_truncation(Z)
        _timed("commutant_dim", lambda: irr.commutant_dim(Z, K), lambda c: f"dim {c[0]} (K = {K})")
    if "relations" in stages:
        counts.clear()
        _timed("check_defining_relations", lambda: repmatrix.check_defining_relations(Z),
               lambda rep: "proven" if rep.proven else "NOT proven")
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
    matmuls = _record_matmuls(tf.linalg, (tf.tensor, tf.repmatrix, tf.irreducibility))
    if set(stages) - {"scan"}:
        for modules, warm in MODULES:
            probe(tf, modules, warm, stages, counts, matmuls)
    if "scan" in stages:
        scan_probe(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
