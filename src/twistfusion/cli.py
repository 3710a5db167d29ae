"""Command-line front end.

Subcommands: check-ybe, check-relations, fusion, duality, irreducible, scan.
Exit codes: 0 all requested checks pass, 1 a check failed or a computation
error occurred (the failing identity is named), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import re
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from functools import cache
from itertools import product

from .diagrams import parse_skew
from .errors import MalformedInput, TwistFusionError, WorkerLost
from .exactnum import parse_rational
from .fusion import fusion_operator, verify_fusion_invariants
from .irreducibility import phi_witnesses, verdict
from .repmatrix import FusedModuleSpec, check_defining_relations, duality_check, yang_matrices
from .tensor import GForm, embed_two_leg


def _emit(args, payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _form_from_args(args) -> GForm:
    if getattr(args, "g_file", None):
        try:
            with open(args.g_file) as fh:
                rows = json.load(fh)
        except (OSError, ValueError) as exc:
            raise MalformedInput(f"cannot read g matrix {args.g_file!r}: {exc}") from None
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
            raise MalformedInput(f"g matrix {args.g_file!r} is not a list of equal rows")
        form = GForm.from_matrix([[parse_rational(str(v)) for v in row] for row in rows])
        if form.N != args.n:
            raise TwistFusionError(f"g matrix is {form.N}x{form.N}, expected N={args.n}")
        if form.kind != args.form:
            raise TwistFusionError(f"g matrix symmetry is {form.kind!r}, flag says {args.form!r}")
        return form
    return GForm.default(args.form, args.n)


def _add_form_flags(sp):
    sp.add_argument("--n", type=int, default=2, help="site dimension N")
    sp.add_argument("--form", choices=("so", "sp"), default="so", help="bilinear form kind")
    sp.add_argument("--g-file", default=None, help="JSON file with a custom g matrix")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twistfusion")
    sub = p.add_subparsers(dest="command", required=True)

    ybe = sub.add_parser("check-ybe", help="Yang-Baxter identity at random rational triples")
    ybe.add_argument("--n", type=int, default=2)
    ybe.add_argument("--samples", type=int, default=5)
    ybe.add_argument("--seed", type=int, default=0)
    ybe.add_argument("--json", action="store_true")

    rel = sub.add_parser("check-relations", help="RTT and reflection relations on a module spec")
    _add_form_flags(rel)
    rel.add_argument("--modules", required=True, help="factors 'lam/mu:z;...'")
    rel.add_argument("--box-cap", type=int, default=6)
    rel.add_argument("--json", action="store_true")

    fus = sub.add_parser("fusion", help="fusion operator construction and invariants")
    fus.add_argument("--diagram", required=True, help="skew diagram 'lam/mu'")
    fus.add_argument("--n", type=int, default=2)
    fus.add_argument("--box-cap", type=int, default=6)
    fus.add_argument("--json", action="store_true")

    dua = sub.add_parser("duality", help="contragredient-module identity")
    _add_form_flags(dua)
    dua.add_argument("--diagram", required=True)
    dua.add_argument("--z", default="1/3")
    dua.add_argument("--json", action="store_true")

    irr = sub.add_parser("irreducible", help="single-point irreducibility verdict")
    _add_form_flags(irr)
    irr.add_argument("--modules", required=True)
    irr.add_argument("--box-cap", type=int, default=6)
    irr.add_argument("--json", action="store_true")

    scn = sub.add_parser("scan", help="verdicts over a grid of parameter points")
    _add_form_flags(scn)
    scn.add_argument("--modules", required=True, help="factor diagrams 'lam/mu;...' (':z' optional)")
    scn.add_argument("--grid", required=True, help="per-factor z lists 'a,b,c;d,e' (one list is broadcast)")
    scn.add_argument("--box-cap", type=int, default=6)
    scn.add_argument("--jobs", type=int, default=1)
    scn.add_argument("--json", action="store_true")
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parse_args leaves a parser unchanged."""
    return build_parser()


# ---------------------------------------------------------------------------

def cmd_check_ybe(args) -> int:
    rng = random.Random(args.seed)
    N = args.n
    form = GForm.orthogonal(N)
    rows = []
    ok = True
    for _ in range(args.samples):
        us = []
        while len(us) < 3:
            q = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
            if q not in us:
                us.append(q)
        u1, u2, u3 = us
        R12, _, _, _ = yang_matrices(form, u1, u2)
        R13, _, _, _ = yang_matrices(form, u1, u3)
        R23, _, _, _ = yang_matrices(form, u2, u3)
        A12 = embed_two_leg(R12, 1, 2, 3)
        A13 = embed_two_leg(R13, 1, 3, 3)
        A23 = embed_two_leg(R23, 2, 3, 3)
        passed = (A12 @ A13 @ A23) == (A23 @ A13 @ A12)
        ok &= passed
        rows.append({"u": [str(u) for u in us], "passed": passed})
    if args.json:
        _emit(args, {"check": "yang-baxter", "n": N, "samples": rows, "passed": ok})
    else:
        for r in rows:
            print(f"({', '.join(r['u'])}): {'ok' if r['passed'] else 'FAILED'}")
        print(f"yang-baxter N={N}: {'pass' if ok else 'FAIL'}")
    if not ok:
        print("FAILED: Yang-Baxter identity", file=sys.stderr)
        return 1
    return 0


def cmd_check_relations(args) -> int:
    form = _form_from_args(args)
    spec = FusedModuleSpec.from_string(form, args.modules, box_cap=args.box_cap)
    rep = check_defining_relations(spec)
    payload = {
        "spec": spec.to_json(),
        "degree_bound": rep.degree_bound,
        "rtt": {"checked": rep.rtt_checked, "failures": rep.rtt_failures},
        "reflection": {"checked": rep.reflection_checked, "failures": rep.reflection_failures},
        "singular_samples": rep.singular_samples,
        "proven": rep.proven,
        "passed": rep.passed,
    }
    if args.json:
        _emit(args, payload)
    else:
        print(f"module: {spec.spec_string()}  (N={spec.N}, {form.kind})")
        print(f"RTT: {rep.rtt_checked} samples, failures: {len(rep.rtt_failures)}")
        print(f"reflection: {rep.reflection_checked} samples, failures: {len(rep.reflection_failures)}")
        print(f"verdict: {'pass' if rep.passed else 'FAIL'}")
    if not rep.passed:
        name = "RTT" if rep.rtt_failures else "reflection relation"
        print(f"FAILED: {name}", file=sys.stderr)
        return 1
    return 0


def cmd_fusion(args) -> int:
    dia = parse_skew(args.diagram)
    F = fusion_operator(dia, args.n, box_cap=args.box_cap)
    rep = verify_fusion_invariants(F)
    payload = {
        "diagram": dia.to_json(),
        "n": args.n,
        "dim": rep.dim,
        "ssyt": rep.ssyt,
        "t_invariant": rep.t_invariant,
        "sharp_conjugation": rep.sharp_conjugation,
        "slope_independent": rep.slope_independent,
        "dimension_matches": rep.dimension_matches,
        "passed": rep.passed,
    }
    if args.json:
        _emit(args, payload)
    else:
        print(f"diagram {dia}, N={args.n}: dim {rep.dim} (tableau count {rep.ssyt})")
        for key in ("t_invariant", "sharp_conjugation", "slope_independent", "dimension_matches"):
            print(f"  {key}: {'ok' if payload[key] else 'FAILED'}")
    if not rep.passed:
        bad = [k for k in ("t_invariant", "sharp_conjugation", "slope_independent", "dimension_matches") if not payload[k]]
        print(f"FAILED: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def cmd_duality(args) -> int:
    form = _form_from_args(args)
    dia = parse_skew(args.diagram)
    rep = duality_check(dia, parse_rational(args.z), form)
    payload = {
        "diagram": dia.to_json(),
        "n": args.n,
        "form": form.kind,
        "z": str(rep.z),
        "K": rep.K,
        "failures": rep.failures,
        "passed": rep.passed,
    }
    if args.json:
        _emit(args, payload)
    else:
        print(f"duality {dia} at z={rep.z} ({form.kind}, N={args.n}): "
              f"{'pass' if rep.passed else 'FAIL'} (orders checked: 0..{rep.K})")
    if not rep.passed:
        print("FAILED: contragredient duality identity", file=sys.stderr)
        return 1
    return 0


def cmd_irreducible(args) -> int:
    form = _form_from_args(args)
    spec = FusedModuleSpec.from_string(form, args.modules, box_cap=args.box_cap)
    rep = verdict(spec)
    if args.json:
        _emit(args, rep.to_json())
    else:
        print(f"module: {spec.spec_string()}  (N={spec.N}, {form.kind})")
        print(f"on wall: {rep.on_wall or 'no'}")
        print(f"Laurent order {rep.laurent_order}, rank {rep.phi_rank}, "
              f"surjective: {rep.phi_surjective}")
        print(f"algebra dim {rep.algebra_dim}/{spec.dimZ ** 2}")
        print(f"verdict: {rep.verdict}")
    return 0


def _parse_scan_modules(text: str):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if ":" in chunk:
            chunk = chunk.rpartition(":")[0]
        out.append(parse_skew(chunk))
    return out


def _spec_text(modules, zs) -> str:
    return ";".join(f"{d}:{z}" for d, z in zip(modules, zs))


def _point_error(zs, exc: Exception) -> dict:
    """The scan entry of the point zs whose spec or verdict raised exc, made
    where exc is caught: one bad point must not sink the scan."""
    if not isinstance(exc, TwistFusionError):
        traceback.print_exc(file=sys.stderr)
    return {"z": [str(q) for q in zs], "error": f"{type(exc).__name__}: {exc}"}


def _point_result(zs, run, *args, **kwargs) -> dict:
    """The scan entry of the point zs: the report run(*args, **kwargs)
    returns, or the error it raises."""
    try:
        return {"z": [str(q) for q in zs], "report": run(*args, **kwargs).to_json()}
    except Exception as exc:
        return _point_error(zs, exc)


def _scan_point(payload):
    """The scan entry of a point that a worker decides, from picklable
    parts: the form, the diagrams, the point and its witness."""
    (kind, N, grows, modules, box_cap, zs, witness) = payload

    def run():
        if grows is not None:
            form = GForm.from_matrix([[parse_rational(v) for v in row] for row in grows])
        else:
            form = GForm.default(kind, N)
        spec = FusedModuleSpec.from_string(form, _spec_text(modules, zs), box_cap=box_cap)
        return verdict(spec, witness=witness)

    return _point_result(zs, run)


# The scan workers of this process: made by the first scan that needs them,
# reused by later scans with the same worker count, replaced when the count
# changes.  They are always forked, whatever the platform's default start
# method, so they keep the code and caches of the moment they were forked;
# concurrent.futures joins them when the interpreter exits.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _shutdown_pool():
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None


def _scan_in_pool(payloads, workers: int) -> list:
    """``_scan_point`` of each payload, in order, on ``workers`` processes."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers != workers:
            _shutdown_pool()
        if _pool is None:
            fork = multiprocessing.get_context("fork")
            _pool = ProcessPoolExecutor(max_workers=workers, mp_context=fork)
            _pool_workers = workers
        try:
            return list(_pool.map(_scan_point, payloads))
        except BrokenProcessPool:
            _shutdown_pool()
            raise WorkerLost("a scan worker exited before returning its points") from None


def cmd_scan(args) -> int:
    form = _form_from_args(args)
    dias = _parse_scan_modules(args.modules)
    if args.grid.strip() == "":
        points = []
    else:
        lists = [chunk.strip() for chunk in args.grid.split(";")]
        if len(lists) == 1 and len(dias) > 1:
            lists = lists * len(dias)
        if len(lists) != len(dias):
            raise TwistFusionError(f"{len(dias)} factors but {len(lists)} grid lists")
        axes = [
            [parse_rational(v) for v in chunk.split(",") if v.strip()] for chunk in lists
        ]
        for i, axis in enumerate(axes):
            if not axis:
                raise MalformedInput(f"grid list of factor {i + 1} (diagram {dias[i]}) is empty")
        points = list(product(*axes))
    modules = [str(d) for d in dias]
    results, specs = [None] * len(points), {}
    for k, zs in enumerate(points):
        try:
            specs[k] = FusedModuleSpec.from_string(form, _spec_text(modules, zs), box_cap=args.box_cap)
        except Exception as exc:
            results[k] = _point_error(zs, exc)
    # The residue witnesses of all points, in one batch: a point of full
    # rank is decided here, every other one takes the exact path with its
    # witness.  Where the batch fails, each point's own verdict reports why.
    try:
        witnesses = dict(zip(specs, phi_witnesses(list(specs.values()))))
    except Exception:
        witnesses = dict.fromkeys(specs)
    rest = []
    for k, spec in specs.items():
        if witnesses[k] is not None and witnesses[k][1] == spec.dimZ**2:
            results[k] = _point_result(points[k], verdict, spec, witness=witnesses[k])
        else:
            rest.append(k)
    # a pool starts all its workers at its first task: ask for no more than
    # the points left, nor than the CPUs this process may run on
    jobs = min(args.jobs, len(rest))
    if jobs > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        jobs = min(jobs, cpus or 1)
    if jobs > 1:
        grows = [[str(v) for v in row] for row in form.g] if args.g_file else None
        payloads = [(args.form, args.n, grows, modules, args.box_cap, points[k], witnesses[k])
                    for k in rest]
        for k, r in zip(rest, _scan_in_pool(payloads, jobs)):
            results[k] = r
    else:
        for k in rest:
            results[k] = _point_result(points[k], verdict, specs[k], witness=witnesses[k])
    summary = {"irreducible": 0, "reducible": 0, "errors": 0}
    for r in results:
        if "error" in r:
            summary["errors"] += 1
        else:
            summary[r["report"]["verdict"]] += 1
    envelope = {"points": results, "summary": summary}
    if args.json:
        _emit(args, envelope)
    else:
        for r in results:
            zs = ",".join(r["z"])
            if "error" in r:
                print(f"z=({zs}): error {r['error']}")
            else:
                rep = r["report"]
                wall = " [wall: " + "; ".join(rep["on_wall"]) + "]" if rep["on_wall"] else ""
                print(f"z=({zs}): {rep['verdict']}{wall}")
        print("summary:", json.dumps(summary, sort_keys=True))
    return 0


_COMMANDS = {
    "check-ybe": cmd_check_ybe,
    "check-relations": cmd_check_relations,
    "fusion": cmd_fusion,
    "duality": cmd_duality,
    "irreducible": cmd_irreducible,
    "scan": cmd_scan,
}


# flags whose value may be a negative rational such as -1/3, which argparse
# would otherwise read as an option of its own
_RATIONAL_FLAGS = ("--grid", "--z")


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--grid -1/3,...' as '--grid=-1/3,...' (likewise --z)."""
    out = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _check_counts(args):
    """MalformedInput unless --n, --samples and --jobs, where given, are >= 1."""
    for flag in ("n", "samples", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise MalformedInput(f"--{flag} must be >= 1, got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_bind_negative_values(argv))
    try:
        _check_counts(args)
        return _COMMANDS[args.command](args)
    except TwistFusionError as exc:
        print(f"FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
