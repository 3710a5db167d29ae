"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All checks are exact; the only tolerances are the stated
runtime bounds.
"""

import importlib.util
import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from twistfusion import irreducibility, linalg, repmatrix
from twistfusion.cli import main as cli_main
from twistfusion.diagrams import SkewDiagram, column_tableau, enumerate_skew, parse_skew, sharp
from twistfusion.fusion import fusion_operator, verify_fusion_invariants
from twistfusion.irreducibility import random_offwall, verdict
from twistfusion.linalg import mat_equal
from twistfusion.reference import embed_two_leg, permutation_op, yang_matrices
from twistfusion.repmatrix import FusedModuleSpec, check_defining_relations, duality_check
from twistfusion.tensor import GForm, TensorOperator, flip, structural_ops

BOX = SkewDiagram((1,))
VDOM = SkewDiagram((1, 1))
HDOM = SkewDiagram((2,))
SKEW2 = SkewDiagram((2, 1), (1,))


def _report(num, desc, ok, extra=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{extra}", flush=True)


def test_criterion_01_yang_baxter():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    ok = True
    for N in (2, 3):
        form = GForm.orthogonal(N)
        for _ in range(5):
            us = []
            while len(us) < 3:
                q = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
                if q not in us:
                    us.append(q)
            R12, _, _, _ = yang_matrices(form, us[0], us[1])
            R13, _, _, _ = yang_matrices(form, us[0], us[2])
            R23, _, _, _ = yang_matrices(form, us[1], us[2])
            A12 = embed_two_leg(R12, 1, 2, 3)
            A13 = embed_two_leg(R13, 1, 3, 3)
            A23 = embed_two_leg(R23, 2, 3, 3)
            ok &= (A12 @ A13 @ A23) == (A23 @ A13 @ A12)
    dt = time.perf_counter() - t0
    good = ok and dt < 1.0
    _report(1, "Yang-Baxter holds exactly at 5 random triples, N in {2,3}", good, f" ({dt:.2f}s)")
    assert ok
    assert dt < 1.0


def test_criterion_02_structural_identities():
    ok = True
    for N in (2, 3, 4):
        forms = [GForm.orthogonal(N)]
        if N % 2 == 0:
            forms.append(GForm.symplectic(N))
        for form in forms:
            P, Q = structural_ops(form)
            ident = TensorOperator.identity((N, N))
            swap = permutation_op([2, 1], N)
            ok &= P @ P == ident
            ok &= Q @ Q == N * Q
            ok &= swap @ Q @ swap == Q
    _report(2, "P^2=1, Q^2=NQ, Q_21=Q for N in {2,3,4}, both forms", ok)
    assert ok


def test_criterion_03_defining_relations():
    t0 = time.perf_counter()
    combos = [(2, GForm.orthogonal(2)), (2, GForm.symplectic(2)), (3, GForm.orthogonal(3))]
    failures = []
    for N, form in combos:
        for dia in enumerate_skew(3, max_col_height=N):
            rep = check_defining_relations(FusedModuleSpec(form, [(dia, Fraction(1, 3))]))
            if not rep.passed:
                failures.append((form.kind, N, str(dia)))
        rep = check_defining_relations(
            FusedModuleSpec(form, [(BOX, Fraction(1, 3)), (BOX, Fraction(7, 5))])
        )
        if not rep.passed:
            failures.append((form.kind, N, "1;1"))
    dt = time.perf_counter() - t0
    good = not failures and dt < 60.0
    _report(3, "RTT + reflection proven on all <=3-box modules and 2-box specs",
            good, f" ({dt:.1f}s)")
    assert not failures, failures
    assert dt < 60.0


_fusion_reports = None


def _fusion_sweep():
    global _fusion_reports
    if _fusion_reports is None:
        _fusion_reports = []
        for N in (2, 3):
            for dia in enumerate_skew(4, max_col_height=N):
                F = fusion_operator(dia, N)
                _fusion_reports.append((N, dia, verify_fusion_invariants(F)))
    return _fusion_reports


def test_criterion_04_fusion_dimensions():
    bad = [(N, str(d)) for (N, d, rep) in _fusion_sweep() if not rep.dimension_matches]
    count = len(_fusion_sweep())
    _report(4, f"dim im F = tableau count on {count} diagrams (<=4 boxes, N in {{2,3}})", not bad)
    assert not bad, bad


def test_criterion_05_fusion_invariants():
    bad = [
        (N, str(d))
        for (N, d, rep) in _fusion_sweep()
        if not (rep.t_invariant and rep.sharp_conjugation and rep.slope_independent)
    ]
    _report(5, "t-invariance, rotation conjugation, slope independence of F", not bad)
    assert not bad, bad


def test_criterion_06_sharp_combinatorics():
    ok = True
    count = 0
    for dia in enumerate_skew(6):
        rot, c = sharp(dia)  # constancy verified inside
        back, c2 = sharp(rot)
        ok &= back == dia and c2 == c and rot.size == dia.size
        count += 1
    fig = parse_skew("6,5,3,1/3,2")
    ok &= column_tableau(fig).contents == (-2, -3, -1, 1, 0, 3, 2, 4, 3, 5)
    _report(6, f"rotation involution + shift constancy on {count} diagrams (<=6 boxes)", ok)
    assert ok


def test_criterion_07_duality():
    ok = True
    for form in (GForm.orthogonal(2), GForm.symplectic(2)):
        for dia in (BOX, VDOM):
            for z in (Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7)):
                rep = duality_check(dia, z, form)
                ok &= rep.passed
    _report(7, "contragredient duality for box and vertical domino, N=2, 3 points", ok)
    assert ok


def test_criterion_08_leading_term_is_flip():
    from twistfusion.reference import breve_r_family_leading

    ok = True
    for N in (2, 3):
        form = GForm.symplectic(2) if N == 2 else GForm.orthogonal(3)
        shapes = [[Fraction(1, 3)], [Fraction(1, 3), Fraction(7, 5)]]
        for zs in shapes:
            Z = FusedModuleSpec(form, [(BOX, z) for z in zs])
            _, coeff = breve_r_family_leading(Z)
            FL = flip(Z.dimZ).mat
            scale = None
            for idx in np.ndindex(coeff.shape):
                if FL[idx] != 0:
                    scale = coeff[idx]
                    break
            ok &= scale != 0 and mat_equal(coeff, scale * FL)
    _report(8, "leading Laurent coefficient of the breve family is a multiple of the flip", ok)
    assert ok


_SHAPES = {
    "sp2": [
        [BOX], [VDOM], [HDOM],
        [BOX, BOX], [BOX, HDOM], [HDOM, HDOM],
    ],
    "so3": [
        [BOX], [VDOM], [HDOM], [SKEW2],
        [BOX, BOX], [BOX, VDOM], [VDOM, VDOM],
    ],
}

_collected_reports = []  # (module, report, Burnside dimension) of criterion 9


def _load_bench_oracle():
    """The benchmark's Burnside oracle, an implementation independent of the
    package's verdict, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _load_bench_oracle()
_API = SimpleNamespace(irreducibility=irreducibility, repmatrix=repmatrix, linalg=linalg)


def _algebra_dim(Z) -> int:
    return _ORACLE.algebra_dim(_API, Z)


def _agrees(Z, rep, dim) -> bool:
    """The report agrees with the oracle's algebra dimension, and a
    surjective phi comes with the whole of End(Z)."""
    full = Z.dimZ**2
    return (rep.algebra_dim == dim
            and rep.verdict == ("irreducible" if dim == full else "reducible")
            and (not rep.phi_surjective or dim == full))


def test_criterion_09_main_theorem_generic_points():
    rng = random.Random(97)
    all_ok = True
    lines = []
    for key, shapes in _SHAPES.items():
        form = GForm.symplectic(2) if key == "sp2" else GForm.orthogonal(3)
        for shape in shapes:
            dt = 0.0
            shape_ok = True
            for _ in range(10):
                zs = random_offwall(len(shape), rng)
                Z = FusedModuleSpec(form, list(zip(shape, zs)))
                t0 = time.perf_counter()
                rep = verdict(Z)
                dt += time.perf_counter() - t0
                dim = _algebra_dim(Z)
                _collected_reports.append((Z, rep, dim))
                point_ok = (rep.phi_surjective and rep.verdict == "irreducible"
                            and _agrees(Z, rep, dim))
                if not point_ok:
                    lines.append((key, [str(d) for d in shape], [str(z) for z in zs],
                                  rep.to_json(), dim))
                shape_ok &= point_ok
            shape_ok &= dt < 300.0
            all_ok &= shape_ok
            name = "+".join(str(d) for d in shape)
            print(f"    shape {key} [{name}]: 10 points, verdicts {dt:.1f}s "
                  f"{'ok' if shape_ok else 'FAILED'}", flush=True)
    _report(9, "surjective leading coefficient and Burnside algebra End(Z) "
               "at 10 off-wall points/shape", all_ok)
    assert all_ok, lines


def test_criterion_10_soundness_everywhere():
    # wall points, on top of every report collected in criterion 9
    reports = list(_collected_reports)
    sp2 = GForm.symplectic(2)
    so3 = GForm.orthogonal(3)
    wall_specs = [
        FusedModuleSpec(sp2, [(BOX, Fraction(1, 2))]),
        FusedModuleSpec(sp2, [(BOX, Fraction(1))]),
        FusedModuleSpec(sp2, [(BOX, Fraction(3, 2))]),
        FusedModuleSpec(sp2, [(BOX, Fraction(1, 3)), (BOX, Fraction(4, 3))]),   # difference wall
        FusedModuleSpec(sp2, [(BOX, Fraction(1, 4)), (BOX, Fraction(3, 4))]),   # sum wall
        FusedModuleSpec(sp2, [(HDOM, Fraction(1, 2))]),
        FusedModuleSpec(so3, [(VDOM, Fraction(1, 2))]),
        FusedModuleSpec(so3, [(BOX, Fraction(2, 3)), (BOX, Fraction(5, 3))]),
    ]
    for Z in wall_specs:
        # InternalInconsistency would raise here
        reports.append((Z, verdict(Z), _algebra_dim(Z)))
    violations = [(rep.to_json(), dim) for Z, rep, dim in reports if not _agrees(Z, rep, dim)]
    _report(10, "surjectivity implies algebra End(Z), and verdicts agree with Burnside, "
                f"across {len(reports)} points incl. walls", not violations)
    assert not violations, violations


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_11_determinism():
    args1 = ["irreducible", "--n", "2", "--form", "sp", "--modules", "1:1/3;1:7/5", "--json"]
    args2 = ["scan", "--n", "2", "--form", "sp", "--modules", "1",
             "--grid", "1/3,1/2,2/3", "--json"]
    args3 = ["check-ybe", "--n", "2", "--samples", "4", "--seed", "11", "--json"]
    ok = True
    for args in (args1, args2, args3):
        c1, o1 = _run_cli(args)
        c2, o2 = _run_cli(args)
        ok &= c1 == c2 == 0 and o1 == o2
        json.loads(o1)  # well-formed
    _report(11, "identical seeds and flags produce byte-identical JSON", ok)
    assert ok
