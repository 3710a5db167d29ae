"""Workload inputs, operations and answer checks.

Every input is made from the seed alone.  A workload is a fixed *round* of
operations; a run repeats whole rounds, so every run measures the same mix
of operations whatever its length.  The seed changes only the rational
parameters, never which shapes, specs or grids are in the round.

Answers are checked after timing, outside the timed region:
  * verdict-generic: the main theorem at an off-wall point, certified by the
    full-rank witness: ``irreducible`` with ``phi_surjective`` true;
  * relations-sweep: the relations are proven and pass;
  * scan-walls: every point's verdict against the Burnside ground truth.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import bench_oracle

_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def offwall(ell: int, rng: random.Random, primes=_PRIMES) -> list[Fraction]:
    """Parameters with distinct prime denominators >= 3: no parameter is a
    half-integer and no difference or sum of two is an integer.  Their
    absolute values stay below 1, because the cost of an operation grows
    with the size of its parameters and the seed should not move it."""
    out = []
    for i in range(ell):
        p = primes[i % len(primes)]
        a = rng.randrange(1, p)
        out.append(Fraction(-a if rng.random() < 0.5 else a, p))
    return out


@dataclass
class Op:
    label: str
    run: object  # callable(api) -> output
    check: object  # callable(api, output) -> Outcome
    points: int = 1  # units of work the operation completes (grid points for a scan)


@dataclass
class Outcome:
    attempted: int = 0
    errors: int = 0
    wrong: int = 0
    inconclusive: int = 0
    verdicts: int = 0
    broken: list = field(default_factory=list)  # certified answers that are wrong
    wrong_points: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.inconclusive += other.inconclusive
        self.verdicts += other.verdicts
        self.broken += other.broken
        self.wrong_points += other.wrong_points


class Workload:
    name = ""
    diagrams: list = []  # (diagram text, N) pairs whose fusion operators are warmed

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def round(self, api) -> list[Op]:
        raise NotImplementedError


def _form(api, kind: str, N: int):
    return api.tensor.GForm.default(kind, N)


def _spec_ops(api, specs, call, check) -> list[Op]:
    """One operation per (kind, N, diagrams, parameters): ``call(api, Z)`` on
    a FusedModuleSpec Z built afresh inside the timed operation."""
    ops = []
    for kind, N, shape, zs in specs:
        form = _form(api, kind, N)
        factors = [(api.diagrams.parse_skew(d), z) for d, z in zip(shape, zs)]
        label = f"{kind}{N} " + ";".join(f"{d}:{z}" for d, z in zip(shape, zs))

        def run(api, form=form, factors=factors):
            return call(api, api.repmatrix.FusedModuleSpec(form, factors))

        ops.append(Op(label, run, check))
    return ops


# ---------------------------------------------------------------------------
# verdict-generic

_VERDICT_SHAPES = [
    ("sp", 2, ["1", "2"]),
    ("sp", 2, ["2", "2"]),
    ("so", 3, ["1,1"]),
    ("so", 3, ["2"]),
    ("so", 3, ["2,1/1"]),
    ("so", 3, ["1", "1"]),
    ("so", 3, ["1", "1,1"]),
    ("so", 3, ["1,1", "1,1"]),
]


class VerdictGeneric(Workload):
    name = "verdict-generic"
    diagrams = sorted({(d, N) for _, N, shape in _VERDICT_SHAPES for d in shape})

    def __init__(self, seed):
        super().__init__(seed)
        self.points = [(kind, N, shape, offwall(len(shape), self.rng))
                       for kind, N, shape in _VERDICT_SHAPES]

    def round(self, api):
        return _spec_ops(api, self.points, lambda api, Z: api.irreducibility.verdict(Z),
                         _check_generic_verdict)


def _check_generic_verdict(api, rep) -> Outcome:
    out = Outcome(attempted=1, verdicts=1)
    out.inconclusive = int(rep.verdict == "inconclusive")
    out.wrong = int(rep.verdict == "reducible")
    if not (rep.verdict == "irreducible" and rep.phi_surjective):
        out.broken.append(f"{rep.spec['modules']}: {rep.verdict}, "
                          f"phi_surjective={rep.phi_surjective}")
    return out


# ---------------------------------------------------------------------------
# relations-sweep

_SMALL_DIAGRAMS = [
    "1", "1,1", "2", "2,1", "2,1/1", "2,1,1/1", "2,1,1/1,1", "2,2/1", "2,2,1/1,1", "3",
    "3,1/1", "3,1/2", "3,1,1/1,1", "3,1,1/2", "3,1,1/2,1", "3,2/2", "3,2,1/2,1",
    "3,2,1/2,2", "3,2,2/2,2", "3,3,1/2,2",
]
# Every diagram of at most 3 boxes fitting N=2, for so2 and sp2, plus the
# two-box product; for so3 the cheap specs, the product, one dim-18 spec and
# the dim-27 spec.  The whole so3 family (about 60 s) does not fit a run.
_N2_SPECS = ([("so", 2, [d]) for d in _SMALL_DIAGRAMS] + [("so", 2, ["1", "1"])]
             + [("sp", 2, [d]) for d in _SMALL_DIAGRAMS] + [("sp", 2, ["1", "1"])])
_SO3_SPECS = [("so", 3, ["1"]), ("so", 3, ["1,1"]), ("so", 3, ["2"]), ("so", 3, ["1", "1"]),
              ("so", 3, ["3,1/1"]), ("so", 3, ["3,2,1/2,1"])]
# One so3 spec after every seven N=2 specs, so that the cheap operations,
# which set the median, are spread over the whole round rather than bunched
# into its first seconds, where one burst of machine noise would move them all.
_RELATION_SPECS = [spec for k, heavy in enumerate(_SO3_SPECS)
                   for spec in _N2_SPECS[7 * k:7 * k + 7] + [heavy]]


class RelationsSweep(Workload):
    name = "relations-sweep"
    diagrams = sorted({(d, N) for _, N, shape in _RELATION_SPECS for d in shape})

    def __init__(self, seed):
        super().__init__(seed)
        self.specs = [(kind, N, shape, offwall(len(shape), self.rng))
                      for kind, N, shape in _RELATION_SPECS]

    def round(self, api):
        return _spec_ops(api, self.specs,
                         lambda api, Z: api.repmatrix.check_defining_relations(Z),
                         _check_relations)


def _check_relations(api, rep) -> Outcome:
    out = Outcome(attempted=1)
    if not (rep.proven and rep.passed):
        out.wrong = 1
        out.broken.append(f"{rep.spec}: proven={rep.proven} passed={rep.passed}")
    return out


# ---------------------------------------------------------------------------
# scan-walls

class ScanWalls(Workload):
    name = "scan-walls"
    diagrams = [("1", 2), ("2", 2), ("1", 3), ("1,1", 3)]
    jobs = 2

    def __init__(self, seed):
        super().__init__(seed)
        # off-wall seeds avoid denominator 3, which the fixed values use
        a, b = offwall(2, self.rng, primes=(5, 7))
        third = Fraction(1, 3)
        half = Fraction(1, 2)
        # The sp2 1;1 grid holds 1/3;4/3, 1/3;-1/3 and 1;2, reducible wall
        # points that the package reports irreducible.  Grids are scanned one
        # row (first-factor value) per call: many calls of similar cost keep
        # the median steady and exercise the per-call process pool.
        sp11 = [4 * third, -third, 2, a + 1, -a, third]
        self.grids = (
            [("sp", 2, "1;1", [[z], sp11]) for z in (third, 1, 2, a, -third)]
            + [("sp", 2, "2", [[a, b, half, 3 * half, -half, 1, 0]])]
            + [("sp", 2, "1;2", [[z], [a + 1, b, -a]]) for z in (a, half)]
            + [("so", 3, "1", [[a, b, half, 1, 3 * half, -half, 0]])]
            + [("so", 3, "1,1", [[a, half]])]
        )
        self.truth: dict = {}

    def round(self, api, jobs=None):
        jobs = self.jobs if jobs is None else jobs
        ops = []
        for kind, N, mods, lists in self.grids:
            # --grid=... because argparse takes "--grid -1/3" for two flags
            grid = ";".join(",".join(str(Fraction(v)) for v in vals) for vals in lists)
            argv = ["scan", "--n", str(N), "--form", kind, "--modules", mods,
                    f"--grid={grid}", "--jobs", str(jobs), "--json"]
            npoints = math.prod(len(vals) for vals in lists)

            def run(api, argv=argv):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = api.cli.main(argv)
                return code, buf.getvalue()

            def check(api, output, kind=kind, N=N, mods=mods, npoints=npoints):
                return self._check_scan(api, output, kind, N, mods, npoints)

            ops.append(Op(f"{kind}{N} {mods} ({npoints} points)", run, check, points=npoints))
        return ops

    def _truth(self, api, kind, N, spec_text):
        key = (kind, N, spec_text)
        if key not in self.truth:
            Z = api.repmatrix.FusedModuleSpec.from_string(_form(api, kind, N), spec_text)
            self.truth[key] = bench_oracle.ground_truth(api, Z)
        return self.truth[key]

    def _check_scan(self, api, output, kind, N, mods, npoints) -> Outcome:
        out = Outcome(attempted=npoints)
        code, text = output
        if code != 0:
            out.errors = npoints
            return out
        payload = json.loads(text)
        if len(payload["points"]) != npoints:
            out.broken.append(f"{mods}: {len(payload['points'])} points, expected {npoints}")
            return out
        diagrams = mods.split(";")
        for point in payload["points"]:
            spec_text = ";".join(f"{d}:{z}" for d, z in zip(diagrams, point["z"]))
            if "error" in point:
                out.errors += 1
                continue
            rep = point["report"]
            out.verdicts += 1
            truth = self._truth(api, kind, N, spec_text)
            word = rep["verdict"]
            if word == "inconclusive":
                out.inconclusive += 1
                continue
            if word == truth:
                continue
            out.wrong += 1
            name = f"{kind}{N} {spec_text}: {word}, Burnside says {truth}"
            out.wrong_points.append(name)
            # a verdict backed by a certificate (full-rank witness, or an
            # off-wall point under the main theorem) must never be wrong
            if rep["phi_surjective"] or not rep["on_wall"] or word == "reducible":
                out.broken.append(name)
        return out


WORKLOADS = {w.name: w for w in (VerdictGeneric, RelationsSweep, ScanWalls)}
