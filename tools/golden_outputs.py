"""Print a fixed set of twistfusion outputs, for byte-for-byte comparison.

    python3 tools/golden_outputs.py SRC_DIR > outputs.txt

SRC_DIR is the ``src/`` directory that twistfusion is imported from, so the
same script runs against two checkouts: write the outputs of each and
``cmp`` the two files.  A refactor that keeps every result prints identical
bytes.  The scan grids and relation specs are read from
``perfbench/bench_workloads.py`` next to this script; it is not edited.

Sections, each headed by a line starting with ``##``:
  * ``irreducible --json`` at the 130 criterion-9 points of seed 97;
  * the phi order and matrix and the ``s_generators`` rho at the first
    point of every criterion-9 shape;
  * ``scan --json --jobs 1`` on the scan-walls grids of seeds 1-3;
  * ``check-relations --json`` on the relations-sweep specs of seed 1;
  * the ``RelationReport`` fields of
    ``repmatrix.check_defining_relations(Z, samples=...)`` at the specs of
    RELATION_SAMPLES: rational samples, integer samples, and samples that
    include a pole (a box parameter), which the CLI cannot pass;
  * ``duality --json`` on the criterion-7 cases;
  * the verdicts, phi and rho (K = 2) of sp2 and so3 with no factors, and
    of the one-dimensional so2 ``1,1:1/3``;
  * the text output (no ``--json``) of ``irreducible`` at those three specs
    and of ``scan`` on the first scan-walls grid of seed 1;
  * the numeric operators assembled from pair and S blocks: ``r_factorized``
    of the four kinds on the pairs (W, Z) of OPERATOR_PAIRS (one with no W
    factor), ``s_fused`` and ``s_elementary``, and the defining action
    ``defining_action_product(params, N).at(u0)`` at two points u0.

Needs the standard library and numpy only; a run takes about 1.5 s
(1.3-1.6 s measured on a 2-vCPU Xeon VM).
"""

from __future__ import annotations

import io
import os
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the criterion-9 shapes of tests/test_acceptance.py, in its order
CRITERION_9 = [
    ("sp", 2, ["1"]), ("sp", 2, ["1,1"]), ("sp", 2, ["2"]),
    ("sp", 2, ["1", "1"]), ("sp", 2, ["1", "2"]), ("sp", 2, ["2", "2"]),
    ("so", 3, ["1"]), ("so", 3, ["1,1"]), ("so", 3, ["2"]), ("so", 3, ["2,1/1"]),
    ("so", 3, ["1", "1"]), ("so", 3, ["1", "1,1"]), ("so", 3, ["1,1", "1,1"]),
]
EDGE_SPECS = [("sp", 2, ""), ("so", 3, ""), ("so", 2, "1,1:1/3")]
OPERATOR_PAIRS = [
    ("so", 3, "1,1:1/5;1:2/3", "2:-3/7"),
    ("sp", 2, "2:2/7;1:1/5", "1,1:-1/3"),
    ("so", 3, "", "1:1/4;1,1:2/9"),
]
ACTION_PARAMS = [(2, ["1/3", "-2/5", "7/4"]), (3, ["2/7", "4/3"])]
RELATION_SAMPLES = [("so", 2, "2,1/1:1/5"), ("sp", 2, "1:1/3;1:7/5"), ("so", 3, "1,1:2/9"),
                    ("so", 3, "2:-2/5;1:3/7")]
SAMPLE_SETS = [
    [("2/3", "-3/4"), ("-3/4", "2/3"), ("5/7", "1/2"), ("7", "-3/4")],
    [("1", "2"), ("-3", "4"), ("0", "-1")],
]


def cli(tf, argv) -> str:
    """stdout of one CLI call, with its exit code."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = tf.cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def section(title: str, body: str):
    sys.stdout.write(f"## {title}\n{body}")
    if not body.endswith("\n"):
        sys.stdout.write("\n")


def fractions(mat) -> str:
    return "\n".join(" ".join(str(Fraction(v)) for v in row) for row in mat) + "\n"


def spec_text(shape, zs) -> str:
    return ";".join(f"{d}:{z}" for d, z in zip(shape, zs))


def grid_text(lists) -> str:
    return ";".join(",".join(str(Fraction(v)) for v in vals) for vals in lists)


def irreducible_argv(kind, N, modules) -> list[str]:
    return ["irreducible", "--n", str(N), "--form", kind, f"--modules={modules}"]


def scan_argv(kind, N, mods, grid) -> list[str]:
    return ["scan", "--n", str(N), "--form", kind, "--modules", mods, f"--grid={grid}",
            "--jobs", "1"]


def phi_and_rho(tf, kind, N, modules, K=None) -> str:
    Z = tf.repmatrix.FusedModuleSpec.from_string(tf.tensor.GForm.default(kind, N), modules)
    phi = tf.irreducibility.phi_leading(Z)
    out = f"phi order {phi.order}\n" + fractions(phi.matrix)
    if K is not None:
        gens = tf.repmatrix.s_generators(Z, K)
        for k, blocks in enumerate(gens.rho):
            for i, row in enumerate(blocks):
                for j, G in enumerate(row):
                    out += f"rho[{k}][{i}][{j}]\n" + fractions(G)
    return out


def operators(tf, kind, N, w_modules, z_modules) -> str:
    form = tf.tensor.GForm.default(kind, N)
    W, Z = (tf.repmatrix.FusedModuleSpec.from_string(form, m) for m in (w_modules, z_modules))
    out = ""
    for op_kind in tf.repmatrix.KINDS:
        out += f"r_factorized {op_kind}\n" + fractions(tf.repmatrix.r_factorized(W, Z, op_kind).mat)
    out += "s_fused W\n" + fractions(tf.repmatrix.s_fused(W).mat)
    for d, z in Z.factors:
        out += f"s_elementary {d} {z}\n" + fractions(tf.repmatrix.s_elementary(d, z, form).mat)
    return out


def relation_samples(tf, kind, N, modules) -> str:
    """The RelationReport of each sample set of SAMPLE_SETS, and of the
    first set with a pair at the first box parameter added."""
    Z = tf.repmatrix.FusedModuleSpec.from_string(tf.tensor.GForm.default(kind, N), modules)
    pole = Z.all_box_params()[0]
    out = ""
    for samples in SAMPLE_SETS + [SAMPLE_SETS[0] + [(str(pole), "1/2")]]:
        rep = tf.repmatrix.check_defining_relations(
            Z, samples=[(Fraction(u), Fraction(v)) for u, v in samples])
        out += f"samples {samples}\n{rep}\npassed {rep.passed}\n"
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[1]))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import twistfusion as tf
    import twistfusion.cli  # noqa: F401  (tf.cli)
    import bench_workloads

    rng = random.Random(97)
    firsts = []
    for kind, N, shape in CRITERION_9:
        for t in range(10):
            zs = tf.irreducibility.random_offwall(len(shape), rng)
            modules = spec_text(shape, zs)
            if t == 0:
                firsts.append((kind, N, modules))
            section(f"irreducible {kind}{N} {modules}",
                    cli(tf, irreducible_argv(kind, N, modules) + ["--json"]))
    for kind, N, modules in firsts:
        section(f"phi and rho {kind}{N} {modules}", phi_and_rho(tf, kind, N, modules, K=6))

    for seed in (1, 2, 3):
        for kind, N, mods, lists in bench_workloads.ScanWalls(seed).grids:
            grid = grid_text(lists)
            section(f"scan seed {seed} {kind}{N} {mods} {grid}",
                    cli(tf, scan_argv(kind, N, mods, grid) + ["--json"]))

    for kind, N, shape, zs in bench_workloads.RelationsSweep(1).specs:
        modules = spec_text(shape, zs)
        section(f"check-relations {kind}{N} {modules}",
                cli(tf, ["check-relations", "--n", str(N), "--form", kind,
                         f"--modules={modules}", "--json"]))

    for kind, N, modules in RELATION_SAMPLES:
        section(f"relation samples {kind}{N} {modules}", relation_samples(tf, kind, N, modules))

    for kind in ("so", "sp"):
        for diagram in ("1", "1,1"):
            for z in ("1/3", "2/5", "-3/7"):
                section(f"duality {kind}2 {diagram} {z}",
                        cli(tf, ["duality", "--n", "2", "--form", kind, "--diagram", diagram,
                                 f"--z={z}", "--json"]))

    for kind, N, modules in EDGE_SPECS:
        section(f"edge {kind}{N} {modules!r}",
                cli(tf, irreducible_argv(kind, N, modules) + ["--json"])
                + phi_and_rho(tf, kind, N, modules, K=2))

    for kind, N, modules in EDGE_SPECS:
        section(f"irreducible text {kind}{N} {modules!r}",
                cli(tf, irreducible_argv(kind, N, modules)))
    kind, N, mods, lists = bench_workloads.ScanWalls(1).grids[0]
    section(f"scan text seed 1 {kind}{N} {mods}",
            cli(tf, scan_argv(kind, N, mods, grid_text(lists))))

    for kind, N, w_modules, z_modules in OPERATOR_PAIRS:
        section(f"operators {kind}{N} W={w_modules!r} Z={z_modules!r}",
                operators(tf, kind, N, w_modules, z_modules))
    for N, params in ACTION_PARAMS:
        taut = tf.fusion.defining_action_product([Fraction(a) for a in params], N)
        for u0 in ("5/6", "-3"):
            section(f"defining action N={N} {','.join(params)} at {u0}",
                    fractions(taut.at(Fraction(u0)).mat))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
