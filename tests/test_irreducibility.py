import io
import itertools
import math
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from twistfusion.diagrams import SkewDiagram, parse_skew
from twistfusion import cli, irreducibility, repmatrix
from twistfusion.errors import InternalInconsistency
from twistfusion.exactnum import Poly, RatFunc
from twistfusion.irreducibility import (
    AlgebraSpan,
    IrreducibilityReport,
    burnside,
    commutant_dim,
    default_truncation,
    phi_leading,
    phi_witness,
    random_offwall,
    surjectivity,
    verdict,
    walls,
)
from twistfusion.linalg import (
    fdot,
    feye,
    fzeros,
    mat_equal,
    mod_matmul,
    nullspace_exact,
    rank_exact,
    reduce_mod,
)
from twistfusion.reference import (
    breve_r_family_leading,
    breve_r_frame_blocks,
    ratfunc_product,
    s_WZ_family,
)
from twistfusion.repmatrix import (
    BlockTerm,
    FusedModuleSpec,
    check_defining_relations,
    frame_product,
    s_coefficients,
    s_factors,
    s_generators,
    WitnessPlan,
    swz_frame_blocks,
    swz_terms,
    witness_plan,
)
from twistfusion.tensor import (
    FrameBlock,
    GForm,
    MatrixLaurentSeries,
    TensorOperator,
    _slot_rest_index,
    contraction_map_matrix,
    structural_ops,
)

BOX = SkewDiagram((1,))
VDOM = SkewDiagram((1, 1))
SP2 = GForm.symplectic(2)
SO2 = GForm.orthogonal(2)
SO3 = GForm.orthogonal(3)


def spec(form, *pairs):
    return FusedModuleSpec(form, [(d, Fraction(z)) for d, z in pairs])


def test_family_single_box_formula():
    z = Fraction(1, 3)
    Z = spec(SP2, (BOX, z))
    fam = s_WZ_family(Z)
    x = RatFunc.x()
    P, Q = structural_ops(SP2)
    lift = lambda op: op.map_entries(RatFunc.coerce)  # noqa: E731
    ident = lift(TensorOperator.identity((2, 2)))
    expect = (ident + (1 / (2 * z + x)) * lift(Q)) @ (ident - (1 / x) * lift(P))
    assert all(fam.mat[i, j] == expect.mat[i, j] for i in range(4) for j in range(4))


def test_family_empty_spec_is_scalar_one():
    Z = spec(SP2)
    fam = s_WZ_family(Z)
    assert fam.size == 1 and fam.mat[0, 0] == RatFunc.const(1)


def test_phi_leading_single_box_against_family():
    """The fast frame pipeline agrees with entrywise expansion of the family."""
    z = Fraction(1, 3)
    Z = spec(SP2, (BOX, z))
    phi = phi_leading(Z)
    order, coeff = _leading_by_laurent(swz_frame_blocks(Z), Z.factor_dims * 2)
    assert order == phi.order == -1
    assert mat_equal(phi.matrix, contraction_map_matrix(coeff, 2, 2))


def test_phi_leading_two_factors_against_family():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    phi = phi_leading(Z)
    order, coeff = _leading_by_laurent(swz_frame_blocks(Z), Z.factor_dims * 2)
    assert order == phi.order
    assert mat_equal(phi.matrix, contraction_map_matrix(coeff, 4, 4))


def test_phi_leading_empty_spec():
    Z = spec(SP2)
    phi = phi_leading(Z)
    assert phi.order == 0 and phi.dimZ == 1
    assert mat_equal(phi.matrix, feye(1))


def test_surjectivity_values():
    Z1 = spec(SP2, (BOX, Fraction(1, 3)))
    r, s = surjectivity(phi_leading(Z1))
    assert (r, s) == (4, True)
    Z2 = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    r2, s2 = surjectivity(phi_leading(Z2))
    assert (r2, s2) == (16, True)
    Z0 = spec(SO2, (VDOM, Fraction(1, 3)))  # one-dimensional module
    r0, s0 = surjectivity(phi_leading(Z0))
    assert (r0, s0) == (1, True)


def test_commutant_examples():
    Z = spec(SP2, (BOX, Fraction(1, 3)))
    dim, stab = commutant_dim(Z, 4)
    assert dim == 1 and stab
    Z1 = spec(SO2, (VDOM, Fraction(2, 5)))
    assert commutant_dim(Z1, 4) == (1, True)
    with pytest.raises(ValueError):
        commutant_dim(Z, 1)


def test_commutant_non_increasing_in_K():
    Z = spec(SP2, (BOX, Fraction(1, 2)))  # wall point: no asserted value
    dims = [commutant_dim(Z, K)[0] for K in range(2, 7)]
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    assert dims[-1] >= 1


def test_walls_families():
    assert [c.describe() for c in walls(spec(SP2, (BOX, 0))).constraints] == ["z1 in (1/2)Z"]
    two = walls(spec(SP2, (BOX, 0), (BOX, 0))).constraints
    assert [c.describe() for c in two] == [
        "z1 in (1/2)Z",
        "z2 in (1/2)Z",
        "z1-z2 in Z",
        "z1+z2 in Z",
    ]
    assert walls(spec(SP2)).constraints == []


def test_wall_violation_detection():
    ws = walls(spec(SP2, (BOX, 0), (BOX, 0)))
    hits = ws.violated([Fraction(1, 2), Fraction(1, 3)])
    assert [c.describe() for c in hits] == ["z1 in (1/2)Z"]
    hits = ws.violated([Fraction(4, 3), Fraction(1, 3)])
    assert [c.describe() for c in hits] == ["z1-z2 in Z"]
    hits = ws.violated([Fraction(2, 3), Fraction(1, 3)])
    assert [c.describe() for c in hits] == ["z1+z2 in Z"]


def test_verdict_example_point():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    rep = verdict(Z)
    assert rep.verdict == "irreducible"
    assert rep.on_wall == []
    assert rep.phi_surjective and rep.algebra_dim == 16


def test_verdict_wall_point_reports_evidence():
    rep = verdict(spec(SP2, (BOX, Fraction(1, 2))))
    assert rep.on_wall == ["z1 in (1/2)Z"]
    assert rep.verdict == ("irreducible" if rep.algebra_dim == 4 else "reducible")
    assert rep.phi_rank <= rep.algebra_dim


def test_verdict_empty_spec():
    rep = verdict(spec(SP2))
    assert rep.verdict == "irreducible"


def test_soundness_across_mixed_points():
    """A surjective leading coefficient forces A_Z = End(Z), including on
    wall points: Burnside, run at every point, agrees with each verdict."""
    points = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(-2, 3)]
    specs = [spec(SP2, (BOX, z)) for z in points] + [
        spec(SP2, (BOX, z1), (BOX, z2))
        for z1, z2 in [(Fraction(1, 3), Fraction(4, 3)), (Fraction(1, 4), Fraction(3, 4))]
    ]
    for Z in specs:
        rep, dim = verdict(Z), burnside(Z).dim
        assert rep.algebra_dim == dim and rep.phi_rank <= dim
        if rep.phi_surjective:
            assert dim == Z.dimZ**2


def test_translation_keeps_surjectivity_verdict():
    shift = Fraction(1, 7)
    for zs in ([Fraction(1, 3)], [Fraction(1, 3), Fraction(7, 5)]):
        Z = spec(SP2, *[(BOX, z) for z in zs])
        Zs = spec(SP2, *[(BOX, z + shift) for z in zs])
        assert surjectivity(phi_leading(Z))[1] == surjectivity(phi_leading(Zs))[1]


def test_random_offwall_never_on_wall():
    rng = random.Random(123)
    for ell in (1, 2, 3):
        ws = walls(spec(SP2, *[(BOX, 0)] * 0)) if False else None
        for _ in range(20):
            zs = random_offwall(ell, rng)
            assert all((2 * z).denominator > 1 for z in zs)
            for i in range(ell):
                for j in range(i + 1, ell):
                    assert (zs[i] - zs[j]).denominator > 1
                    assert (zs[i] + zs[j]).denominator > 1


def test_breve_leading_restricted_flip_two_box_factors():
    """Leading coefficient of the breve family is a multiple of the flip
    restricted to the module pair, including multi-box factors."""
    from twistfusion.tensor import flip

    HDOM = SkewDiagram((2,))
    cases = [
        (SO2, [(HDOM, Fraction(1, 3))]),
        (SP2, [(HDOM, Fraction(1, 5)), (BOX, Fraction(2, 7))]),
        (SO3, [(VDOM, Fraction(2, 7)), (BOX, Fraction(3, 5))]),
    ]
    for form, facs in cases:
        Z = FusedModuleSpec(form, facs)
        _, coeff = breve_r_family_leading(Z)
        FL = flip(Z.dimZ).mat
        scale = None
        for idx in np.ndindex(coeff.shape):
            if FL[idx] != 0:
                scale = coeff[idx]
                break
        assert scale != 0
        assert mat_equal(coeff, scale * FL)


def test_breve_leading_agrees_with_symbolic_route():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    order, coeff = breve_r_family_leading(Z)
    expected_order, expected = _leading_by_laurent(breve_r_frame_blocks(Z), Z.factor_dims * 2)
    assert order == expected_order
    assert mat_equal(coeff, expected)


def test_report_json_roundtrip():
    rep = verdict(spec(SP2, (BOX, Fraction(1, 3))))
    data = rep.to_json()
    back = IrreducibilityReport.from_json(data)
    assert back == rep
    assert data["spec"]["modules"] == "1:1/3"


# ---------------------------------------------------------------------------
# frame_product: the symbolic product as oracle, and the windows it takes

HDOM = SkewDiagram((2,))

# the criterion-8 points, and two multi-box points whose diagonal breve-R
# blocks have exactly-zero leading frames
GENERIC_POINTS = [
    (form, [(BOX, z) for z in zs])
    for form in (SP2, SO3)
    for zs in ([Fraction(1, 3)], [Fraction(1, 3), Fraction(7, 5)])
] + [
    (SP2, [(HDOM, Fraction(1, 3)), (HDOM, Fraction(-2, 5))]),
    (SO3, [(VDOM, Fraction(1, 3)), (VDOM, Fraction(-2, 5))]),
]


def _leading_by_laurent(blocks, dims):
    """Order and leading coefficient of the symbolic product of the blocks,
    every entry expanded at 0 through RatFunc.laurent_at."""
    fam = ratfunc_product(blocks, dims).mat
    expansions = {idx: RatFunc.coerce(f).laurent_at(0, 1)
                  for idx, f in np.ndenumerate(fam) if not RatFunc.coerce(f).is_zero()}
    order = min(o for o, _ in expansions.values())
    coeff = fzeros(fam.shape)
    for idx, (o, cs) in expansions.items():
        if o == order:
            coeff[idx] = cs[0]
    return order, coeff


FRAME_PRODUCT_CASES = {
    "swz sp2 1:1/3": (swz_frame_blocks, "1:1/3"),  # generic: one window
    "swz sp2 1:1/3;1:4/3": (swz_frame_blocks, "1:1/3;1:4/3"),  # wall: a second window
    "breve sp2 2:1/3": (breve_r_frame_blocks, "2:1/3"),
}


@pytest.mark.parametrize("case", FRAME_PRODUCT_CASES)
def test_frame_product_against_symbolic_product(case):
    make_blocks, modules = FRAME_PRODUCT_CASES[case]
    Z = FusedModuleSpec.from_string(SP2, modules)
    blocks = make_blocks(Z)
    dims = Z.factor_dims * 2
    order, coeff = frame_product(blocks, dims)
    expected_order, expected = _leading_by_laurent(blocks, dims)
    assert order == expected_order
    assert mat_equal(coeff.to_fractions(), expected)
    if make_blocks is breve_r_frame_blocks:
        # the diagonal blocks' denominators vanish at zeta = 0
        assert any(fb.den_low()[0] > 0 for fb, _ in blocks)


def _recording_windows(monkeypatch):
    """The windows at which frame_product multiplies its blocks, in order,
    read off the calls of MatrixLaurentSeries.from_frames."""
    windows = []
    from_frames = MatrixLaurentSeries.from_frames.__func__

    def recording(cls, frames, scale, window):
        if windows[-1:] != [window]:
            windows.append(window)
        return from_frames(cls, frames, scale, window)

    monkeypatch.setattr(MatrixLaurentSeries, "from_frames", classmethod(recording))
    return windows


@pytest.mark.parametrize("form,factors", GENERIC_POINTS,
                         ids=[f"{f.kind}{f.N} " + ";".join(f"{d}:{z}" for d, z in fs)
                              for f, fs in GENERIC_POINTS])
def test_phi_leading_one_product_at_generic_points(form, factors, monkeypatch):
    Z = FusedModuleSpec(form, factors)
    windows = _recording_windows(monkeypatch)
    phi = phi_leading(Z)
    assert windows == [1]
    # the exact block orders add up to the order of the product
    orders = [MatrixLaurentSeries.from_frames(fb.frames, fb.scale, 1).order - fb.den_low()[0]
              for fb, _ in swz_frame_blocks(Z)]
    assert sum(orders) == phi.order


def test_phi_leading_retries_at_wall_point(monkeypatch):
    windows = _recording_windows(monkeypatch)
    for form, modules in ((SP2, "1:1/3;1:4/3"), (SO3, "1:2/3;1:5/3")):
        windows.clear()
        Z = FusedModuleSpec.from_string(form, modules)
        phi_leading(Z)
        assert windows == [1, 2]


def test_no_denominator_is_expanded(monkeypatch):
    """Verdicts and relation checks keep every scalar denominator aside:
    none is expanded as a Laurent series."""
    def refuse(self, a, count):
        raise AssertionError("a denominator was expanded as a Laurent series")

    monkeypatch.setattr(RatFunc, "laurent_at", refuse)
    generic = verdict(spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5))))
    assert (generic.laurent_order, generic.phi_rank) == (-2, 16)
    wall = verdict(spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(4, 3))))
    assert (wall.laurent_order, wall.phi_rank) == (-1, 13)
    assert check_defining_relations(spec(SO3, (VDOM, Fraction(1, 3)), (BOX, Fraction(2, 5)))).proven


@pytest.mark.parametrize("modules", ["1:1/3;1:7/5", "1:1/3;1:4/3"], ids=["generic", "wall"])
def test_frame_product_multiplies_no_polynomial(modules, monkeypatch):
    """frame_product reads each denominator only through its valuation and
    its lowest coefficient, and T(u) keeps its denominator as linear
    factors: with Poly products and RatFunc series refused, frame_product,
    the T frames, s_factors and the relation check give the same results."""
    Z = FusedModuleSpec.from_string(SP2, modules)
    blocks = swz_frame_blocks(Z)
    dims = Z.factor_dims * 2
    order, coeff = frame_product(blocks, dims)
    td, (A, B, c) = repmatrix._t_data(Z), s_factors(Z, 4)
    report = check_defining_relations(Z)

    def refuse(*args):
        raise AssertionError("a polynomial was multiplied or expanded")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(RatFunc, "series_at_infinity", refuse)
    order_kept, coeff_kept = frame_product(blocks, dims)
    assert order_kept == order
    assert mat_equal(coeff_kept.to_fractions(), coeff.to_fractions())
    fresh = FusedModuleSpec.from_string(SP2, modules)
    td_kept, (A_kept, B_kept, c_kept) = repmatrix._t_data(fresh), s_factors(fresh, 4)
    assert (td_kept.scale, td_kept.den) == (td.scale, td.den)
    assert all(np.array_equal(a, b) for a, b in zip(td_kept.frames, td.frames, strict=True))
    assert c_kept == c and all(np.array_equal(a, b) for a, b in zip(A_kept + B_kept, A + B))
    assert check_defining_relations(fresh) == report


# ---------------------------------------------------------------------------
# the integer commutant against the Fraction loop

def _commutant_dim_fraction(Z, K):
    """The Fraction commutant loop, kept as an oracle: the candidates X as
    d x d matrices, XG - GX by fdot, and the basis update by fdot."""
    d = Z.dimZ
    gens = s_generators(Z, K)
    B = feye(d * d)
    dims_after = []
    for k in range(1, K + 1):
        b = B.shape[1]
        if b > 1:
            X = B.T.reshape(b, d, d)
            X_rows = X.reshape(b * d, d)
            X_cols = X.transpose(1, 0, 2).reshape(d, b * d)
            rows = []
            for i in range(Z.N):
                for j in range(Z.N):
                    G = gens.rho[k][i][j]
                    XG = fdot(X_rows, G).reshape(b, d, d)
                    GX = fdot(G, X_cols).reshape(d, b, d).transpose(1, 0, 2)
                    rows.append((XG - GX).reshape(b, d * d).T)
            null = nullspace_exact(np.concatenate(rows, axis=0))
            if len(null) < b:
                Y = np.stack(null, axis=1) if null else np.empty((b, 0), dtype=object)
                B = fdot(B, Y)
        dims_after.append(B.shape[1])
    return dims_after[-1], len(dims_after) >= 2 and dims_after[-1] == dims_after[-2]


def _assert_commutant_against_fraction_loop(Z, expected):
    got = [commutant_dim(Z, K) for K in range(2, 7)]
    assert got == [_commutant_dim_fraction(Z, K) for K in range(2, 7)]
    assert got == expected


@pytest.mark.parametrize("text,expected", [
    ("1:1/2;1:-1/2", [(2, True)] * 5),
    ("1:1/3;1:-1/3", [(2, True), (1, False), (1, True), (1, True), (1, True)]),
    ("1:1/2;2:-1/2", [(2, True), (1, False), (1, True), (1, True), (1, True)]),
])
def test_commutant_against_fraction_loop(text, expected):
    _assert_commutant_against_fraction_loop(FusedModuleSpec.from_string(SP2, text), expected)


def test_commutant_against_fraction_loop_at_n3():
    # N = 3: the generator blocks are read from the (N, d, N, d) reshape
    Z = FusedModuleSpec.from_string(SO3, "1:1/3;1:2/3")
    _assert_commutant_against_fraction_loop(Z, [(1, False)] + [(1, True)] * 4)


def test_commutant_builds_only_what_it_reads(monkeypatch):
    drawn = []

    def counted(Z, K):
        for Sk in s_coefficients(Z, K):
            drawn.append(Sk)
            yield Sk

    monkeypatch.setattr(irreducibility, "s_coefficients", counted)
    # commutant 1 once S_1 or S_2 is read: nothing past S_2 is built
    commutant_dim(FusedModuleSpec.from_string(SO3, "1,1:-1/3;1,1:1/5"), 10)
    assert len(drawn) <= 3
    # commutant 2 to the end: S_0 .. S_10 are all read
    drawn.clear()
    assert commutant_dim(FusedModuleSpec.from_string(SP2, "1:1/2;1:-1/2"), 10) == (2, True)
    assert len(drawn) == 11


# ---------------------------------------------------------------------------
# the truncation order is derived: S_1 .. S_2n span every coefficient

@pytest.mark.parametrize("form,text", [
    (SP2, "1:1/3;1:4/3"), (SP2, "1:1/2;1:-1/2"), (SO3, "1:2/3;1:5/3"), (SO3, "2,1/1:1/7"),
])
def test_coefficients_past_2n_in_span(form, text):
    # S(u) has a denominator of degree 2n, so S_(2n+1) and S_(2n+2) are
    # combinations of the coefficients before them
    Z = FusedModuleSpec.from_string(form, text)
    n = Z.n_total
    rows = [Sk.mat.ravel() for Sk in s_coefficients(Z, 2 * n + 2)]
    ranks = [rank_exact(np.stack(rows[1:k + 1])) for k in (2 * n, 2 * n + 1, 2 * n + 2)]
    assert ranks[0] == ranks[1] == ranks[2]
    assert default_truncation(Z) == 2 * n + 2


def test_verdict_burnside_below_phi_rank_is_inconsistent(monkeypatch):
    # the image of phi lies in A_Z; phi has rank 9 at this point
    monkeypatch.setattr(irreducibility, "burnside", lambda Z: AlgebraSpan(8, [], 0, [], True))
    with pytest.raises(InternalInconsistency, match="rank 9 into an algebra of dimension 8"):
        verdict(FusedModuleSpec.from_string(SP2, "1:1/4;1:3/4"))


def test_zero_contracted_coefficient_is_inconsistent(monkeypatch):
    # the contraction only reindexes a nonzero coefficient
    monkeypatch.setattr(irreducibility, "contraction_map_matrix",
                        lambda M, dW, dZ: np.zeros((dZ * dZ, dW * dW), dtype=object))
    with pytest.raises(InternalInconsistency, match="zero contracted"):
        phi_leading(spec(SP2, (BOX, Fraction(1, 3))))


# ---------------------------------------------------------------------------
# the two-step verdict: the phi witness, then Burnside

@pytest.mark.parametrize("form,text,answer,dim", [
    (SP2, "1:1/3;1:4/3", "reducible", 13),
    (SO3, "1:2/3;1:5/3", "reducible", 63),
    (SP2, "1:1/4;1:3/4", "irreducible", 16),
    (SP2, "1:1/3;1:-4/3", "irreducible", 16),
    (SP2, "2:1/2", "irreducible", 9),
], ids=["sp2 1:1/3;1:4/3", "so3 1:2/3;1:5/3", "sp2 1:1/4;1:3/4", "sp2 1:1/3;1:-4/3",
        "sp2 2:1/2"])
def test_verdict_where_phi_is_not_surjective(form, text, answer, dim):
    rep = verdict(FusedModuleSpec.from_string(form, text))
    assert not rep.phi_surjective
    assert (rep.verdict, rep.algebra_dim) == (answer, dim)


@pytest.mark.parametrize("text,dim", [
    ("1:1/3;1:4/3", 13), ("1:1/3;1:-1/3", 13), ("1:1;1:2", 13), ("1:2/5;1:7/5", 13),
    ("1:2/5;1:-2/5", 13), ("1:-1/3;1:1/3", 13), ("1:2/5;2:7/5", 28), ("1:2/5;2:-2/5", 28),
])
def test_scan_walls_points_are_reducible(text, dim):
    # the wall points of the benchmark's scan grids (seed 1) that Burnside
    # finds reducible
    rep = verdict(FusedModuleSpec.from_string(SP2, text))
    assert (rep.verdict, rep.algebra_dim) == ("reducible", dim)


def test_surjective_verdict_runs_nothing_more(monkeypatch):
    def refuse(*args):
        raise AssertionError("a surjective phi already decides the verdict")

    monkeypatch.setattr(irreducibility, "burnside", refuse)
    monkeypatch.setattr(irreducibility, "commutant_dim", refuse)
    rep = verdict(spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5))))
    assert rep.phi_surjective
    assert (rep.verdict, rep.algebra_dim) == ("irreducible", 16)


def test_verdict_never_reads_the_commutant(monkeypatch):
    def refuse(*args):
        raise AssertionError("the commutant does not decide a verdict")

    monkeypatch.setattr(irreducibility, "commutant_dim", refuse)
    assert verdict(FusedModuleSpec.from_string(SP2, "1:1/3;1:4/3")).verdict == "reducible"


@pytest.mark.parametrize("text,dim", [("1:1/3;1:4/3", 13), ("1:1/4;1:3/4", 16)])
def test_burnside_skips_a_prime_whose_span_is_too_small(monkeypatch, text, dim):
    # modulo 3 the growth stops short at these points; the closure proof
    # rejects that span and the next prime gives the algebra
    Z = FusedModuleSpec.from_string(SP2, text)
    assert len(irreducibility._grow_mod_p(irreducibility.algebra_generators(Z, 3), 3)) < dim
    primes = irreducibility._BURNSIDE_PRIMES
    monkeypatch.setattr(irreducibility, "_BURNSIDE_PRIMES", (3,) + primes)
    span = burnside(Z)
    assert (span.dim, span.prime, span.rejected) == (dim, primes[0], [3])
    assert span.closure_proved == (dim < 16)


def test_burnside_words_multiply_out_to_the_algebra():
    # the words are index sequences into the chosen generators whose
    # products are exactly independent, starting from the identity
    Z = FusedModuleSpec.from_string(SP2, "1:1/3;1:4/3")
    span = burnside(Z)
    G = irreducibility.algebra_generators(Z)[span.generators]
    assert span.words[0] == () and len(span.words) == span.dim == 13
    mats = []
    for word in span.words:
        M = feye(4)
        for j in word:
            M = fdot(M, G[j])
        mats.append(M.ravel())
    assert rank_exact(np.stack(mats)) == 13


def test_growth_by_slices_takes_the_words_of_one_at_a_time(monkeypatch):
    Z = FusedModuleSpec.from_string(SO3, "1:2/3;1:5/3")
    p = irreducibility._BURNSIDE_PRIMES[0]
    G = irreducibility.algebra_generators(Z, p)
    sliced = irreducibility._grow_mod_p(G, p)
    monkeypatch.setattr(irreducibility, "_GROWTH_BATCH", 1)
    assert irreducibility._grow_mod_p(G, p) == sliced
    assert len(sliced) == 63


def test_closure_proof_by_generator_slices(monkeypatch):
    # one generator per product: the same proof, and the same rejection of
    # a prime whose span is too small
    monkeypatch.setattr(irreducibility, "_PROOF_BATCH", 1)
    monkeypatch.setattr(irreducibility, "_BURNSIDE_PRIMES", (3,) + irreducibility._BURNSIDE_PRIMES)
    span = burnside(FusedModuleSpec.from_string(SP2, "1:1/3;1:4/3"))
    assert (span.dim, span.rejected, span.closure_proved) == (13, [3], True)


# ---------------------------------------------------------------------------
# the residue witness of phi at off-wall points

SKEW2 = SkewDiagram((2, 1), (1,))
# the shapes of criterion 9, sampled as it samples them (rng seed 97)
CRITERION_9_SHAPES = [
    (SP2, [BOX]), (SP2, [VDOM]), (SP2, [HDOM]),
    (SP2, [BOX, BOX]), (SP2, [BOX, HDOM]), (SP2, [HDOM, HDOM]),
    (SO3, [BOX]), (SO3, [VDOM]), (SO3, [HDOM]), (SO3, [SKEW2]),
    (SO3, [BOX, BOX]), (SO3, [BOX, VDOM]), (SO3, [VDOM, VDOM]),
]


def _criterion_9_points(per_shape=10):
    rng = random.Random(97)
    return [FusedModuleSpec(form, list(zip(shape, random_offwall(len(shape), rng))))
            for form, shape in CRITERION_9_SHAPES for _ in range(per_shape)]


def test_witness_matches_exact_phi_at_criterion_9_points():
    for Z in _criterion_9_points():
        phi = phi_leading(Z)
        assert phi_witness(Z) == (phi.order, surjectivity(phi)[0]), Z


def test_witness_never_overstates_the_exact_phi_at_scan_walls_points():
    # at rank-deficient and wall points a residue may vanish or lose rank,
    # never gain it; a nonzero residue (rank > 0: the contraction only
    # reindexes it) proves the order
    for Z in _scan_walls_points():
        phi, (order, rank) = phi_leading(Z), phi_witness(Z)
        exact, full = surjectivity(phi)[0], Z.dimZ**2
        assert rank <= exact and (rank < full or exact == full), Z
        assert rank == 0 or order == phi.order, Z


# wall points checked against Burnside: two reducible (the first two) and three
# irreducible ones where phi is not surjective
BURNSIDE_WALL_POINTS = [(SP2, "1:1/3;1:4/3"), (SO3, "1:2/3;1:5/3"), (SP2, "1:1/4;1:3/4"),
                        (SP2, "1:1/3;1:-4/3"), (SP2, "2:1/2")]


def _bench_workloads():
    """The benchmark's workload module, imported from perfbench/."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import bench_workloads
    finally:
        sys.path.remove(bench)
    return bench_workloads


def _scan_walls_grids(seeds=(1, 2, 3)):
    """The points of each of the benchmark's scan-walls grids, as specs."""
    grids = []
    for seed in seeds:
        for kind, N, mods, lists in _bench_workloads().ScanWalls(seed).grids:
            grids.append([FusedModuleSpec.from_string(GForm.default(kind, N), ";".join(
                f"{d}:{Fraction(z)}" for d, z in zip(mods.split(";"), zs)))
                for zs in itertools.product(*lists)])
    return grids


def _scan_walls_points():
    """Every point of the benchmark's scan-walls grids at seeds 1-3."""
    specs = {(Z.form.kind, Z.N, Z.spec_string()): Z for grid in _scan_walls_grids() for Z in grid}
    return [specs[key] for key in sorted(specs)]


def _verdict_generic_shapes(seeds=range(1, 11)):
    """The benchmark's verdict-generic points, one list per shape."""
    shapes: dict = {}
    for seed in seeds:
        for kind, N, shape, zs in _bench_workloads().VerdictGeneric(seed).points:
            shapes.setdefault((kind, N, tuple(shape)), []).append(FusedModuleSpec(
                GForm.default(kind, N), [(parse_skew(d), z) for d, z in zip(shape, zs)]))
    return list(shapes.values())


def _agrees_with_the_exact_path(Z, witness):
    """A witness of rank d^2 is exactly phi_leading's order and rank; any
    other never overstates the rank, and gives the exact order when its
    rank is above 0."""
    phi = phi_leading(Z)
    exact, (order, rank) = surjectivity(phi)[0], witness
    if rank == Z.dimZ**2:
        return (order, rank) == (phi.order, exact)
    return rank <= exact and (rank == 0 or order == phi.order)


def test_batched_witness_matches_the_exact_path():
    # the 156 scan-walls points of seeds 1-3, one batch per grid, and the 80
    # verdict-generic points of seeds 1-10, one batch per shape; every batch
    # gives the one-module witnesses
    grids = _scan_walls_grids()
    shapes = _verdict_generic_shapes()
    assert [sum(map(len, batches)) for batches in (grids, shapes)] == [156, 80]
    full = []
    for batch in grids + shapes:
        got = irreducibility.phi_witnesses(batch)
        assert got == [phi_witness(Z) for Z in batch]
        for Z, witness in zip(batch, got):
            assert _agrees_with_the_exact_path(Z, witness), Z
        full.append(sum(rank == Z.dimZ**2 for Z, (_, rank) in zip(batch, got)))
    # every verdict-generic point is certified (off the walls phi is
    # surjective); the scan-walls grids hold points of both kinds
    assert full[len(grids):] == list(map(len, shapes))
    assert 0 < sum(full[:len(grids)]) < 156


def test_witness_batch_cut_into_slices_gives_the_same_witnesses(monkeypatch):
    batch = _scan_walls_grids(seeds=(1,))[0] + _scan_walls_grids(seeds=(2,))[0]
    whole = irreducibility.phi_witnesses(batch)
    D2 = math.prod(batch[0].factor_dims * 2) ** 2
    slices = []
    residues = WitnessPlan.residues

    def recording(plan, ts, p):
        slices.append(len(ts))
        return residues(plan, ts, p)

    monkeypatch.setattr(WitnessPlan, "residues", recording)
    for budget, sizes in ((5 * D2, [5, 5, 2]), (D2, [1] * 12), (1, [1] * 12)):
        monkeypatch.setattr(irreducibility, "_WITNESS_BATCH", budget)
        slices.clear()
        assert irreducibility.phi_witnesses(batch) == whole
        assert slices == sizes


def _block_residue_points():
    return (_criterion_9_points() + _scan_walls_points()
            + [FusedModuleSpec.from_string(form, text) for form, text in BURNSIDE_WALL_POINTS])


# The references for the witness plan: the per-term residue product and the
# per-point block search that the plan replaced, kept here as they stood.

def _lowest_frames(fb, ts, s: int, p: int) -> tuple[list, np.ndarray]:
    """(ks, R): for each t of ``ts`` the index k of the lowest nonzero frame
    of fb.substituted(t, s, ...), and that frame mod p as float64 residues
    in (-p, p), stacked; k is None, and its frame zero, for a zero block and
    where frame 0 is zero mod p at t != 0 or s = 0.  At t = 0 and s != 0
    frame k is s^k frames[k], and a constant block is its one frame
    everywhere; otherwise frame 0 is the homogenised Horner sum at t = a/b,
    sum_k frames[k] a^k b^(deg - k)."""
    k0, deg, shape = fb.low, len(fb.frames) - 1, (len(ts),) + fb.frames[0].shape
    stacked = (np.stack(fb.frames).reshape(len(fb.frames), -1) % p).astype(np.float64)
    if k0 is None:
        return [None] * len(ts), np.zeros(shape)
    if not deg or s and not any(ts):  # frame k0 at every point
        c, R = pow(s, k0, p), np.empty(shape)
        R[:] = stacked[k0].reshape(shape[1:])
        return [k0] * len(ts), R if c == 1 else reduce_mod(R * c, p)
    rows, ks = [], []
    for t in ts:
        if t == 0 and s:
            rows.append([pow(s, k0, p) if k == k0 else 0 for k in range(deg + 1)])
            ks.append(k0)  # a residue of frame k0 itself
        else:
            a, b = t.numerator % p, t.denominator % p
            row = [1]
            for _ in range(deg):
                row.append(row[-1] * a % p)
            bk = 1
            for k in range(deg, -1, -1):
                row[k] = row[k] * bk % p
                bk = bk * b % p
            rows.append(row)
            ks.append(-1)  # frame 0, known nonzero only if its residue is
    R = mod_matmul(np.array(rows, dtype=np.float64), stacked, p)
    told = R.any(axis=1).tolist()
    return [k if k != -1 else 0 if nonzero else None
            for k, nonzero in zip(ks, told)], R.reshape(shape)


def _term_residue(points, dims, p: int) -> tuple[list[int], np.ndarray]:
    """(o, R) at each of the P ``points``, each the ordered (BlockTerm,
    slots) of one product with the same slots and blocks, as
    WitnessPlan.residues gives them: one _lowest_frames call per term for
    all points, contracted term by term with the slots moved last."""
    D, legs, P = math.prod(dims), list(range(len(dims))), len(points)
    acc = np.eye(D).reshape((1, D) + tuple(dims))
    order = [-sum(term.den.count(-term.t.numerator) for term, _ in terms
                  if term.den and term.t.denominator == 1) for terms in points]
    live = [True] * P
    for column in zip(*points):
        terms, slots = [term for term, _ in column], column[0][1]
        ks, low = _lowest_frames(terms[0].block, [term.t for term in terms], terms[0].s, p)
        for i, k in enumerate(ks):
            live[i] = live[i] and k is not None
            order[i] += k if live[i] else 0
        if not any(live):
            return order, np.zeros((P, D, D))
        m = low.shape[-1]
        moved = [leg for leg in legs if leg not in slots] + list(slots)
        acc = acc.transpose([0, 1] + [2 + legs.index(leg) for leg in moved])
        acc = mod_matmul(acc.reshape(len(acc), -1, m), low, p).reshape((P,) + acc.shape[1:])
        legs = moved
    acc = acc.transpose([0, 1] + [2 + legs.index(leg) for leg in range(len(dims))])
    return order, acc.reshape(-1, D, D)


def _stacked_blocks(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, owner): the blocks of the residue matrices of a stack A (nonzero
    exactly where nonzero mod p; a matrix is a stack of one), one per
    connected component of the bipartite nonzero pattern, rows and columns
    in order, zero-padded into the (G, m, n) float64 array S, and the index
    in A of each block's matrix.  The
    matrices of a stack share no row or column, so one pass of label
    propagation with pointer jumping finds the components of all of them."""
    M = np.asarray(A, dtype=np.float64)
    M = M[None] if M.ndim == 2 else M
    P, m, n = M.shape
    flat = np.flatnonzero(M)
    if not flat.size:
        return np.zeros((1, 0, 0)), np.zeros(1, dtype=np.int64)
    gr, j = np.divmod(flat, n)  # rows of the stack, in order; columns
    gc = j if P == 1 else gr // m * n + j
    r = np.concatenate(([0], np.cumsum(gr[1:] != gr[:-1])))
    used = np.zeros(P * n, dtype=bool)
    used[gc] = True
    c = np.cumsum(used)
    rows, cols = int(r[-1]) + 1, int(c[-1])
    c = c[gc] - 1
    label, new = None, np.arange(rows)
    while label is None or (new != label).any():
        label, col = new, np.full(cols, rows)
        np.minimum.at(col, c, label[r])
        new = label.copy()
        np.minimum.at(new, r, col[c])
        new = new[new]
    group = np.cumsum(label == np.arange(rows)) - 1
    G = int(group[-1]) + 1
    owner = np.zeros(G, dtype=np.int64)
    if P > 1:
        owner[group[label[r]]] = gr // m
    key = np.concatenate([group[label], G + group[col]])
    counts = np.bincount(key)
    pos = np.empty_like(key)
    pos[np.argsort(key, kind="stable")] = np.arange(key.size) - np.repeat(
        np.cumsum(counts) - counts, counts)
    S = np.zeros((G, counts[:G].max(), counts[G:].max()))
    S[key[r], pos[r], pos[rows + c]] = M.reshape(-1)[flat]
    return S, owner


def _one_residue(Z, p):
    """The witness plan's residue of Z modulo p: (o, R)."""
    plan = witness_plan(Z)
    orders, R = plan.residues([plan.arguments(Z)], p)
    return orders[0], R[0]


def _frame_residue(blocks, dims, p):
    """_term_residue of exact frame blocks, each the term (fb, 0, 1) over
    fb.den: the reference for the residues of the argument blocks."""
    orders, R = _term_residue([[(BlockTerm(fb, 0, 1), slots) for fb, slots in blocks]], dims, p)
    return orders[0] - sum(fb.den_low()[0] for fb, _ in blocks), R[0]


def _exact_lowest(fb, p):
    """(k0, frame k0 mod p) of an exact block, read off its frames."""
    k0 = next(k for k, fr in enumerate(fb.frames) if fr.any())
    return k0, fb.frames[k0] % p


def test_block_residues_match_the_exact_blocks():
    # every term of S_{W,Z}: the residue of its argument block gives the
    # exact block's lowest frame mod p, and the offsets its valuation; it is
    # None only where frame 0 is zero mod p (at so3 1,1:1/2 and sp2 2:-1/2,
    # on walls, frame 0 of two blocks is zero), and the product is zero
    # there; elsewhere it is the product of the exact lowest frames, which
    # is zero only at wall points where they cancel.  The witness plan gives
    # that product, and so does the per-term reference
    p = irreducibility._WITNESS_PRIME
    deferred = 0
    for Z in _block_residue_points():
        terms, dims = swz_terms(Z), Z.factor_dims * 2
        vanished = False
        for term, _ in terms:
            exact = term.exact()
            (k, ), (R, ) = _lowest_frames(term.block, [term.t], term.s, p)
            if k is None:
                deferred += 1
                vanished = True
                assert not (exact.frames[0] % p).any()
            else:
                want = _exact_lowest(exact, p)
                assert k == want[0] and np.array_equal(R % p, want[1]), Z
            assert term.den.count(-term.t) == exact.den_low()[0], Z
        order, R = _one_residue(Z, p)
        orders, ref = _term_residue([terms], dims, p)
        assert order == orders[0] and np.array_equal(R % p, ref[0] % p), Z
        if vanished:
            assert not R.any(), Z
        else:
            want = _frame_residue(swz_frame_blocks(Z), dims, p)
            assert order == want[0] and np.array_equal(R % p, want[1] % p), Z
    assert deferred == 4


def _gather_scatter_residue(terms, dims, p):
    """The reference for the plan's residue: the accumulator's columns gathered by
    slot map (_slot_rest_index) into (rest, slot) rows, multiplied by each
    lowest frame and scattered back, in int64 (a sum of d_slots products of
    residues stays below 2^63 at these primes); zero where a block residue
    is None."""
    D = math.prod(dims)
    acc = np.eye(D, dtype=np.int64)
    order = -sum(term.den.count(-term.t) for term, _ in terms)
    for term, slots in terms:
        (k0,), (low,) = _lowest_frames(term.block, [term.t], term.s, p)
        if k0 is None:
            return order, np.zeros((D, D), dtype=np.int64)
        order += k0
        cols = _slot_rest_index(slots, dims).T
        prod = acc[:, cols].reshape(-1, cols.shape[1]) @ (low % p).astype(np.int64) % p
        acc = np.empty_like(acc)
        acc[:, cols] = prod.reshape((D,) + cols.shape)
    return order, acc


def test_term_residue_matches_a_gather_scatter_product():
    # modulo 94906249, the largest prime mod_matmul takes, each chunk is one
    # term long, so every slot product runs in several chunks
    for p in (3, irreducibility._WITNESS_PRIME, 94906249):
        for Z in _criterion_9_points() + _scan_walls_points():
            terms, dims = swz_terms(Z), Z.factor_dims * 2
            got, want = _one_residue(Z, p), _gather_scatter_residue(terms, dims, p)
            assert got[0] == want[0] and np.array_equal(got[1] % p, want[1]), (p, Z)
            assert got[1].dtype == np.float64 and np.abs(got[1]).max() < p


def test_vanishing_block_residues_send_the_verdict_to_the_exact_path(monkeypatch):
    # modulo 2 and 3 some frame 0 vanishes at t != 0, so the block residue
    # cannot tell the lowest frame: the plan's residue is then zero,
    # and the verdict gives exactly the report of the exact path
    vanished = 0
    for p in (2, 3):
        monkeypatch.setattr(irreducibility, "_WITNESS_PRIME", p)
        for Z in _criterion_9_points(per_shape=2):
            missing = [term for term, _ in swz_terms(Z)
                       if _lowest_frames(term.block, [term.t], term.s, p)[0] == [None]]
            if not missing:
                continue
            vanished += 1
            assert all(term.t != 0 or term.s == 0 for term in missing)
            assert not _one_residue(Z, p)[1].any()
            assert verdict(Z).to_json() == _exact_report(Z, monkeypatch), (p, Z)
    assert vanished > 0


def _block_labels(plan, size):
    """The block of each row and of each column of phi in the plan, -1 for
    none."""
    labels = []
    for index in (plan.block_rows, plan.block_cols):
        label = np.full(size, -1)
        for g, members in enumerate(index):
            label[members[members >= 0]] = g
        labels.append(label)
    return labels


def test_plan_blocks_hold_the_residue_support_at_every_point():
    # the plan's blocks are the components of a support made once per
    # shape; every point's contracted residue is zero off them, at a small
    # prime, at the witness prime and at the largest prime mod_matmul takes
    for p in (3, irreducibility._WITNESS_PRIME, 94906249):
        for Z in _block_residue_points():
            plan, d2 = witness_plan(Z), Z.dimZ**2
            rows, cols = _block_labels(plan, d2)
            r, c = np.nonzero(contraction_map_matrix(_one_residue(Z, p)[1], Z.dimZ, Z.dimZ))
            assert (rows[r] >= 0).all() and (rows[r] == cols[c]).all(), (p, Z)


def _plan_gather(plan, phi):
    """phi's certified blocks, zero-padded, as the plan gathers them."""
    rows, cols = plan.block_rows, plan.block_cols
    S = phi[rows[:, :, None], cols[:, None, :]]
    return S * ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :])


def test_plan_blocks_are_the_components_of_each_residue():
    # at the verdict-generic points the plan's blocks are those that a
    # search of each point's own support finds, but at so3 1,1, where the
    # per-shape support joins pairs of 2 x 2 blocks into 3 x 3 ones
    p = irreducibility._WITNESS_PRIME
    for batch in _verdict_generic_shapes():
        for Z in batch:
            plan = witness_plan(Z)
            phi = contraction_map_matrix(_one_residue(Z, p)[1], Z.dimZ, Z.dimZ)
            got, want = _plan_gather(plan, phi), _stacked_blocks(phi)[0]
            if (Z.form.kind, [str(d) for d, _ in Z.factors]) == ("so", ["1,1"]):
                assert (got.shape, want.shape) == ((4, 3, 3), (6, 2, 2)), Z
            else:
                assert np.array_equal(got, want), Z


def test_a_plan_past_the_budget_is_built_and_used_but_not_kept(monkeypatch):
    batch = _scan_walls_grids(seeds=(1,))[0]
    whole = irreducibility.phi_witnesses(batch)
    plan = witness_plan(batch[0])
    assert witness_plan(batch[0]) is plan  # kept within the budget
    monkeypatch.setattr(repmatrix, "_blocks", type(repmatrix._blocks)())
    monkeypatch.setattr(repmatrix, "_held", 0)
    monkeypatch.setattr(repmatrix, "_BLOCK_ENTRIES", plan.entries - 1)
    assert irreducibility.phi_witnesses(batch) == whole
    assert repmatrix._blocks  # the argument blocks are kept
    assert not any(isinstance(item, WitnessPlan) for item in repmatrix._blocks.values())
    assert witness_plan(batch[0]) is not witness_plan(batch[0])


def _exact_report(Z, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(irreducibility, "phi_witness", lambda Z: (0, 0))
        return verdict(Z).to_json()


def _spy_frame_product(monkeypatch):
    calls = []

    def spy(blocks, dims):
        calls.append(dims)
        return frame_product(blocks, dims)

    monkeypatch.setattr(irreducibility, "frame_product", spy)
    return calls


def _scan_output(modules, grid):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["scan", "--n", "2", "--form", "sp", "--modules", modules,
                         f"--grid={grid}", "--jobs", "1", "--json"]) == 0
    return buf.getvalue()


def test_small_witness_primes_fall_back_to_the_same_report(monkeypatch):
    # modulo 2, 3 and 5 residues vanish and ranks drop at many points; every
    # such point takes the exact path and the report does not change, nor
    # does the output of a scan, whose batch then decides fewer points
    points = _criterion_9_points(per_shape=1)
    exact = [_exact_report(Z, monkeypatch) for Z in points]
    scans = [("1;1", "1/3,-1/3;4/3,1/3,-1/3,2/5"), ("2", "2/5,1,1/2,0,3/2,-1/2")]
    scanned = [_scan_output(*scan) for scan in scans]
    calls = _spy_frame_product(monkeypatch)
    for p in (2, 3, 5):
        monkeypatch.setattr(irreducibility, "_WITNESS_PRIME", p)
        assert [verdict(Z).to_json() for Z in points] == exact
        assert [_scan_output(*scan) for scan in scans] == scanned
    assert 0 < len(calls) < 3 * (len(points) + 14)


def test_warm_offwall_verdict_takes_no_exact_step(monkeypatch):
    Z = spec(SO3, (VDOM, Fraction(1, 3)), (VDOM, Fraction(-2, 5)))
    verdict(Z)  # fills the block cache

    def refuse(*args):
        raise AssertionError("an off-wall verdict ran an exact step")

    for name in ("frame_product", "rank_exact", "burnside"):
        monkeypatch.setattr(irreducibility, name, refuse)
    rep = verdict(spec(SO3, (VDOM, Fraction(-4, 3)), (VDOM, Fraction(7, 5))))
    assert (rep.laurent_order, rep.phi_rank, rep.algebra_dim) == (-2, 81, 81)
    assert rep.verdict == "irreducible"


def test_wall_verdict_matches_the_exact_path(monkeypatch):
    # a single verdict takes its residue witness at wall points too, and
    # gives the exact path's report at every scan-walls wall point
    calls, witness = [], irreducibility.phi_witness
    monkeypatch.setattr(irreducibility, "phi_witness", lambda Z: calls.append(Z) or witness(Z))
    points = [Z for Z in _scan_walls_points() if walls(Z).violated([z for _, z in Z.factors])]
    assert len(points) == 52
    for Z in points:
        assert verdict(Z).to_json() == _exact_report(Z, monkeypatch), Z
    assert calls == points


# ---------------------------------------------------------------------------
# Burnside from residues of the S(u) coefficients

def _s_block_residues_match(Z, primes):
    """Every residue block of algebra_generators(Z, p) is the integer block
    of S_1 .. S_2n mod p, in the order (k, i, j)."""
    N, d = Z.N, Z.dimZ
    exact = [Sk.mat.astype(object).reshape(N, d, N, d)[i, :, j, :]
             for Sk in itertools.islice(s_coefficients(Z, 2 * Z.n_total), 1, None)
             for i, j in np.ndindex(N, N)]
    for p in primes:
        R = irreducibility.algebra_generators(Z, p)
        assert R.dtype == np.float64 and len(R) == len(exact) and np.all(np.abs(R) < p)
        for r, block in zip(R, exact):
            assert np.all((r.astype(np.int64).astype(object) - block) % p == 0), (Z, p)


@pytest.mark.parametrize("form,shape", CRITERION_9_SHAPES,
                         ids=[f"{f.kind}{f.N}-{i}" for i, (f, _) in enumerate(CRITERION_9_SHAPES)])
def test_residue_s_blocks_are_the_exact_blocks_mod_p(form, shape):
    rng = random.Random(12)
    Z = FusedModuleSpec(form, list(zip(shape, random_offwall(len(shape), rng))))
    _s_block_residues_match(Z, (2, 3, 2097143))


@pytest.mark.parametrize("form,text", [(SO3, "3,2,1/2,1:1/7"),
                                       (GForm.orthogonal(4), "1,1:1/5;1,1:-2/7")],
                         ids=["dim27", "dim36"])
def test_residue_s_blocks_at_large_dims(form, text):
    _s_block_residues_match(FusedModuleSpec.from_string(form, text), (2, 3, 2097143))


def _aux_transposed(X, N, g, g_inv):
    """g X^t g^-1 on the auxiliary leg of an (N d) x (N d) matrix, written
    out entrywise in Python ints."""
    X4 = X.astype(object).reshape(N, -1, N, X.shape[1] // N)
    out = np.empty_like(X4)
    for a, b in np.ndindex(N, N):
        out[a, :, b, :] = sum(g[a, c] * X4[e, :, c, :] * g_inv[e, b]
                              for c in range(N) for e in range(N))
    return out.reshape(X.shape)


def test_s_factors_are_the_signed_transposes_of_the_t_coefficients():
    # A_m = (-1)^m g B_m^t g^-1 on the auxiliary leg, all coefficients
    # transposed in one call: at every criterion-9 shape, and at a module
    # whose T frames are pushed past int64, so that B and A hold Python ints
    rng = random.Random(5)
    modules = [FusedModuleSpec(form, list(zip(shape, random_offwall(len(shape), rng))))
               for form, shape in CRITERION_9_SHAPES]
    big = spec(SP2, (BOX, Fraction(1, 3)), (HDOM, Fraction(-2, 5)))
    td = repmatrix._t_data(big)
    big._tdata = FrameBlock([fr.astype(object) * 2**70 for fr in td.frames], td.scale, td.den,
                            td.dims)
    for Z in modules + [big]:
        A, B, _ = s_factors(Z, 2 * Z.n_total)
        form = repmatrix._cleared_form(Z.form)[0]
        g, g_inv = form.g.astype(object), form.g_inv.astype(object)
        assert len(A) == len(B) == 2 * Z.n_total + 1
        for m, (Am, Bm) in enumerate(zip(A, B)):
            assert np.array_equal(Am.astype(object), (-1) ** m * _aux_transposed(Bm, Z.N, g, g_inv))
    assert A[1].dtype == B[1].dtype == object


def test_closure_proof_rejects_a_generator_outside_the_span():
    # the words of the reducible point span the algebra of the chosen
    # generators, which holds every other generator; a generator not
    # chosen but moved outside that span fails the proof
    Z = FusedModuleSpec.from_string(SP2, "1:1/3;1:4/3")
    p = irreducibility._BURNSIDE_PRIMES[0]
    R = irreducibility.algebra_generators(Z, p)
    chosen = irreducibility._modp_rref(R.reshape(len(R), 16).T.copy(), p)[0]
    grown = irreducibility._grow_mod_p(R[chosen], p)
    G = irreducibility.algebra_generators(Z)
    assert len(grown) == 13 and irreducibility._span_closed(G, chosen, grown)
    other = next(k for k in range(len(G)) if k not in chosen and G[k].any())
    words = irreducibility._lift_words(G[chosen], grown).reshape(13, 16)
    units = np.eye(16, dtype=np.int64)
    outside = next(u for u in units if rank_exact(np.vstack([words, u])) == 14)
    moved = G.astype(object)
    moved[other] += outside.reshape(4, 4)
    assert not irreducibility._span_closed(moved, chosen, grown)


def test_irreducible_burnside_forms_no_exact_s(monkeypatch):
    # a wall point of rank 27 < 36 where Burnside growth finds all 36 words:
    # only residues of the S(u) coefficients are formed
    drawn = []
    sums = irreducibility.s_sums

    def recording(factors, p=None):
        drawn.append(p)
        return sums(factors, p)

    monkeypatch.setattr(irreducibility, "s_sums", recording)
    rep = verdict(FusedModuleSpec.from_string(SP2, "1:1/2;2:-2/5"))
    assert (rep.phi_rank, rep.algebra_dim, rep.verdict) == (27, 36, "irreducible")
    assert drawn == [irreducibility._BURNSIDE_PRIMES[0]]
    # at a reducible point the exact coefficients are formed once
    drawn.clear()
    assert verdict(FusedModuleSpec.from_string(SP2, "1:2/5;2:7/5")).algebra_dim == 28
    assert drawn == [irreducibility._BURNSIDE_PRIMES[0], None]
