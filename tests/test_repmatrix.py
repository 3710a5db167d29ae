from fractions import Fraction

import numpy as np
import pytest

from twistfusion.diagrams import SkewDiagram, column_tableau
from twistfusion.errors import BoxCapExceeded, ShapeTooTall, SingularParameter
from twistfusion.exactnum import RatFunc, laurent_at_point, series_at_infinity
from twistfusion import linalg, repmatrix
from twistfusion.fusion import fusion_operator
from twistfusion.linalg import mat_equal, rank_exact
from twistfusion.repmatrix import (
    FusedModuleSpec,
    check_defining_relations,
    duality_check,
    r_factorized,
    s_elementary,
    s_fused,
    s_generators,
    t_action,
    yang_matrices,
)
from twistfusion.tensor import (
    Basis,
    GForm,
    TensorOperator,
    embed_operator,
    embed_two_leg,
    flip,
    restrict,
    structural_ops,
    transpose_legs,
)

BOX = SkewDiagram((1,))
VDOM = SkewDiagram((1, 1))
SO2 = GForm.orthogonal(2)
SO3 = GForm.orthogonal(3)
SP2 = GForm.symplectic(2)


def spec(form, *pairs, cap=6):
    return FusedModuleSpec(form, [(d, Fraction(z)) for d, z in pairs], box_cap=cap)


# ---------------------------------------------------------------------------
# Yang matrices

def test_yang_r_at_point():
    P, _ = structural_ops(SO2)
    R, Rp, Rb, Rbp = yang_matrices(SO2, Fraction(1), Fraction(0))
    assert R == TensorOperator.identity((2, 2)) - P
    assert Rb == R  # u - v = 1


def test_yang_baxter_at_point():
    for form in (SO2, SO3):
        u = (Fraction(5), Fraction(2), Fraction(-1))
        R12, _, _, _ = yang_matrices(form, u[0], u[1])
        R13, _, _, _ = yang_matrices(form, u[0], u[2])
        R23, _, _, _ = yang_matrices(form, u[1], u[2])
        A12 = embed_two_leg(R12, 1, 2, 3)
        A13 = embed_two_leg(R13, 1, 3, 3)
        A23 = embed_two_leg(R23, 2, 3, 3)
        assert A12 @ A13 @ A23 == A23 @ A13 @ A12


def test_breve_singular():
    with pytest.raises(SingularParameter):
        yang_matrices(SO2, Fraction(3), Fraction(3))
    with pytest.raises(SingularParameter):
        yang_matrices(SO2, Fraction(3), Fraction(-3))


# ---------------------------------------------------------------------------
# factorized operators

def test_r_factorized_single_boxes_matches_yang():
    W = spec(SO2, (BOX, 3))
    Z = spec(SO2, (BOX, 1))
    R = r_factorized(W, Z, "R")
    Ry, _, _, _ = yang_matrices(SO2, Fraction(3), Fraction(1))
    assert mat_equal(R.mat, Ry.mat)


def test_r_factorized_symbolic_single_pair():
    # W = Z = one box at z, W shifted: breve R = 1 - P/zeta
    Z = spec(SO2, (BOX, Fraction(1, 3)))
    fam = r_factorized(Z, Z, "Rb", w_shift=RatFunc.x())
    P, _ = structural_ops(SO2)
    orders = []
    for (i, j), v in np.ndenumerate(fam.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        if f.is_zero():
            continue
        o, cs = laurent_at_point(f, 0, 1)
        orders.append(o)
        if o == -1:
            assert cs[0] == -P.mat[i, j]
    assert min(orders) == -1


def test_rb_leading_term_proportional_to_flip():
    # two single-box factors at (1/3, 7/5): leading coefficient is a scalar
    # multiple of the flip of the two copies
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    fam = r_factorized(Z, Z, "Rb", w_shift=RatFunc.x())
    D = 4
    r_min = None
    for (_, v) in np.ndenumerate(fam.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        if not f.is_zero():
            o, _ = laurent_at_point(f, 0, 1)
            r_min = o if r_min is None else min(r_min, o)
    coeff = np.empty(fam.mat.shape, dtype=object)
    for idx, v in np.ndenumerate(fam.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        if f.is_zero():
            coeff[idx] = Fraction(0)
        else:
            o, cs = laurent_at_point(f, 0, 1)
            coeff[idx] = cs[0] if o == r_min else Fraction(0)
    FL = flip(D).mat
    scale = None
    for idx in np.ndindex(coeff.shape):
        if FL[idx] != 0:
            scale = coeff[idx]
            break
    assert scale != 0
    assert mat_equal(coeff, scale * FL)


def _pair_block_oracle(Z, i, shiftA, j, shiftB, kind, zeta):
    """Dense product of embedded two-leg Yang matrices at the box parameters
    u_p = z_i + c_p (+ zeta), v_q = z_j + c_q (+ zeta), in the block order
    (p descending; q ascending for R, Rb and descending for R', Rb'),
    restricted to V_i (x) V_j."""
    contA, contB = Z.contents(i), Z.contents(j)
    nA, nB = len(contA), len(contB)
    u = [Z.z(i) + c + (zeta if shiftA else 0) for c in contA]
    v = [Z.z(j) + c + (zeta if shiftB else 0) for c in contB]
    pick = repmatrix.KINDS.index(kind)
    out = TensorOperator.identity((Z.N,) * (nA + nB))
    for p in reversed(range(nA)):
        for q in (range(nB) if kind in ("R", "Rb") else reversed(range(nB))):
            factor = yang_matrices(Z.form, u[p], v[q])[pick]
            out = out @ embed_two_leg(factor, p + 1, nA + q + 1, nA + nB)
    basis = Basis.kron(Z.basis(i), Z.basis(j))
    return restrict(out, basis, basis, dims=(Z.basis(i).size, Z.basis(j).size))


@pytest.mark.parametrize("shifts", [(True, False), (True, True), (False, False)])
@pytest.mark.parametrize("form,modules", [(SO3, "1,1:1/5;2:-3/7"), (SP2, "2:2/7;1:1/5")],
                         ids=["so3", "sp2"])
@pytest.mark.parametrize("kind", repmatrix.KINDS)
def test_pair_blocks_match_dense_product(kind, form, modules, shifts):
    Z = FusedModuleSpec.from_string(form, modules)
    zeta = Fraction(2, 9)
    oracle = _pair_block_oracle(Z, 0, shifts[0], 1, shifts[1], kind, zeta)
    fb = repmatrix._pair_block_frames(Z, 0, shifts[0], 1, shifts[1], kind)
    value = sum(fr * zeta**k for k, fr in enumerate(fb.frames)) / fb.den.eval(zeta)
    assert fb.dims == oracle.dims
    assert mat_equal(value, oracle.mat)
    # the scalar-parameter route of r_factorized at the same point
    block = repmatrix._pair_block(
        form, Z.contents(0), Z.basis(0), Z.z(0) + (zeta if shifts[0] else 0),
        Z.contents(1), Z.basis(1), Z.z(1) + (zeta if shifts[1] else 0), kind,
    )
    assert block == oracle


# ---------------------------------------------------------------------------
# elementary and fused S-matrices

def test_s_elementary_single_box_identity():
    assert s_elementary(BOX, Fraction(2, 7), SO3) == TensorOperator.identity((3,))


def _s_elementary_oracle(omega, z, form):
    """Independent assembly from the proof-form product:
    (-1)^(n(n-1)/2) * reversed-lex product of (2z + c_p + c_q + Q_pq)."""
    n = omega.size
    cont = column_tableau(omega).contents
    _, Q = structural_ops(form)
    N = form.N
    out = TensorOperator.identity((N,) * n)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for (p, q) in reversed(pairs):
        fac = (2 * z + cont[p] + cont[q]) * TensorOperator.identity((N,) * n) + embed_two_leg(
            Q, p + 1, q + 1, n
        )
        out = out @ fac
    sign = (-1) ** (n * (n - 1) // 2)
    out = sign * out
    basis = fusion_operator(omega, N).module_basis
    return restrict(out, basis, basis, dims=(basis.size,))


@pytest.mark.parametrize("omega,N,z", [
    (VDOM, 2, Fraction(1)),
    (VDOM, 3, Fraction(2, 5)),
    (SkewDiagram((2, 1)), 2, Fraction(1, 3)),
    (SkewDiagram((2,)), 3, Fraction(-1, 7)),
])
def test_s_elementary_matches_proof_form(omega, N, z):
    form = GForm.orthogonal(N)
    assert s_elementary(omega, z, form) == _s_elementary_oracle(omega, z, form)


def test_s_elementary_vdom_value():
    # contents (0,-1); at z=1 the restriction to the 1-dim module is -(1+Q) = -1
    se = s_elementary(VDOM, Fraction(1), SO2)
    assert se.mat[0, 0] == Fraction(-1)


def test_s_elementary_invertible_off_singular_set():
    # singular points lie among -(c_p+c_q)/2 and -(c_p+c_q+N)/2
    cont = column_tableau(VDOM).contents
    bad = set()
    for p in range(2):
        for q in range(p + 1, 2):
            bad.add(Fraction(-(cont[p] + cont[q]), 2))
            bad.add(Fraction(-(cont[p] + cont[q] + 2), 2))
    for z in (Fraction(1), Fraction(1, 3), Fraction(-2, 5), Fraction(5)):
        assert z not in bad
        se = s_elementary(VDOM, z, SO2)
        assert rank_exact(se.mat) == se.size


def test_s_fused_single_factor_equals_elementary():
    Z = spec(SO2, (VDOM, Fraction(1)))
    assert s_fused(Z) == s_elementary(VDOM, Fraction(1), SO2)


def test_s_fused_invertible_at_example_point():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    S = s_fused(Z)
    assert rank_exact(S.mat) == S.size


def test_s_fused_bracketing_routes():
    """The flat product equals both coproduct-splitting assemblies."""
    zs = (Fraction(1, 3), Fraction(7, 5), Fraction(-2, 7))
    flat = s_fused(spec(SO2, (BOX, zs[0]), (BOX, zs[1]), (BOX, zs[2])))
    dims = (2, 2, 2)

    def S_of(*pairs):
        return s_fused(spec(SO2, *pairs))

    # (V1 (x) V2) (x) V3
    U12 = spec(SO2, (BOX, zs[0]), (BOX, zs[1]))
    V3 = spec(SO2, (BOX, zs[2]))
    routeA = (
        embed_operator(S_of((BOX, zs[2])), (2,), dims)
        @ r_factorized(U12, V3, "R'")
        @ embed_operator(S_of((BOX, zs[0]), (BOX, zs[1])), (0, 1), dims)
    )
    assert mat_equal(flat.mat, routeA.mat)

    # V1 (x) (V2 (x) V3)
    V1 = spec(SO2, (BOX, zs[0]))
    W23 = spec(SO2, (BOX, zs[1]), (BOX, zs[2]))
    routeB = (
        embed_operator(S_of((BOX, zs[1]), (BOX, zs[2])), (1, 2), dims)
        @ r_factorized(V1, W23, "R'")
        @ embed_operator(S_of((BOX, zs[0])), (0,), dims)
    )
    assert mat_equal(flat.mat, routeB.mat)


# ---------------------------------------------------------------------------
# Yangian action and generator matrices

def test_t_action_single_box():
    Z = spec(SO2, (BOX, Fraction(1, 3)))
    T = t_action(Z)
    P, _ = structural_ops(SO2)
    x = RatFunc.x()
    expect = TensorOperator.identity((2, 2)).map_entries(RatFunc.coerce) - (
        1 / (x - Fraction(1, 3))
    ) * P.map_entries(RatFunc.coerce)
    assert all(T.mat[i, j] == expect.mat[i, j] for i in range(4) for j in range(4))


def test_t_action_regular_at_infinity():
    Z = spec(SO3, (VDOM, Fraction(2, 5)))
    T = t_action(Z)
    D = T.size
    order0 = np.empty((D, D), dtype=object)
    for idx, v in np.ndenumerate(T.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        order0[idx] = series_at_infinity(f, 0)[0]
    ident = TensorOperator.identity(T.dims)
    assert mat_equal(order0, ident.mat)


def test_rtt_at_sample_points_user_path():
    Z = spec(SO2, (VDOM, Fraction(1, 3)))
    samples = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(5)),
               (Fraction(-1), Fraction(4)), (Fraction(3), Fraction(-2)),
               (Fraction(7), Fraction(6))]
    rep = check_defining_relations(Z, samples=samples)
    assert not rep.rtt_failures and not rep.reflection_failures
    assert rep.rtt_checked == 5
    assert not rep.proven  # user samples never claim the grid proof


def test_relations_singular_sample_excluded():
    Z = spec(SO2, (BOX, Fraction(1, 3)))
    samples = [(Fraction(1, 3), Fraction(5)), (Fraction(1), Fraction(2))]
    rep = check_defining_relations(Z, samples=samples)
    assert len(rep.singular_samples) == 1
    assert rep.rtt_checked == 1


def test_relations_grid_proof():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    rep = check_defining_relations(Z)
    assert rep.passed and rep.proven
    assert rep.rtt_checked > rep.degree_bound


def _assert_proportional(A, B):
    """A = c B for one nonzero rational c (entrywise, exact)."""
    assert A.shape == B.shape
    r, c = next(idx for idx, v in np.ndenumerate(B) if v != 0)
    ratio = Fraction(A[r, c]) / Fraction(B[r, c])
    assert ratio != 0
    assert all(Fraction(a) == ratio * Fraction(b) for a, b in zip(A.flat, B.flat))


def test_integer_t_at_rational_sample():
    # non-grid, non-integer sample: the homogenised integer Horner sum must
    # equal the RatFunc oracle up to the dropped scalar
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    u0 = Fraction(2, 3)
    oracle = t_action(Z)
    td = repmatrix._t_data(Z)
    for u in (u0, -u0, Fraction(-3, 4)):
        _assert_proportional(td.at_int(u), oracle.eval_ratfuncs(u).mat)
    rep = check_defining_relations(Z, samples=[(u0, Fraction(5, 7)), (Fraction(-3, 4), u0)])
    assert rep.rtt_checked == 2 and rep.reflection_checked == 2
    assert not rep.rtt_failures and not rep.reflection_failures


def _record_certificates(monkeypatch):
    seen = []
    certified = linalg.int64_certified

    def recording(bound):
        seen.append(certified(bound))
        return seen[-1]

    monkeypatch.setattr(linalg, "int64_certified", recording)
    return seen


@pytest.mark.parametrize("path", ["int64", "object"])
def test_relations_reject_perturbed_t_frame(path, monkeypatch):
    Z = spec(SO3, (VDOM, Fraction(1, 3)))
    td = repmatrix._t_data(Z)
    frames = [fr.copy() for fr in td.frames]
    frames[0][0, 1] += 1
    Z._tdata = repmatrix._TData(frames, td.den)
    if path == "object":
        monkeypatch.setattr(linalg, "int64_certified", lambda bound: False)
        seen = []
    else:
        seen = _record_certificates(monkeypatch)
    rep = check_defining_relations(Z)
    assert rep.rtt_failures or rep.reflection_failures
    assert not rep.proven and not rep.passed
    if path == "int64":
        assert seen and all(seen)
    # the unperturbed module passes on the same path
    assert check_defining_relations(spec(SO3, (VDOM, Fraction(1, 3)))).proven


def _sample_blocks(Z, u0, v0):
    """Integer T(u0), T(v0), S(u0), S(v0) (each up to a scalar) from the
    RatFunc oracle, and the integer R(u0-v0), R'(u0+v0)."""
    T = t_action(Z)

    def t_mat(u):
        return linalg.to_int_scaled(T.eval_ratfuncs(u).mat)[0]

    def s_mat(u):
        S = transpose_legs(T.eval_ratfuncs(-u), {1}, Z.form) @ T.eval_ratfuncs(u)
        return linalg.to_int_scaled(S.mat)[0]

    R = repmatrix._int_cleared(repmatrix._aux_sparse(Z.form, u0, v0, primed=False))
    Rp = repmatrix._int_cleared(repmatrix._aux_sparse(Z.form, u0, v0, primed=True))
    return (t_mat(u0), t_mat(v0)), (s_mat(u0), s_mat(v0)), R, Rp


def _weight(R):
    return sum(abs(v) for v in R.values())


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_int64_certificate_boundary(relation, monkeypatch):
    # scale the first sample so the certificate lands just below and just
    # above 2^62; both sides of a relation scale alike, so the truth is kept
    Z = spec(SO2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    N, d = Z.N, Z.dimZ
    (tu, tv), (su, sv), R, Rp = _sample_blocks(Z, Fraction(2), Fraction(5))
    if relation == "rtt":
        a, b, weight = tu, tv, _weight(R)

        def holds(x, y):
            return repmatrix._rtt_holds(x, y, R, N, d)
    else:
        a, b, weight = su, sv, _weight(R) * _weight(Rp)

        def holds(x, y):
            return repmatrix._reflection_holds(x, y, R, Rp, N, d)

    unit = linalg.max_abs(a) * linalg.max_abs(b) * d * weight
    limit = 1 << 62
    scale = (limit - 1) // unit
    for k, certified in ((scale, True), (scale + 1, False)):
        assert (k * unit < limit) == certified
        big = (a * k).astype(object)
        broken = big.copy()
        broken[0, 1] += 1
        for x, truth in ((big, True), (broken, False)):
            blocks = repmatrix._blocked(x, N, d)
            seen = _record_certificates(monkeypatch)
            auto = holds(blocks, repmatrix._blocked(b, N, d))
            assert seen == [certified]
            monkeypatch.setattr(linalg, "int64_certified", lambda bound: False)
            forced = holds(blocks, repmatrix._blocked(b, N, d))
            monkeypatch.undo()
            assert auto == forced == truth


def test_s_generators_zeroth_slice():
    Z = spec(SP2, (BOX, Fraction(1, 3)))
    g = s_generators(Z, 4)
    for i in range(2):
        for j in range(2):
            blk = g.rho[0][i][j]
            for a in range(2):
                for b in range(2):
                    assert blk[a, b] == (1 if (i == j and a == b) else 0)


def test_s_generators_quadratic_relation_sample():
    # reflection relation holds, so the k=1 coefficients obey the induced
    # quadratic identities; spot-check via the relation engine
    Z = spec(SP2, (BOX, Fraction(1, 3)))
    rep = check_defining_relations(Z)
    assert rep.passed


# ---------------------------------------------------------------------------
# duality

@pytest.mark.parametrize("form", [SO2, SP2], ids=lambda f: f.kind)
@pytest.mark.parametrize("omega", [BOX, VDOM], ids=str)
def test_duality_examples(omega, form):
    rep = duality_check(omega, Fraction(1, 3), form)
    assert rep.passed, rep.failures


def test_duality_vdom_other_point():
    rep = duality_check(VDOM, Fraction(2, 5), SO2)
    assert rep.passed


# ---------------------------------------------------------------------------
# module specs

def test_spec_parsing_roundtrip():
    Z = FusedModuleSpec.from_string(SP2, "1:1/3;1,1:7/5")
    assert Z.spec_string() == "1:1/3;1,1:7/5"
    assert Z.ell == 2 and Z.n_total == 3
    assert Z.factor_dims == (2, 1)


def test_spec_validation():
    with pytest.raises(ShapeTooTall):
        FusedModuleSpec.from_string(SO2, "1,1,1:0")
    with pytest.raises(BoxCapExceeded):
        FusedModuleSpec.from_string(SO2, "2,2:0;2,2:1", box_cap=6)


def test_spec_box_params():
    Z = FusedModuleSpec.from_string(SO2, "1,1:1/3")
    assert Z.box_params(0) == [Fraction(1, 3), Fraction(-2, 3)]
