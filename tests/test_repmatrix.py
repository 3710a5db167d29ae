import contextlib
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skew_shapes import enumerate_skew
from twistfusion.diagrams import SkewDiagram, column_tableau, parse_skew, sharp
from twistfusion.errors import BoxCapExceeded, ShapeTooTall, SingularParameter
from twistfusion.exactnum import Poly, RatFunc
from twistfusion import cli, fusion, linalg, repmatrix, tensor
from twistfusion.fusion import fusion_operator
from twistfusion.linalg import mat_equal, rank_exact
from twistfusion.reference import (
    breve_r_frame_blocks,
    embed_operator,
    embed_two_leg,
    eval_ratfuncs,
    ratfunc_product,
    restrict,
    t_action,
    yang_matrices,
)
from twistfusion.repmatrix import (
    FusedModuleSpec,
    check_defining_relations,
    duality_check,
    r_factorized,
    s_elementary,
    s_fused,
    s_generators,
)
from twistfusion.tensor import (
    Basis,
    FrameBlock,
    GForm,
    TensorOperator,
    flip,
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


def _breve_leading_by_laurent(Z):
    """Order and leading coefficient at zeta = 0 of the symbolic breve-R
    family of Z, every entry expanded through RatFunc.laurent_at."""
    fam = ratfunc_product(breve_r_frame_blocks(Z), Z.factor_dims * 2).mat
    expansions = {idx: RatFunc.coerce(f).laurent_at(0, 1)
                  for idx, f in np.ndenumerate(fam) if not RatFunc.coerce(f).is_zero()}
    order = min(o for o, _ in expansions.values())
    coeff = np.full(fam.shape, Fraction(0), dtype=object)
    for idx, (o, cs) in expansions.items():
        if o == order:
            coeff[idx] = cs[0]
    return order, coeff


def test_r_factorized_symbolic_single_pair():
    # W = Z = one box at z, W shifted: breve R = 1 - P/zeta
    Z = spec(SO2, (BOX, Fraction(1, 3)))
    order, coeff = _breve_leading_by_laurent(Z)
    P, _ = structural_ops(SO2)
    assert order == -1
    assert mat_equal(coeff, -P.mat)


def test_rb_leading_term_proportional_to_flip():
    # two single-box factors at (1/3, 7/5): leading coefficient is a scalar
    # multiple of the flip of the two copies
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    _, coeff = _breve_leading_by_laurent(Z)
    FL = flip(4).mat
    scale = None
    for idx in np.ndindex(coeff.shape):
        if FL[idx] != 0:
            scale = coeff[idx]
            break
    assert scale != 0
    assert mat_equal(coeff, scale * FL)


def _pair_block_oracle(A, i, shiftA, B, j, shiftB, kind, zeta):
    """Dense product of embedded two-leg Yang matrices at the box parameters
    u_p = z_i + c_p (+ zeta) of factor i of A and v_q = z_j + c_q (+ zeta)
    of factor j of B, in the block order (p descending; q ascending for R,
    Rb and descending for R', Rb'), restricted to V_i (x) V_j."""
    contA, contB = A.contents(i), B.contents(j)
    nA, nB = len(contA), len(contB)
    u = [A.z(i) + c + (zeta if shiftA else 0) for c in contA]
    v = [B.z(j) + c + (zeta if shiftB else 0) for c in contB]
    pick = repmatrix.KINDS.index(kind)
    out = TensorOperator.identity((B.N,) * (nA + nB))
    for p in reversed(range(nA)):
        for q in (range(nB) if kind in ("R", "Rb") else reversed(range(nB))):
            factor = yang_matrices(B.form, u[p], v[q])[pick]
            out = out @ embed_two_leg(factor, p + 1, nA + q + 1, nA + nB)
    basis = Basis.kron(A.basis(i), B.basis(j))
    return restrict(out, basis, basis, dims=(A.basis(i).size, B.basis(j).size))


@pytest.mark.parametrize("shifts", [(True, False), (True, True), (False, False)])
@pytest.mark.parametrize("form,modules", [(SO3, "1,1:1/5;2:-3/7"), (SP2, "2:2/7;1:1/5")],
                         ids=["so3", "sp2"])
@pytest.mark.parametrize("kind", repmatrix.KINDS)
def test_pair_blocks_match_dense_product(kind, form, modules, shifts):
    Z = FusedModuleSpec.from_string(form, modules)
    zeta = Fraction(2, 9)
    oracle = _pair_block_oracle(Z, 0, shifts[0], Z, 1, shifts[1], kind, zeta)
    fb = repmatrix._pair_term(Z, 0, shifts[0], Z, 1, shifts[1], kind).exact()
    den = math.prod(a + b * zeta for a, b in fb.den)
    value = fb.scale * sum(fr * zeta**k for k, fr in enumerate(fb.frames)) / den
    assert fb.dims == oracle.dims
    assert mat_equal(value, oracle.mat)
    assert fb.at(zeta) == oracle
    if shifts == (False, False):
        # the numeric route: r_factorized of the two factors as modules of
        # their own is the one block between them
        W, Z1 = (FusedModuleSpec(form, [f]) for f in Z.factors)
        assert r_factorized(W, Z1, kind) == oracle


@pytest.mark.parametrize("form,w_modules,z_modules",
                         [(SO3, "1,1:1/5;1:2/3", "2:-3/7"), (SP2, "2:2/7;1:1/5", "1:-1/3;1,1:3/4")],
                         ids=["so3", "sp2"])
@pytest.mark.parametrize("kind", repmatrix.KINDS)
def test_r_factorized_two_factor_w_matches_dense_blocks(kind, form, w_modules, z_modules):
    # the dense blocks between factor i of W and factor j of Z, embedded on
    # slots (i, k + j) and multiplied with i descending, j ascending for R
    # and breve-R, descending for the primed kinds
    W, Z = (FusedModuleSpec.from_string(form, m) for m in (w_modules, z_modules))
    k = W.ell
    dims = W.factor_dims + Z.factor_dims
    js = list(range(Z.ell)) if kind in ("R", "Rb") else list(reversed(range(Z.ell)))
    expected = TensorOperator.identity(dims)
    for i in reversed(range(k)):
        for j in js:
            block = _pair_block_oracle(W, i, False, Z, j, False, kind, 0)
            expected = expected @ embed_operator(block, (i, k + j), dims)
    assert r_factorized(W, Z, kind) == expected


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
    # the zeta-shifted frames (every box parameter plus zeta) at zeta = 2/9
    zeta = Fraction(2, 9)
    shifted = repmatrix._elementary_s_term(omega, z, True, form).exact().at(zeta)
    assert shifted == _s_elementary_oracle(omega, z + zeta, form)


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
        order0[idx] = f.series_at_infinity(0)[0]
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
        _assert_proportional(td.at_ints([u])[0], eval_ratfuncs(oracle, u).mat)
    rep = check_defining_relations(Z, samples=[(u0, Fraction(5, 7)), (Fraction(-3, 4), u0)])
    assert rep.rtt_checked == 2 and rep.reflection_checked == 2
    assert not rep.rtt_failures and not rep.reflection_failures


def _record_moduli(monkeypatch, force_residues=False):
    """The modulus of every kernel that the relation checks draw: None for
    the exact float64 kernel, p for a residue kernel.  With
    ``force_residues`` every bound is raised to 2^53, which keeps it an
    upper bound and sends every sample to the residue kernels."""
    seen = []
    kernels = repmatrix.float_kernels

    def recording(arrays, bound, inner):
        if force_residues:
            bound = max(bound, 1 << 53)
        for arrays, p in kernels(arrays, bound, inner):
            seen.append(p)
            yield arrays, p

    monkeypatch.setattr(repmatrix, "float_kernels", recording)
    return seen


@contextlib.contextmanager
def _perturbed_t_block(Z, change):
    """The cached breve-R block between C^N(u) and the first factor of Z,
    which the relation sampler (_t_samples) and _t_data read, replaced by
    one with frames change(frames), on Python-int copies, for the block of
    the with statement.  A spec whose T is built inside it sees the change
    on both routes."""
    aux = repmatrix._form_parts(Z.form).aux
    block = repmatrix._pair_term(aux, 0, True, Z, 0, False, "Rb").block
    key = next(k for k, v in repmatrix._blocks.items() if v is block)
    frames = change([fr.astype(object) for fr in block.frames])
    repmatrix._blocks[key] = FrameBlock(frames, block.scale, block.den, block.dims)
    try:
        yield
    finally:
        repmatrix._blocks[key] = block


def _bump(k, at):
    """A frame change: entry ``at`` of frame k plus 1."""
    def change(frames):
        frames[k][at] += 1
        return frames
    return change


@pytest.mark.parametrize("path", ["exact", "residue"])
def test_relations_reject_perturbed_t_frame(path, monkeypatch):
    Z = spec(SO3, (VDOM, Fraction(1, 3)))
    seen = _record_moduli(monkeypatch, force_residues=path == "residue")
    with _perturbed_t_block(Z, _bump(0, (0, 1))):
        rep = check_defining_relations(Z)
    assert rep.rtt_failures or rep.reflection_failures
    assert not rep.proven and not rep.passed
    assert seen and all((p is None) == (path == "exact") for p in seen)
    # the unperturbed module passes on the same path
    assert check_defining_relations(spec(SO3, (VDOM, Fraction(1, 3)))).proven


@pytest.mark.parametrize("samples", [[(2**20, 3)], [(2**40, -2**40)]],
                         ids=["2^20,3", "2^40,-2^40"])
def test_large_user_samples_are_decided(samples, monkeypatch):
    # the weight sum|R| sum|R'| grows with u +- v; the residue kernels reduce
    # R and R' mod p as they reduce the samples, so the primes depend on N
    # and d alone and more of them cover the larger bound (146 and 213 bits
    # here, which the primes below 2^6 and 2^7 did not reach)
    pairs = [(Fraction(u), Fraction(v)) for u, v in samples]
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    seen = _record_moduli(monkeypatch)
    rep = check_defining_relations(Z, samples=pairs)
    assert (rep.rtt_checked, rep.reflection_checked, rep.singular_samples) == (1, 1, [])
    assert not rep.rtt_failures and not rep.reflection_failures
    assert None not in seen and min(seen) > 1 << 20
    with _perturbed_t_block(Z, _bump(0, (0, 1))):
        rep = check_defining_relations(Z, samples=pairs)
    assert rep.rtt_failures and rep.reflection_failures


@pytest.mark.parametrize("form,modules", [(SP2, "2:1;1:0"), (SO3, "1,1:1/3"), (SO2, "1:-2")],
                         ids=["sp2-poles", "so3", "so2"])
def test_relation_grid_is_the_non_poles_nearest_zero(form, modules, monkeypatch):
    # the relation grid holds 2n+3 distinct non-pole integers, and every
    # integer nearer 0 than one of them is a pole
    Z = FusedModuleSpec.from_string(form, modules)
    poles = {s * p for p in Z.all_box_params() for s in (1, -1)}
    grids = []
    real = repmatrix._sample_grid

    def recording(size, poles):
        grids.append(real(size, poles))
        return grids[-1]

    monkeypatch.setattr(repmatrix, "_sample_grid", recording)
    rep = check_defining_relations(Z)
    (grid,) = grids
    assert len(grid) == len(set(grid)) == 2 * Z.n_total + 3 == rep.degree_bound + 1
    assert rep.rtt_checked == rep.reflection_checked == len(grid) ** 2 and rep.proven
    assert all(q.denominator == 1 and q not in poles for q in grid)
    reach = int(max(abs(q) for q in grid))
    assert {Fraction(k) for k in range(-reach + 1, reach)} - poles <= set(grid)


def test_relations_grid_catches_a_perturbed_top_frame():
    # a change in the top frame of the cached block, which T reads at
    # x = u0 - z, must show on the grid as a change in the lowest one does
    Z = spec(SO3, (VDOM, Fraction(1, 3)))
    with _perturbed_t_block(Z, _bump(-1, (1, 0))):
        rep = check_defining_relations(Z)
    assert not rep.proven and not rep.passed


def _criterion_3_specs():
    """(label, spec): the criterion-3 specs, and two over a custom rational g
    whose cleared g and g^-1 carry nontrivial scales."""
    for N, form in ((2, SO2), (2, SP2), (3, SO3)):
        for dia in enumerate_skew(3, max_col_height=N):
            yield f"{form.kind}{N} {dia}", FusedModuleSpec(form, [(dia, Fraction(1, 3))])
        yield f"{form.kind}{N} 1;1", spec(form, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    custom = GForm.from_matrix([[Fraction(1, 2), 0], [0, 3]])
    yield "g=diag(1/2,3) 1;1", spec(custom, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    yield "g=diag(1/2,3) 2", spec(custom, (SkewDiagram((2,)), Fraction(2, 5)))


def _per_pair_failures(Z):
    """The grid failures of each relation from one _rtt_holds and one
    _reflection_holds call per sample pair, in (u, v) order."""
    N, d = Z.N, Z.dimZ
    poles = {s * p for p in Z.all_box_params() for s in (1, -1)}
    grid = repmatrix._sample_grid(2 * Z.n_total + 3, poles)
    td = repmatrix._t_data(Z)
    int_form, _ = repmatrix._cleared_form(Z.form)
    (P, sp), (Q, sq) = (linalg.to_int_scaled(X.mat) for X in structural_ops(Z.form))

    def s_mat(u):
        Tt = transpose_legs(TensorOperator(td.at_ints([-u])[0], td.dims), {1}, int_form).mat
        return linalg.primitive_part(linalg.int_matmul(Tt, td.at_ints([u])[0]))

    T = {u: repmatrix._blocked(td.at_ints([u])[0], N, d) for u in grid}
    S = {u: repmatrix._blocked(s_mat(u), N, d) for u in grid}
    rtt, refl = [], []
    for u in grid:
        for v in grid:
            R = repmatrix._aux(u - v, P, -sp)
            Rp = repmatrix._aux(-(u + v), Q, -sq)
            if not repmatrix._rtt_holds(T[u], T[v], R):
                rtt.append((str(u), str(v)))
            if not repmatrix._reflection_holds(S[u], S[v], R, Rp):
                refl.append((str(u), str(v)))
    return rtt, refl


@pytest.mark.parametrize("path", ["exact", "residue"])
def test_batched_relations_list_the_per_pair_failures(path, monkeypatch):
    # a perturbed top frame breaks some pairs and not others; one pair per
    # batch and the whole grid in one batch fail exactly the pairs that one
    # call per pair fails, in the same order
    Z = spec(SO3, (VDOM, Fraction(1, 3)))
    seen = _record_moduli(monkeypatch, force_residues=path == "residue")
    with _perturbed_t_block(Z, _bump(-1, (1, 0))):
        rtt, refl = _per_pair_failures(Z)
        grid_pairs = (2 * Z.n_total + 3) ** 2
        assert 0 < len(rtt) < grid_pairs and 0 < len(refl) < grid_pairs
        for elements in (1, grid_pairs * Z.N ** 4 * Z.dimZ ** 2):
            monkeypatch.setattr(repmatrix, "_RELATION_ELEMENTS", elements)
            rep = check_defining_relations(Z)
            assert (rep.rtt_failures, rep.reflection_failures) == (rtt, refl)
    assert seen and all((p is None) == (path == "exact") for p in seen)


def test_user_samples_are_checked_as_given(monkeypatch):
    # user samples are neither moved nor replaced by the grid: T is
    # evaluated exactly at u, v and, for S(u) = T^t(-u) T(u), at -u and -v,
    # in one call of the batched evaluator per factor, each at those points
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    samples = [(Fraction(7), Fraction(-3, 4)), (Fraction(2, 3), Fraction(7))]
    calls = []
    real = FrameBlock.at_ints

    def recording(self, xs, *args):
        calls.append(list(xs))
        return real(self, xs, *args)

    monkeypatch.setattr(FrameBlock, "at_ints", recording)
    rep = check_defining_relations(Z, samples=samples)
    assert rep.rtt_checked == rep.reflection_checked == 2 and not rep.proven
    assert not rep.rtt_failures and not rep.reflection_failures
    assert len(calls) == Z.ell
    for points in calls:
        assert set(points) == {s * u for pair in samples for u in pair for s in (1, -1)}
        assert len(points) == len(set(points))


def _per_point_samples(Z, points, pairs):
    """T(u0) and S(u0) block stacks over ``points`` and the R, R' matrices
    of ``pairs`` (indices into points), one point or pair at a time in
    Python ints, by none of the sampler's code: T is the homogenised Horner
    sum of the frames over its content, S(u0) = T^t(-u0) T(u0) with the
    aux-leg transposition g X^t g^-1 written out entrywise and an object
    matmul, and R(u-v), R'(u+v) are diag + scale * X in Fractions times the
    lcm of the denominators of diag and scale."""
    N, d = Z.N, Z.dimZ
    td = repmatrix._t_data(Z)
    deg = len(td.frames) - 1
    form, _ = repmatrix._cleared_form(Z.form)
    g, g_inv = form.g.astype(object), form.g_inv.astype(object)
    (P, sp), (Q, sq) = (linalg.to_int_scaled(X.mat) for X in structural_ops(Z.form))

    def content_free(X):
        c = math.gcd(*(int(v) for v in X.flat))
        return X // c if c else X

    def t_mat(x):
        p, q = x.numerator, x.denominator
        return content_free(sum(fr.astype(object) * (p**k * q ** (deg - k))
                                for k, fr in enumerate(td.frames)))

    def s_mat(u):
        X = t_mat(-u).reshape(N, d, N, d)
        Xt = np.empty_like(X)
        for a in range(N):
            for b in range(N):
                Xt[a, :, b, :] = sum(g[a, c] * X[e, :, c, :] * g_inv[e, b]
                                     for c in range(N) for e in range(N))
        return content_free(Xt.reshape(N * d, N * d) @ t_mat(u))

    def blocks(X):
        return X.reshape(N, d, N, d).transpose(0, 2, 1, 3)

    def aux(diag, X, scale):
        L = math.lcm(diag.denominator, scale.denominator)
        return np.array([[int((diag * (i == j) + scale * X[i, j]) * L) for j in range(len(X))]
                         for i in range(len(X))], dtype=object)

    T = [blocks(t_mat(u)) for u in points]
    S = [blocks(s_mat(u)) for u in points]
    R = [aux(points[i] - points[j], P, -sp) for i, j in pairs]
    Rp = [aux(-(points[i] + points[j]), Q, -sq) for i, j in pairs]
    return T, S, R, Rp


def _assert_batch_matches_per_point(Z, points, iu, iv):
    Ts, Ss, R, Rp = repmatrix._relation_samples(Z, points, iu, iv)
    at = np.broadcast_arrays(*(np.arange(len(points))[i] for i in (iu, iv)))
    pairs = list(zip(at[0].flat, at[1].flat))
    T, S, R1, Rp1 = _per_point_samples(Z, points, pairs)
    assert Ts.shape == (len(points), Z.N, Z.N, Z.dimZ, Z.dimZ) == Ss.shape
    assert all(np.array_equal(Ts[k], T[k]) and np.array_equal(Ss[k], S[k])
               for k in range(len(points)))
    assert R.shape[:-2] == Rp.shape[:-2] == at[0].shape
    R, Rp = (X.reshape((-1,) + X.shape[-2:]) for X in (R, Rp))
    assert all(np.array_equal(R[k], R1[k]) and np.array_equal(Rp[k], Rp1[k])
               for k in range(len(pairs)))
    return Ts, Ss, R, Rp


@pytest.mark.parametrize("label,Z", list(_criterion_3_specs()),
                         ids=[label for label, _ in _criterion_3_specs()])
def test_batched_sampler_matches_the_per_point_route_on_the_grid(label, Z):
    # the T and S stacks and R, R' of every grid pair, at every criterion-3
    # spec, equal those made one point and one pair at a time; on the grid
    # R and R' are int64
    poles = {s * p for p in Z.all_box_params() for s in (1, -1)}
    grid = repmatrix._sample_grid(2 * Z.n_total + 3, poles)
    _, _, R, Rp = _assert_batch_matches_per_point(Z, grid, (slice(None), None),
                                                  (None, slice(None)))
    assert R.dtype == Rp.dtype == np.int64


def test_batched_sampler_matches_the_per_point_route_at_rational_samples():
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    points = [Fraction(2, 3), Fraction(-3, 4), Fraction(7), Fraction(0)]
    iu, iv = np.array([0, 1, 2, 3, 0]), np.array([1, 0, 3, 2, 0])
    _assert_batch_matches_per_point(Z, points, iu, iv)
    custom = GForm.from_matrix([[Fraction(1, 2), 0], [0, 3]])
    _assert_batch_matches_per_point(spec(custom, (SkewDiagram((2,)), Fraction(2, 5))),
                                    points, iu, iv)


def test_batched_sampler_takes_large_integer_samples_on_python_ints():
    # integer samples whose u - v or u + v would leave int64 take _aux's
    # lcm route, so R and R' are neither wrapped nor cast
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    points = [Fraction(2**61), Fraction(-2**61 + 1), Fraction(3)]
    iu, iv = np.array([0, 1, 2]), np.array([1, 0, 0])
    _, _, R, Rp = _assert_batch_matches_per_point(Z, points, iu, iv)
    assert R.dtype == object and linalg.max_abs(R) >= 2**62


def test_batched_sampler_matches_the_per_point_route_on_python_ints():
    # frames past 2^62 send the evaluation, the S product and the stacks to
    # Python ints
    Z = spec(SO3, (VDOM, Fraction(1, 3)))

    def change(frames):
        frames = [fr * (2**62 + 1) for fr in frames]
        frames[0][0, 1] += 1
        return frames

    poles = {s * p for p in Z.all_box_params() for s in (1, -1)}
    grid = repmatrix._sample_grid(2 * Z.n_total + 3, poles)
    with _perturbed_t_block(Z, change):
        for points, iu, iv in ((grid, (slice(None), None), (None, slice(None))),
                               ([Fraction(3, 4), Fraction(-2, 5)], np.array([0, 1]),
                                np.array([1, 1]))):
            Ts, Ss, _, _ = _assert_batch_matches_per_point(Z, points, iu, iv)
            assert Ts.dtype == Ss.dtype == object and linalg.max_abs(Ts) >= 2**62


def test_batched_t_values_are_the_homogenised_horner_sums():
    # at_ints against sum_k frames[k] p^k q^(deg - k) in Python ints, over
    # its content, point by point, on the float64, int64 and Python-int paths
    Z = spec(SP2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    td = repmatrix._t_data(Z)
    deg = len(td.frames) - 1
    xs = [Fraction(2, 3), Fraction(-3, 4), Fraction(0), Fraction(5), Fraction(-1, 7)]
    for c in (1, 2**40 + 1, 2**62 + 1):
        fb = FrameBlock([fr.astype(object) * c for fr in td.frames], td.scale, td.den, td.dims)
        got = fb.at_ints(xs)
        for x, value in zip(xs, got):
            p, q = x.numerator, x.denominator
            acc = sum(fr.astype(object) * c * (p**k * q ** (deg - k))
                      for k, fr in enumerate(td.frames))
            assert np.array_equal(value, linalg.primitive_part(acc))
    with pytest.raises(SingularParameter):
        td.at_ints([Fraction(0), Fraction(7, 5)])


@pytest.mark.parametrize("label,Z", list(_criterion_3_specs()),
                         ids=[label for label, _ in _criterion_3_specs()])
def test_t_denominator_vanishes_only_at_box_parameters(label, Z):
    # the roots -a/b of the factors of den are the box parameters, so the
    # relation check's pole set holds every zero of den
    den = repmatrix._t_data(Z).den
    assert all(b != 0 for _, b in den)
    assert sorted(-Fraction(a) / b for a, b in den) == sorted(Z.all_box_params())


def test_block_product_of_one_block_on_every_leg_is_that_block():
    # a one-factor T is its breve block, not a product with the identity;
    # the content of the frames moves into the scale as on the product route
    Z = spec(SP2, (BOX, Fraction(1, 3)))
    td = repmatrix._t_data(Z)
    fb = FrameBlock([fr * 6 for fr in td.frames], td.scale / 4, td.den, td.dims)
    one = FrameBlock([np.eye(len(td.frames[0]), dtype=np.int64)], Fraction(1), (), td.dims)
    slots = tuple(range(len(td.dims)))
    got = repmatrix.block_product([(fb, slots)], td.dims)
    ref = repmatrix.block_product([(fb, slots), (one, slots)], td.dims)
    assert got.scale == ref.scale == td.scale * Fraction(6, 4) and got.den == ref.den == td.den
    assert len(got.frames) == len(ref.frames)
    assert all(np.array_equal(a, b) and np.array_equal(a, c)
               for a, b, c in zip(got.frames, ref.frames, td.frames))


# so2, sp2 and so3 with one, two and three factors; sp2 2:1/2;1:1 and so2
# 1:-2 have integer poles, which shift the grid (walls)
_SAMPLER_SPECS = [(SO2, "1,1:-1/3"), (SP2, "3,1/1:1/3"), (SO3, "3,2,1/2,1:-2/3"),
                  (SP2, "1:1/3;1:-4/5"), (SO3, "1:1/3;1,1:-4/5"), (SP2, "2:1/2;1:1"),
                  (SO2, "1:-2"), (SO2, "1:1/2;1,1:-3/7"), (SP2, "1:1/3;2:2/5;1:-1/7")]


def _poles(Z):
    return {s * p for p in Z.all_box_params() for s in (1, -1)}


@pytest.mark.parametrize("form,modules", _SAMPLER_SPECS,
                         ids=[f"{f.kind}{f.N} {m}" for f, m in _SAMPLER_SPECS])
def test_sampled_t_and_s_equal_the_t_data_route(form, modules):
    # T from the cached aux-factor blocks equals _t_data(Z).at_ints, and S
    # equals T^t(-u0) T(u0) formed from those values point by point, on the
    # grid and at rational points
    Z = FusedModuleSpec.from_string(form, modules)
    N, d = Z.N, Z.dimZ
    poles = _poles(Z)
    grid = repmatrix._sample_grid(2 * Z.n_total + 3, poles)
    if any(p.denominator == 1 for p in poles):
        assert grid != repmatrix._sample_grid(len(grid), set())  # the poles shift it
    rational = [Fraction(2, 11), Fraction(-3, 13), Fraction(5, 17)]
    assert not poles.intersection(rational)
    td = repmatrix._t_data(Z)
    int_form, _ = repmatrix._cleared_form(Z.form)
    for points in (grid, rational + grid[:2]):
        signed = points + [-q for q in points]
        expect = td.at_ints(signed)
        assert np.array_equal(repmatrix._t_samples(Z, signed), expect)
        Ts, Ss, _, _ = repmatrix._relation_samples(Z, points, np.arange(len(points)),
                                                   np.arange(len(points)))
        for k, u in enumerate(points):
            Tu, Tm = expect[k], expect[len(points) + k]
            Tt = transpose_legs(TensorOperator(Tm, td.dims), {1}, int_form).mat
            S = linalg.primitive_part(linalg.int_matmul(Tt, Tu))
            assert np.array_equal(Ts[k], repmatrix._blocked(Tu, N, d))
            assert np.array_equal(Ss[k], repmatrix._blocked(S, N, d))


def test_sampled_t_raises_at_a_pole_and_samples_at_poles_are_skipped():
    Z = FusedModuleSpec.from_string(SP2, "2:1/2;1:1")
    pole = Fraction(3, 2)  # z + 1 of the first factor
    assert pole in Z.all_box_params()
    for points in ([pole], [Fraction(0), Fraction(1, 2)], [Fraction(1)]):
        with pytest.raises(SingularParameter):
            repmatrix._t_samples(Z, points)
    rep = check_defining_relations(Z, samples=[(pole, 2), (2, 5), (-1, Fraction(1, 3))])
    assert rep.singular_samples == [
        {"u": "3/2", "v": "2", "error": "SingularParameter: sample at a pole"},
        {"u": "-1", "v": "1/3", "error": "SingularParameter: sample at a pole"}]
    assert rep.rtt_checked == rep.reflection_checked == 1
    assert not rep.rtt_failures and not rep.reflection_failures


def test_relation_check_builds_no_t_frames(monkeypatch):
    # the relation check samples T from the cached blocks: _t_data, which
    # Burnside and the reference route keep, is never called on its path
    def refuse(Z):
        raise AssertionError("the relation check built the T frames")

    monkeypatch.setattr(repmatrix, "_t_data", refuse)
    for form, modules in _SAMPLER_SPECS[:2] + _SAMPLER_SPECS[3:]:
        Z = FusedModuleSpec.from_string(form, modules)
        assert check_defining_relations(Z).proven
        rep = check_defining_relations(Z, samples=[(Fraction(2, 3), 5), (7, Fraction(-1, 4))])
        assert not rep.rtt_failures and not rep.reflection_failures
    with pytest.raises(AssertionError, match="T frames"):
        s_generators(spec(SO2, (BOX, Fraction(1, 3))), 1)


def test_form_caches_are_kept_per_g():
    # a form read from a g file, of the kind and N of a default one, keeps
    # its own cleared P, Q, g and g^-1 and its own grid R, R' stacks
    custom = GForm.from_matrix([[Fraction(1, 2), 0], [0, 3]])
    assert (custom.kind, custom.N) == (SO2.kind, SO2.N) and custom.key != SO2.key
    grid = [Fraction(k) for k in (0, 1, -1, 2, -2)]
    for form in (SO2, custom, SO2):
        parts = repmatrix._form_parts(form)
        (P, sp), (Q, sq) = (linalg.to_int_scaled(X.mat) for X in structural_ops(form))
        assert np.array_equal(parts.P, P) and parts.sp == sp
        assert np.array_equal(parts.Q, Q) and parts.sq == sq
        g, sg = linalg.to_int_scaled(form.g)
        assert np.array_equal(parts.cleared.g, g) and parts.aux.form.key == form.key
        R, Rp = repmatrix._aux_stacks(form, grid, *repmatrix._GRID)
        fresh = repmatrix._aux_stacks(form, grid, (slice(None), None), (None, slice(None)))
        assert np.array_equal(R, fresh[0]) and np.array_equal(Rp, fresh[1])
        assert repmatrix._aux_stacks(form, grid, *repmatrix._GRID)[1] is Rp
        assert check_defining_relations(spec(form, (SkewDiagram((2,)), Fraction(2, 5)))).proven
    default, other = (repmatrix._form_parts(form) for form in (SO2, custom))
    assert not np.array_equal(default.Q * default.sq, other.Q * other.sq)
    # a second form object over the same g shares the entry
    assert repmatrix._form_parts(GForm.from_matrix([[Fraction(1, 2), 0], [0, 3]])) is other


def _absolute_sides(relation, a, b, R, Rp, N, d):
    """The stages of lhs and those of rhs of a relation on one pair, in
    Python ints, with every sample and aux entry replaced by its absolute
    value: each entry is the sum of the absolute values of the terms of
    that value of the true stage, which bounds each of its partial sums.
    Written after the sides' own layout: lhs multiplies the blocks of a by
    those of b, rhs those of b by those of a, and the auxes act on the
    first two legs, transposed on rhs."""
    a, b, R = (np.abs(X).astype(object) for X in (a, b, R))
    n2 = N * N

    def pairs(X, Y):  # out[p, q, r, s] = X[p, r] @ Y[q, s]
        return np.matmul(X[:, None, :, None], Y[None, :, None, :])

    at, bt = a.swapaxes(0, 1), b.swapaxes(0, 1)
    if relation == "rtt":
        lhs0, rhs0 = pairs(a, b), np.matmul(bt[None, :, None, :], at[:, None, :, None])
        return [lhs0, R @ lhs0.reshape(n2, -1)], [rhs0, R.T @ rhs0.reshape(n2, -1)]
    Rq = np.abs(np.moveaxis(Rp.reshape((N,) * 4), 0, 2).reshape(n2, n2)).astype(object)
    lhs0, rhs0 = pairs(at, b), pairs(bt, a)
    X = (Rq @ lhs0.reshape(n2, -1)).reshape(lhs0.shape).transpose(2, 0, 1, 3, 4, 5)
    Y = (Rq.T @ rhs0.reshape(n2, -1)).reshape(rhs0.shape).transpose(3, 1, 0, 2, 4, 5)
    return [lhs0, X, R @ X.reshape(n2, -1)], [rhs0, Y, R.T @ Y.reshape(n2, -1)]


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_relation_bounds_cover_every_absolute_sum(relation):
    # at the dim-27 so3 spec, on the pairs of the largest grid points, every
    # stage of either side summed in absolute values stays within the bound
    # that picks the kernels, which is at most the earlier max|a| max|b| d
    # times the total sum|aux|
    Z = FusedModuleSpec.from_string(SO3, "3,2,1/2,1:-2/3")
    N, d = Z.N, Z.dimZ
    grid = repmatrix._sample_grid(2 * Z.n_total + 3, _poles(Z))
    last = len(grid) - 1
    iu, iv = np.array([last, last - 1, 0]), np.array([last - 1, last, 4])
    Ts, Ss, R, Rp = repmatrix._relation_samples(Z, grid, iu, iv)
    A, B = (Ts[iu], Ts[iv]) if relation == "rtt" else (Ss[iu], Ss[iv])
    Rq = np.moveaxis(Rp.reshape(Rp.shape[:-2] + (N,) * 4), -4, -2).reshape(Rp.shape)
    auxes = (R,) if relation == "rtt" else (R, Rq)
    bounds = repmatrix._side_bounds((A, B), auxes)
    for k in range(len(iu)):
        for stages, bound in zip(_absolute_sides(relation, A[k], B[k], R[k], Rp[k], N, d), bounds):
            assert max(linalg.max_abs(X) for X in stages) <= bound[k]
        earlier = (linalg.max_abs(A[k]) * linalg.max_abs(B[k]) * d
                   * math.prod(_weight(X[k]) for X in auxes))
        assert max(bound[k] for bound in bounds) <= earlier


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_relation_bounds_cover_each_side(relation):
    # positive entries, so the absolute sums are the values, and every
    # stage of a side within 8 times its bound: flat samples (every row sum
    # d max), and a flat one against a spiky one (one entry per block) each
    # way round, with each aux in turn one with a heavy row (row sums N^2
    # times its column sums) or its transpose while the other is 1.  So a
    # row sum, column sum or factor that either side's bound leaves out or
    # swaps shows in that side's stages
    N, d = 2, 3
    flat = np.full((N * d, N * d), 7, dtype=np.int64)
    spiky = np.zeros((N * d, N * d), dtype=np.int64)
    spiky[::d, ::d] = 7
    heavy = np.eye(N * N, dtype=np.int64)
    heavy[1] = 50
    one = np.eye(N * N, dtype=np.int64)
    for R, Rq in ((heavy, one), (one, heavy), (heavy.T, one), (one, heavy.T)):
        if relation == "rtt" and Rq is not one:
            continue
        Rp = np.moveaxis(Rq.reshape((N,) * 4), 2, 0).reshape(N * N, N * N)
        for x, y in ((flat, flat), (flat, spiky), (spiky, flat)):
            a, b = repmatrix._blocked(x, N, d), repmatrix._blocked(y, N, d)
            bounds = repmatrix._side_bounds((a, b), (R,) if relation == "rtt" else (R, Rq))
            for stages, bound in zip(_absolute_sides(relation, a, b, R, Rp, N, d), bounds):
                top = max(linalg.max_abs(X) for X in stages)
                assert top <= bound < 8 * top


def _sample_blocks(Z, u0, v0):
    """Integer T(u0), T(v0), S(u0), S(v0) (each up to a scalar) from the
    RatFunc oracle, and the integer matrices R(u0-v0), R'(u0+v0)."""
    T = t_action(Z)

    def t_mat(u):
        return linalg.to_int_scaled(eval_ratfuncs(T, u).mat)[0]

    def s_mat(u):
        S = transpose_legs(eval_ratfuncs(T, -u), {1}, Z.form) @ eval_ratfuncs(T, u)
        return linalg.to_int_scaled(S.mat)[0]

    (P, sp), (Q, sq) = (linalg.to_int_scaled(X.mat) for X in structural_ops(Z.form))
    R = repmatrix._aux(u0 - v0, P, -sp)
    Rp = repmatrix._aux(-(u0 + v0), Q, -sq)
    return (t_mat(u0), t_mat(v0)), (s_mat(u0), s_mat(v0)), R, Rp


def _weight(R):
    return int(sum(abs(v) for v in R.flat))


def _relation_case(relation):
    """The so2 sample of the relation tests: the matrices a, b that the
    relation pairs, the factor d * sum|R| (times sum|R'|) that its bound
    puts on max|a| * max|b|, holds(x, y) deciding it on (N d) x (N d)
    integer matrices x, y, and the dense Python-int oracle(x, y)."""
    Z = spec(SO2, (BOX, Fraction(1, 3)), (BOX, Fraction(7, 5)))
    N, d = Z.N, Z.dimZ
    (tu, tv), (su, sv), R, Rp = _sample_blocks(Z, Fraction(2), Fraction(5))

    def blocks(x):
        # a list of matrices is a batch of pairs that share y and the aux
        # matrices, which broadcast against it
        if isinstance(x, list):
            return np.stack([blocks(m) for m in x])
        return repmatrix._blocked(x, N, d)

    if relation == "rtt":
        def holds(x, y):
            return repmatrix._rtt_holds(blocks(x), blocks(y), R)

        def oracle(x, y):
            return _dense_rtt_holds(x, y, R, N, d)

        return tu, tv, _weight(R) * d, holds, oracle

    def holds(x, y):
        return repmatrix._reflection_holds(blocks(x), blocks(y), R, Rp)

    def oracle(x, y):
        return _dense_reflection_holds(x, y, R, Rp, N, d)

    return su, sv, _weight(R) * _weight(Rp) * d, holds, oracle


def _dense(x, N, d, leg):
    """x in End(C^N (x) V) as a Python-int matrix on C^N (x) C^N (x) V,
    acting on auxiliary leg 1 or 2."""
    x4 = np.asarray(x, dtype=object).reshape(N, d, N, d)
    out = np.zeros((N, N, d, N, N, d), dtype=object)
    for i in range(N):
        if leg == 1:
            out[:, i, :, :, i, :] = x4
        else:
            out[i, :, :, i, :, :] = x4
    return out.reshape(N * N * d, N * N * d)


def _dense_aux(R, N, d):
    """The N^2 x N^2 matrix R on the auxiliary legs, times 1 on V."""
    out = np.zeros((N, N, d, N, N, d), dtype=object)
    for (r, c), val in np.ndenumerate(R):
        for x in range(d):
            out[r // N, r % N, x, c // N, c % N, x] = int(val)
    return out.reshape(N * N * d, N * N * d)


def _dense_rtt_holds(x, y, R, N, d):
    """R T_1(u) T_2(v) = T_2(v) T_1(u) R by dense Python-int products."""
    Rd, T1, T2 = _dense_aux(R, N, d), _dense(x, N, d, 1), _dense(y, N, d, 2)
    return np.array_equal(Rd @ T1 @ T2, T2 @ T1 @ Rd)


def _dense_reflection_holds(x, y, R, Rp, N, d):
    """R S_1(u) R' S_2(v) = S_2(v) R' S_1(u) R by dense Python-int products."""
    Rd, Rpd = _dense_aux(R, N, d), _dense_aux(Rp, N, d)
    S1, S2 = _dense(x, N, d, 1), _dense(y, N, d, 2)
    return np.array_equal(Rd @ S1 @ Rpd @ S2, S2 @ Rpd @ S1 @ Rd)


def _kernel_bound(monkeypatch, holds, x, y):
    """The bound that the relation check of the one pair (x, y) hands to
    float_kernels (_side_bounds)."""
    bounds = []
    kernels = repmatrix.float_kernels

    def recording(arrays, bound, inner):
        bounds.append(bound)
        return kernels(arrays, bound, inner)

    monkeypatch.setattr(repmatrix, "float_kernels", recording)
    holds(x, y)
    monkeypatch.undo()
    return bounds[0]


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_float_exact_boundary(relation, monkeypatch):
    # scale the first sample so its bound (_side_bounds, linear in each sample)
    # lands just below and just above 2^53: one exact float64 kernel below,
    # residue kernels above.  Both sides of a relation scale alike, so the
    # truth is kept
    a, b, _, holds, oracle = _relation_case(relation)
    unit = _kernel_bound(monkeypatch, holds, a, b)
    limit = 1 << 53
    scale = (limit - 1) // unit
    for k, exact in ((scale, True), (scale + 1, False)):
        big = (a * k).astype(object)
        assert _kernel_bound(monkeypatch, holds, big, b) == k * unit
        assert (k * unit < limit) == exact
        broken = big.copy()
        broken[0, 1] += 1
        for x, truth in ((big, True), (broken, False)):
            below = _kernel_bound(monkeypatch, holds, x, b) < limit
            seen = _record_moduli(monkeypatch)
            auto = holds(x, b)
            assert (seen == [None]) == below and None not in seen[int(below):]
            monkeypatch.undo()
            _record_moduli(monkeypatch, force_residues=True)
            forced = holds(x, b)
            monkeypatch.undo()
            assert auto == forced == truth == oracle(x, b)


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_residue_kernels_reject_perturbation_hidden_from_all_but_last_prime(
        relation, monkeypatch):
    # a sample whose bound needs at least three primes; the perturbation is
    # divisible by every prime but the last, so only the last kernel sees it
    a, b, weight, holds, oracle = _relation_case(relation)
    big = (a * ((1 << 80) // (linalg.max_abs(a) * linalg.max_abs(b) * weight))).astype(object)
    moduli = _record_moduli(monkeypatch)
    assert holds(big, b) and oracle(big, b)
    primes = list(moduli)
    assert len(primes) >= 3 and None not in primes
    broken = big.copy()
    broken[0, 1] += math.prod(primes[:-1])
    del moduli[:]
    assert not oracle(broken, b)
    assert not holds(broken, b)
    assert moduli == primes
    # one batch of three pairs, the middle one broken and the last a
    # multiple of the first whose bound needs more primes: the pairs are
    # grouped by the kernels their own bounds need, each group drawing its
    # own; the first group's primes all run, since its good pair passes
    # each and only the last rejects the broken one
    bigger = big * 2**40
    del moduli[:]
    assert holds(bigger, b) and oracle(bigger, b)
    more = list(moduli)
    sets = []
    kernels = repmatrix.float_kernels

    def kernel_sets(arrays, bound, inner):
        sets.append(len(linalg.kernel_moduli(bound, inner)))
        return kernels(arrays, bound, inner)

    monkeypatch.setattr(repmatrix, "float_kernels", kernel_sets)
    need = []
    for x in (big, broken, bigger):
        del sets[:]
        holds(x, b)
        need.append(sets[0])
    assert need == [len(primes), len(primes), len(more)] and len(more) > len(primes)
    del sets[:], moduli[:]
    assert holds([big, broken, bigger], b).tolist() == [True, False, True]
    assert sets == [len(primes), len(more)] and moduli == primes + more
    # a pair that fails at the first prime does not end the batch there
    visible = big.copy()
    visible[0, 1] += 1
    assert holds([visible, broken, big], b).tolist() == [False, False, True]


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_residue_kernels_decide_300_bit_samples(relation, monkeypatch):
    a, b, _, holds, oracle = _relation_case(relation)
    big = (a * ((1 << 300) // linalg.max_abs(a))).astype(object)
    broken = big.copy()
    broken[0, 1] += 1
    moduli = _record_moduli(monkeypatch)
    assert holds(big, b) and oracle(big, b)
    assert len(moduli) >= 11
    assert not holds(broken, b) and not oracle(broken, b)


def _commuting_case(t, s, M, relation):
    """A true instance of a relation with R and R' not symmetric, unlike
    those of a module: T(u) or S(u) = t (x) M and T(v) or S(v) = s (x) M on
    C^N (x) V, R = t (x) s + 2 and R' = t (x) s + 3 on the two auxiliary
    legs.  R and R' are polynomials in t (x) s, which commutes with t (x) 1
    and 1 (x) s, and both sides of either relation are R R' (t (x) s) (x)
    M^2 (R' dropped for RTT).  Returns x, y and holds(x, y, R, R')."""
    N, d = len(t), len(M)
    x = np.kron(np.array(t, dtype=object), np.array(M, dtype=object))
    y = np.kron(np.array(s, dtype=object), np.array(M, dtype=object))
    ts = np.kron(np.array(t, dtype=object), np.array(s, dtype=object))
    R = ts + 2 * np.eye(N * N, dtype=np.int64).astype(object)
    Rp = ts + 3 * np.eye(N * N, dtype=np.int64).astype(object)

    def holds(x, y, R, Rp):
        bx, by = repmatrix._blocked(x, N, d), repmatrix._blocked(y, N, d)
        if R.ndim == 3:  # a batch of aux matrices, one per pair, same samples
            if relation == "rtt":
                return repmatrix._rtt_holds(bx, by, R).tolist()
            return repmatrix._reflection_holds(bx, by, R, Rp).tolist()
        if relation == "rtt":
            return repmatrix._rtt_holds(bx, by, R), _dense_rtt_holds(x, y, R, N, d)
        return repmatrix._reflection_holds(bx, by, R, Rp), _dense_reflection_holds(
            x, y, R, Rp, N, d)

    return x, y, R, Rp, holds


_T, _S, _M = [[1, 2], [0, 1]], [[1, 0], [3, -1]], [[2, -1, 0], [1, 3, 1], [0, 1, -2]]


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_relation_checks_on_non_symmetric_aux_matrices(relation):
    # the aux matrices of a module are symmetric, so they cannot tell R from
    # its transpose; these can
    x, y, R, Rp, holds = _commuting_case(_T, _S, _M, relation)
    assert not np.array_equal(R, R.T) and not np.array_equal(Rp, Rp.T)
    assert holds(x, y, R, Rp) == (True, True)
    for k in (1, 2):
        wrong = [R.copy(), Rp.copy()]
        wrong[k - 1][0, 1] += 1
        if relation == "rtt" and k == 2:
            continue  # RTT has no R'
        assert holds(x, y, *wrong) == (False, False)
        # one batch of three pairs, the middle one broken: an R^T that also
        # swapped the batch axis would mix the pairs up
        batch = [np.stack([good, bad, good]) for good, bad in zip((R, Rp), wrong)]
        assert holds(x, y, *batch) == [True, False, True]


@pytest.mark.parametrize("relation", ["rtt", "reflection"])
def test_residue_kernels_exact_at_the_largest_residues(relation, monkeypatch):
    # every entry of the samples is -1 or -2 mod the first prime, so the
    # block products reach nearly inner * (p - 1)^2 and the later stages
    # nearly weight * p: the certificate's worst case holds exactly
    moduli = _record_moduli(monkeypatch)
    x, y, R, Rp, holds = _commuting_case(_T, _S, [[2**60] * 3] * 3, relation)
    holds(x, y, R, Rp)
    p = moduli[0]
    assert p is not None
    big = [[p * (2**40 + 7 * i + j) - 1 - (i + j) % 2 for j in range(3)] for i in range(3)]
    x, y, R, Rp, holds = _commuting_case([[1, 1], [0, 1]], [[1, 0], [1, 1]], big, relation)
    del moduli[:]
    assert holds(x, y, R, Rp) == (True, True)
    assert moduli[0] == p


def test_reduce_mod_is_exact_up_to_the_bound():
    # every value reduce_mod may see, 0 to 2^53 - p, including multiples of
    # p and their neighbours, against the Python-int remainder
    for p in (7, 16777213, 33554393):
        top = (1 << 53) - p
        vals = [0, 1, p - 1, p, p + 1, top, top - 1, top - top % p, top - top % p - 1]
        vals += [k * p + e for k in (1, 2**20, top // p) for e in (-1, 0, 1)]
        vals += [v * 977 % top for v in range(1, 2000)]
        x = np.array([s * v for v in vals for s in (1, -1)], dtype=np.float64)
        r = linalg.reduce_mod(x, p)
        assert np.all(np.abs(r) < p)
        assert all(int(ri) % p == int(xi) % p for ri, xi in zip(r, x))


def _is_integer_block(fb) -> bool:
    # integer-valued frames, int64 or Python ints (the int64 rule)
    return isinstance(fb.scale, Fraction) and all(
        fr.ndim == 2 and (fr.dtype == np.int64 or all(type(v) is int for v in fr.flat))
        for fr in fb.frames)


@pytest.mark.parametrize("form,modules", [(SO3, "1,1:1/5;2:-3/7"), (SP2, "2:2/7;1:1/5"),
                                          (SO3, "1:1/2;1,1:1")], ids=["so3", "sp2", "so3-zero"])
def test_frame_blocks_hold_integer_frames(form, modules):
    Z = FusedModuleSpec.from_string(form, modules)
    blocks = [fb for fb, _ in repmatrix.swz_frame_blocks(Z)]
    td = repmatrix._t_data(Z)
    blocks += [td, fusion.defining_action_product([Fraction(1, 3), Fraction(-2, 5)], Z.N)]
    assert all(_is_integer_block(fb) for fb in blocks)
    # the T frames' common content sits in their scale
    assert math.gcd(*(int(np.gcd.reduce(fr.ravel())) for fr in td.frames)) == 1


@pytest.mark.parametrize("form,modules", [(SO3, "1,1:1/5;2:-3/7"), (SP2, "2:2/7;1:1/5")],
                         ids=["so3", "sp2"])
def test_blocks_clear_no_rationals_after_warm_up(form, modules, monkeypatch):
    # once the fusion cache holds the module bases, the frame blocks and
    # T(u) of a fresh spec clear no rational matrix: the factor chains clear
    # their scalars and the solves take integer frames
    warm = FusedModuleSpec.from_string(form, modules)
    repmatrix.swz_frame_blocks(warm)
    repmatrix._t_data(warm)
    calls = []
    real = linalg.to_int_scaled

    def counting(A):
        calls.append(A.shape)
        return real(A)

    for mod in (linalg, repmatrix, fusion):
        if getattr(mod, "to_int_scaled", None) is real:
            monkeypatch.setattr(mod, "to_int_scaled", counting)
    Z = FusedModuleSpec.from_string(form, modules)
    repmatrix.swz_frame_blocks(Z)
    repmatrix._t_data(Z)
    assert calls == []


# ---------------------------------------------------------------------------
# pair and S blocks: built once per form, diagrams and kind, then substituted

def _per_spec_pair_block(A, i, shiftA, B, j, shiftB, kind):
    """The pair block built for one spec: every factor (a + b*zeta) * 1 + X
    of its chain carries the spec's own box parameters, a = u_p -+ v_q and
    b = bu -+ bv (negated for R'), and breve R and breve R' divide by
    a + b*zeta.  The reference for the substituted blocks."""
    contA, contB = A.contents(i), B.contents(j)
    nA, nB = len(contA), len(contB)
    P, Q = structural_ops(B.form)
    q_entries = tensor.two_leg_entries(Q)
    minus_p = [(a, b, c, d, -v) for (a, b, c, d, v) in tensor.two_leg_entries(P)]
    minus_q = [(a, b, c, d, -v) for (a, b, c, d, v) in q_entries]
    bu, bv = int(shiftA), int(shiftB)
    chain, den = [], ()
    for (p, q) in repmatrix._pair_order(kind, nA, nB):
        au, av = A.z(i) + contA[p], B.z(j) + contB[q]
        if kind in ("R", "Rb"):
            a, b, entries = au - av, bu - bv, minus_p
        elif kind == "R'":
            a, b, entries = -(au + av), -(bu + bv), minus_q
        else:
            a, b, entries = au + av, bu + bv, q_entries
        if kind in ("Rb", "Rb'"):
            if a == 0 and b == 0:
                name = "breve R" if kind == "Rb" else "breve R'"
                raise SingularParameter(f"{name} singular at boxes ({p+1},{q+1})")
            den += ((a, b),)
        chain.append((p, nA + q, a, b, entries))
    basis = Basis.kron(A.basis(i), B.basis(j))
    frames, scale = tensor.restricted_chain(chain, basis, (B.N,) * (nA + nB))
    return FrameBlock(frames, scale, den, (A.basis(i).size, B.basis(j).size))


def _per_spec_elementary_s(omega, z, shifted, form):
    """S of one elementary module built for one z: the chain of
    -(v_p + v_q) - Q_pq with v_p = z + c_p (+ zeta if shifted)."""
    n = omega.size
    basis = fusion_operator(omega, form.N, box_cap=max(6, n)).module_basis
    cont = column_tableau(omega).contents
    _, Q = structural_ops(form)
    entries = [(a, b, c, d, -v) for (a, b, c, d, v) in tensor.two_leg_entries(Q)]
    b = -2 if shifted else 0
    chain = [(p, q, -((z + cont[p]) + (z + cont[q])), b, entries)
             for p in reversed(range(n)) for q in reversed(range(p))]
    frames, scale = tensor.restricted_chain(chain, basis, (form.N,) * n)
    return FrameBlock(frames, scale, (), (basis.size,))


def _assert_same_operator(fb, ref):
    assert fb.dims == ref.dims and fb.den == ref.den
    for zeta in (Fraction(2, 9), Fraction(-5, 3), Fraction(7)):
        assert fb.at(zeta) == ref.at(zeta)


_T_VALUES = [Fraction(-7, 5), Fraction(0), Fraction(10**12 + 39, 10**18 + 9)]
_T_IDS = ["negative", "zero", "large-denominator"]


@pytest.fixture
def fresh_blocks(monkeypatch):
    """An empty block cache for one test, with restricted_chain counted."""
    monkeypatch.setattr(repmatrix, "_blocks", OrderedDict(), raising=False)
    monkeypatch.setattr(repmatrix, "_held", 0)
    calls = []
    real = repmatrix.restricted_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repmatrix, "restricted_chain", counting)
    return calls


@pytest.mark.parametrize("t", _T_VALUES, ids=_T_IDS)
@pytest.mark.parametrize("shifts", [(True, False), (True, True), (False, False)],
                         ids=["TF", "TT", "FF"])
@pytest.mark.parametrize("form,diagrams", [(SO3, ("1,1", "2")), (SP2, ("2", "1"))],
                         ids=["so3", "sp2"])
@pytest.mark.parametrize("kind", repmatrix.KINDS)
def test_substituted_pair_blocks_match_the_per_spec_chain(kind, form, diagrams, shifts, t):
    # t is the block's argument: z_i - z_j for R and breve R, z_i + z_j for
    # the primed kinds; the shifts give the slopes 1, 0 or 2, and 0
    zj = Fraction(1, 3)
    zi = t + zj if kind in ("R", "Rb") else t - zj
    Z = FusedModuleSpec(form, [(parse_skew(diagrams[0]), zi), (parse_skew(diagrams[1]), zj)])
    args = (Z, 0, shifts[0], Z, 1, shifts[1], kind)
    try:
        ref = _per_spec_pair_block(*args)
    except SingularParameter as exc:
        # a breve pair with x + e_pq = 0 and slope 0: the same message
        with pytest.raises(SingularParameter) as got:
            repmatrix._pair_term(*args).exact()
        assert str(got.value) == str(exc)
        return
    _assert_same_operator(repmatrix._pair_term(*args).exact(), ref)


@pytest.mark.parametrize("z", _T_VALUES, ids=_T_IDS)
@pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
@pytest.mark.parametrize("form,diagram", [(SO3, "1,1"), (SO3, "2,1"), (SP2, "2")],
                         ids=["so3-1,1", "so3-2,1", "sp2-2"])
def test_substituted_elementary_s_matches_the_per_spec_chain(form, diagram, shifted, z):
    omega = parse_skew(diagram)
    _assert_same_operator(repmatrix._elementary_s_term(omega, z, shifted, form).exact(),
                          _per_spec_elementary_s(omega, z, shifted, form))


@pytest.mark.parametrize("form,modules", [
    (SO3, "1,1:-7/5;2:0;1:1000000000039/1000000000000000009"),
    (SP2, "2:-7/5;1:0;1,1:1000000000039/1000000000000000009"),
], ids=["so3", "sp2"])
def test_substituted_t_blocks_match_the_per_spec_chain(form, modules):
    # the breve R blocks of T(u) between the one-box module shifted by u
    # and each factor j: argument -z_j, slope 1
    Z = FusedModuleSpec.from_string(form, modules)
    aux = FusedModuleSpec(form, [(BOX, 0)])
    for j in range(Z.ell):
        args = (aux, 0, True, Z, j, False, "Rb")
        _assert_same_operator(repmatrix._pair_term(*args).exact(), _per_spec_pair_block(*args))


@pytest.mark.parametrize("kind,w_singular,message", [
    ("Rb", "1,1:4/3", "breve R singular at boxes (2,1)"),
    ("Rb'", "1,1:-1/3", "breve R' singular at boxes (2,2)"),
])
def test_breve_singular_pair_raises_with_a_warm_cache(kind, w_singular, message, fresh_blocks):
    Z = FusedModuleSpec.from_string(SO3, "2:1/3")
    r_factorized(FusedModuleSpec.from_string(SO3, "1,1:2/7"), Z, kind)
    assert len(fresh_blocks) == 1
    with pytest.raises(SingularParameter) as got:
        r_factorized(FusedModuleSpec.from_string(SO3, w_singular), Z, kind)
    assert str(got.value) == message
    assert len(fresh_blocks) == 1


@pytest.mark.parametrize("first", ["default", "scaled"])
def test_blocks_are_kept_per_form(first, fresh_blocks):
    # so2 forms of one kind and N that differ in g compare equal as GForm
    # values, so the cache key must carry g itself
    forms = {"default": SO2, "scaled": GForm.from_matrix([[Fraction(1, 2), 0], [0, 3]])}
    assert forms["default"] == forms["scaled"]
    order = [first] + [name for name in forms if name != first]
    for kind in repmatrix.KINDS:
        refs = {}
        for name in order:
            Z = FusedModuleSpec.from_string(forms[name], "2:1/3;1:-2/5")
            args = (Z, 0, True, Z, 1, False, kind)
            refs[name] = _per_spec_pair_block(*args)
            _assert_same_operator(repmatrix._pair_term(*args).exact(), refs[name])
        if kind in ("R'", "Rb'"):
            zeta = Fraction(2, 9)
            assert refs["default"].at(zeta) != refs["scaled"].at(zeta)
    for name in order:
        omega = parse_skew("2")
        _assert_same_operator(repmatrix._elementary_s_term(omega, Fraction(1, 3), True,
                                                           forms[name]).exact(),
                              _per_spec_elementary_s(omega, Fraction(1, 3), True, forms[name]))
    assert len(fresh_blocks) == 2 * len(repmatrix.KINDS) + 2


def test_block_cache_evicts_least_recent_and_keeps_no_large_block(fresh_blocks, monkeypatch):
    # single boxes of so3: every block has 2 frames of 9 x 9
    small = 2 * 81
    monkeypatch.setattr(repmatrix, "_BLOCK_ENTRIES", 2 * small)
    Z = FusedModuleSpec.from_string(SO3, "1:1/3;1:-2/5")

    def block(kind):
        return repmatrix._pair_term(Z, 0, True, Z, 1, False, kind).exact()

    block("R")
    block("R'")
    block("R")  # a hit: R becomes the most recent
    assert len(fresh_blocks) == 2
    block("Rb")  # a miss that evicts R', the least recent
    assert [key[-1] for key in repmatrix._blocks] == ["R", "Rb"]
    assert sum(repmatrix._entries(fb) for fb in repmatrix._blocks.values()) == 2 * small
    assert repmatrix._held == 2 * small
    assert len(fresh_blocks) == 3
    # 18 x 18 frames, 5 of them: built and right, but not kept, and the
    # kept blocks stay
    big = FusedModuleSpec.from_string(SO3, "1,1:1/3;2:-2/5")
    args = (big, 0, True, big, 1, False, "R")
    for calls in (4, 5):
        _assert_same_operator(repmatrix._pair_term(*args).exact(), _per_spec_pair_block(*args))
        assert len(fresh_blocks) == calls
        assert [key[-1] for key in repmatrix._blocks] == ["R", "Rb"]
        assert repmatrix._held == 2 * small


def test_evicting_an_argument_block_drops_its_residues(fresh_blocks, monkeypatch):
    # the frame residues of the witness live on the shape's plan, which the
    # block cache keeps beside the argument blocks: once the cache evicts the
    # plan, nothing holds them, and a rebuilt plan starts with none
    Z = FusedModuleSpec.from_string(SO3, "1:1/3;1:-2/5")
    p = 2097143
    plan = repmatrix.witness_plan(Z)
    plan.residues([plan.arguments(Z)], p)
    assert list(plan._mod) == [p]
    held, residues = weakref.ref(plan), weakref.ref(plan._mod[p][0])
    del plan
    monkeypatch.setattr(repmatrix, "_BLOCK_ENTRIES", repmatrix._held)
    repmatrix.swz_terms(Z)  # hits: the plan becomes the least recent
    built = len(fresh_blocks)
    repmatrix._pair_term(Z, 0, True, Z, 1, False, "R")  # a miss that evicts it
    assert len(fresh_blocks) == built + 1
    assert not any(isinstance(item, repmatrix.WitnessPlan) for item in repmatrix._blocks.values())
    gc.collect()
    assert held() is None and residues() is None
    rebuilt = repmatrix.witness_plan(Z)
    assert rebuilt._mod == {} and len(fresh_blocks) == built + 1


def test_block_lookup_hashes_no_fraction(monkeypatch):
    # the form's key is made once per form and the box contents once per
    # spec, so a warm lookup hashes no Fraction and builds no tableau
    form = GForm.from_matrix([[Fraction(1, 2), 0, 0], [0, 3, 0], [0, 0, Fraction(-2, 7)]])
    repmatrix.swz_terms(FusedModuleSpec.from_string(form, "1,1:1/5;2:-3/7"))
    Z = FusedModuleSpec.from_string(form, "1,1:2/7;2:-4/11")
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or real(q))
    monkeypatch.setattr(repmatrix, "column_tableau", None)
    for _ in range(2):
        repmatrix.swz_terms(Z)
    assert hashed == []


def test_second_point_of_a_shape_builds_no_block(fresh_blocks, capsys):
    # after one verdict, a verdict at another point of the same shape takes
    # every pair and S block from the cache, and reports what a fresh
    # process reports
    argv = ["irreducible", "--form", "so", "--n", "3", "--json", "--modules"]
    assert cli.main(argv + ["1,1:-1/3;1,1:1/5"]) == 0
    built = len(fresh_blocks)
    assert built > 0
    capsys.readouterr()
    assert cli.main(argv + ["1,1:2/7;1,1:-3/11"]) == 0
    warm = capsys.readouterr().out
    assert len(fresh_blocks) == built
    src = str(Path(repmatrix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cold = subprocess.run([sys.executable, "-m", "twistfusion.cli", *argv, "1,1:2/7;1,1:-3/11"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert cold.returncode == 0
    assert cold.stdout == warm


def _t_dense_oracle(Z, u0):
    """T_Z(u0) from dense products: per factor j, the single-box breve
    factors 1 - P_{0,q}/(u0 - v_q) over its boxes q ascending, restricted to
    C^N (x) V_j, then embedded on legs (0, 1 + j) and multiplied in order."""
    N = Z.N
    dims = (N,) + Z.factor_dims
    out = TensorOperator.identity(dims)
    for j in range(Z.ell):
        params = Z.box_params(j)
        n = len(params)
        op = TensorOperator.identity((N,) * (n + 1))
        for q, vq in enumerate(params, start=1):
            Rb = yang_matrices(Z.form, u0, vq)[2]
            op = op @ embed_two_leg(Rb, 1, q + 1, n + 1)
        basis = Basis.kron(Basis.full(N), Z.basis(j))
        block = restrict(op, basis, basis, dims=(N, Z.basis(j).size))
        out = out @ embed_operator(block, (0, 1 + j), dims)
    return out


def test_t_frames_with_a_zero_coefficient():
    # the u^0 frame of this product is zero; the others share scale 1/2
    Z = FusedModuleSpec.from_string(SO3, "1:1/2;1,1:1")
    td = repmatrix._t_data(Z)
    assert linalg.is_zero_matrix(td.frames[0])
    assert not all(linalg.is_zero_matrix(fr) for fr in td.frames[1:])
    T = t_action(Z)
    for u0 in (Fraction(2, 7), Fraction(-3), Fraction(5, 4)):
        oracle = _t_dense_oracle(Z, u0)
        assert td.at(u0) == oracle
        assert eval_ratfuncs(T, u0) == oracle
        _assert_proportional(td.at_ints([u0])[0], oracle.mat)


def test_s_generators_zeroth_slice():
    Z = spec(SP2, (BOX, Fraction(1, 3)))
    g = s_generators(Z, 4)
    for i in range(2):
        for j in range(2):
            blk = g.rho[0][i][j]
            for a in range(2):
                for b in range(2):
                    assert blk[a, b] == (1 if (i == j and a == b) else 0)


def _entrywise_series(op, K):
    """Coefficient matrices of u^0..u^-K of a RatFunc-entry operator."""
    frames = [np.full((op.size, op.size), Fraction(0), dtype=object) for _ in range(K + 1)]
    for (r, c), v in np.ndenumerate(op.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        if not f.is_zero():
            for k, coef in enumerate(f.series_at_infinity(K)):
                frames[k][r, c] = coef
    return frames


def _at_minus_u(f) -> RatFunc:
    """f(-u) for a RatFunc or a constant f."""
    f = RatFunc.coerce(f)
    return RatFunc(*(Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)))
                     for p in (f.num, f.den)))


def _s_generators_ratfunc(Z, K):
    """The RatFunc route, kept as an oracle: T(u) as a RatFunc matrix, the
    transposed T(-u), each entry expanded at infinity, and the Fraction
    Cauchy product of the two expansions."""
    T = t_action(Z)
    Tt = transpose_legs(T.map_entries(_at_minus_u), {1}, Z.form)
    A = _entrywise_series(Tt, K)
    B = _entrywise_series(T, K)
    return [sum(linalg.fdot(A[a], B[k - a]) for a in range(k + 1)) for k in range(K + 1)]


@pytest.mark.parametrize("label,Z", list(_criterion_3_specs()),
                         ids=[label for label, _ in _criterion_3_specs()])
def test_s_generators_match_ratfunc_route(label, Z):
    K = 2 * Z.n_total + 2
    g = s_generators(Z, K)
    S = _s_generators_ratfunc(Z, K)
    N, d = Z.N, Z.dimZ
    assert (g.K, g.N, g.dimZ, len(g.rho)) == (K, N, d, K + 1)
    for k in range(K + 1):
        Sk = S[k].reshape(N, d, N, d)
        for i in range(N):
            for j in range(N):
                rho = g.rho[k][i][j]
                assert all(type(v) is Fraction for v in rho.flat)
                assert mat_equal(rho, Sk[i, :, j, :])


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


@pytest.mark.parametrize("omega", [VDOM, SkewDiagram((2,))], ids=str)
def test_duality_with_a_rational_form(omega):
    # g and g^-1 are not integer, so each transposition by the cleared form
    # is the true one over a scalar that the comparison must carry
    form = GForm.from_matrix([[2, 0], [0, Fraction(1, 3)]])
    assert duality_check(omega, Fraction(2, 5), form).passed


@pytest.mark.parametrize("omega,form,failures", [
    (BOX, SO2, [2]),
    (VDOM, SP2, [2, 3, 4]),
    (SkewDiagram((2,)), SO3, [2, 3, 4]),
], ids=["1-so2", "1,1-sp2", "2-so3"])
def test_duality_detects_wrong_sharp_shift(omega, form, failures, monkeypatch):
    # with the content shift of omega-sharp off by one, the two sides differ
    # from the order where the shift first enters the coefficients
    def shifted_sharp(dia):
        sh, c = sharp(dia)
        return sh, c + 1

    monkeypatch.setattr(repmatrix, "sharp", shifted_sharp)
    assert duality_check(omega, Fraction(1, 3), form).failures == failures


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
