"""Symbolic reference routes: the engine's operators built another way.

The engine (irreducibility, repmatrix, tensor, fusion, linalg) decides every
verdict on integer frames and residues and never imports this module.  The
routes here build the same operators as dense matrices, entry by entry, over
RatFunc or as two-leg Yang matrices embedded on tensor legs: independent
oracles for the tests, the ``check-ybe`` command and a certificate checker.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fusion, linalg, repmatrix
from .diagrams import SkewDiagram, column_tableau
from .errors import (DimensionMismatch, IndexOutOfRange, NotInvariant, SingularFamily,
                     SingularParameter)
from .exactnum import Poly, RatFunc
from .fusion import defining_action_product
from .linalg import feye, fzeros, generic_dot
from .repmatrix import FusedModuleSpec, _breve_r_plan, _plan_terms, _t_data, frame_product
from .tensor import (Basis, FrameBlock, GForm, TensorOperator, _slot_rest_index, reversal_index,
                     structural_ops)

# fusion_operator, to_int_scaled and swz_frame_blocks, which perfbench's
# tracer rebinds in the engine modules, are read through those modules.


# ---------------------------------------------------------------------------
# two-leg Yang matrices and their embeddings

def yang_matrices(form: GForm, u, v):
    """(R, R', breve-R, breve-R') on two legs, exact in u, v."""
    P, Q = structural_ops(form)
    ident = TensorOperator.identity((form.N, form.N))
    symbolic = isinstance(u, RatFunc) or isinstance(v, RatFunc)
    u, v = (x if isinstance(x, RatFunc) else Fraction(x) for x in (u, v))
    duv, suv = u - v, u + v
    R = duv * ident - P
    Rp = -(suv * ident) - Q
    if symbolic:
        if isinstance(duv, RatFunc) and duv.is_zero():
            raise SingularFamily("u - v vanishes identically")
        if isinstance(suv, RatFunc) and suv.is_zero():
            raise SingularFamily("u + v vanishes identically")
    else:
        if duv == 0:
            raise SingularParameter(f"breve R singular at u = v = {u}")
        if suv == 0:
            raise SingularParameter(f"breve R' singular at u = -v = {u}")
    Rb = ident - (1 / duv) * P
    Rbp = ident + (1 / suv) * Q
    if symbolic:
        lift = lambda op: op.map_entries(RatFunc.coerce)  # noqa: E731
        return lift(R), lift(Rp), lift(Rb), lift(Rbp)
    return R, Rp, Rb, Rbp


def permutation_op(perm, N: int) -> TensorOperator:
    """Matrix moving leg k's content to position perm(k) (1-indexed images).

    With this convention the map sigma -> sigma_hat is a group homomorphism.
    """
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise IndexOutOfRange(f"not a permutation of 1..{n}: {perm}")
    dims = (N,) * n
    D = math.prod(dims)
    digits = np.unravel_index(np.arange(D), dims)
    new_digits = [None] * n
    for k in range(n):
        new_digits[perm[k] - 1] = digits[k]
    target = np.ravel_multi_index(tuple(new_digits), dims)
    mat = fzeros((D, D))
    mat[target, np.arange(D)] = Fraction(1)
    return TensorOperator(mat, dims)


def embed_two_leg(op: TensorOperator, a: int, b: int, n: int) -> TensorOperator:
    """Embed a 2-leg operator to act on legs (a, b) of n legs of dimension N."""
    if op.n_legs != 2 or op.dims[0] != op.dims[1]:
        raise DimensionMismatch("expected a 2-leg operator with equal leg dims")
    N = op.dims[0]
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise IndexOutOfRange(f"legs ({a},{b}) invalid for n={n}")
    return embed_operator(op, (a - 1, b - 1), (N,) * n)


def embed_operator(block: TensorOperator, slots, dims) -> TensorOperator:
    """block acting on the given slots (0-indexed) of the space with leg dims."""
    return TensorOperator(embed_matrix(block.mat, slots, dims), dims)


def embed_matrix(block: np.ndarray, slots, dims, zero=Fraction(0)) -> np.ndarray:
    """Dense matrix of block (x) identity-on-the-rest, any entry type."""
    gmap = _slot_rest_index(slots, dims)
    ds, dr = gmap.shape
    if block.shape != (ds, ds):
        raise DimensionMismatch("block size does not match slot dimensions")
    D = ds * dr
    out = np.empty((D, D), dtype=object)
    out[...] = zero
    for a in range(ds):
        rows = gmap[a]
        for b in range(ds):
            v = block[a, b]
            if v != 0:
                out[rows, gmap[b]] = v
    return out


# ---------------------------------------------------------------------------
# restriction and partial trace

def restrict(A: TensorOperator, domain: Basis, codomain: Basis, dims=None) -> TensorOperator:
    """Matrix of A in the given bases; NotInvariant if A leaves the codomain span."""
    rhs, scale = linalg.to_int_scaled(generic_dot(A.mat, domain.matrix()))
    X = codomain.solve(rhs)
    if X is None:
        raise NotInvariant("operator does not map domain span into codomain span")
    if domain.size != codomain.size:
        raise DimensionMismatch("restriction of a square operator needs equal basis sizes")
    return TensorOperator(X * scale, dims if dims is not None else (domain.size,))


def partial_trace_first(M: TensorOperator, dimW: int):
    """Partial trace over the first factor, and A -> Tr_W((A (x) 1) M).

    M acts on W (x) Z with dim(W) = dimW; returns (Tr_W M, contraction).
    """
    D = M.size
    if D % dimW != 0:
        raise DimensionMismatch("dimW does not divide the operator size")
    dimZ = D // dimW
    T = M.mat.reshape(dimW, dimZ, dimW, dimZ)
    traced = TensorOperator(np.trace(T, axis1=0, axis2=2).reshape(dimZ, dimZ), (dimZ,))

    def contraction(A: np.ndarray) -> np.ndarray:
        if A.shape != (dimW, dimW):
            raise DimensionMismatch("A must be an endomorphism of W")
        return np.tensordot(A, T, axes=([0, 1], [2, 0]))

    return traced, contraction


# ---------------------------------------------------------------------------
# RatFunc views of frame blocks and their products

def eval_ratfuncs(op: TensorOperator, a: Fraction) -> TensorOperator:
    """Evaluate RatFunc entries at a point; numeric entries pass through."""
    return op.map_entries(lambda v: v.eval(a) if isinstance(v, RatFunc) else v)


def ratfunc_matrix(fb: FrameBlock) -> np.ndarray:
    """The entries of a frame block as RatFuncs in its variable."""
    shape = fb.frames[0].shape
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = RatFunc(Poly([fb.scale * int(fr[idx]) for fr in fb.frames]), fb.den)
    return out


def ratfunc_product(blocks, dims) -> TensorOperator:
    """The ordered product of frame blocks as one dense matrix over
    RatFunc(zeta): the exact symbolic reference for frame_product."""
    out = TensorOperator.identity(dims)
    for fb, slots in blocks:
        out = out @ TensorOperator(embed_matrix(ratfunc_matrix(fb), slots, dims), dims)
    return out


def s_WZ_family(Z: FusedModuleSpec) -> TensorOperator:
    """Exact matrix of the family on W (x) Z over RatFunc(zeta): the dense
    product of the frame blocks that phi_leading expands."""
    return ratfunc_product(repmatrix.swz_frame_blocks(Z), Z.factor_dims + Z.factor_dims)


def breve_r_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """Ordered frame blocks of breve-R_{W,Z}(zeta), W the zeta-shifted copy of Z."""
    return [(term.exact(), slots) for term, slots in _plan_terms(Z, _breve_r_plan(Z.ell))]


def breve_r_family_leading(Z: FusedModuleSpec):
    """Laurent order and exact leading coefficient matrix of the breve-R
    family of the shifted pair (W, Z) at zeta = 0."""
    order, coeff = frame_product(breve_r_frame_blocks(Z), Z.factor_dims + Z.factor_dims)
    return order, coeff.to_fractions()


def t_action(Z: FusedModuleSpec) -> TensorOperator:
    """T_Z(u): operator on (auxiliary C^N) (x) Z with RatFunc(u) entries,
    the ordered product of single-box breve factors restricted per factor."""
    td = _t_data(Z)
    return TensorOperator(ratfunc_matrix(td), td.dims)


# ---------------------------------------------------------------------------
# the intertwining property of the fusion operator

@dataclass
class IntertwiningReport:
    diagram: SkewDiagram
    N: int
    z: Fraction
    samples: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures and len(self.samples) > 0


def intertwining_check(omega: SkewDiagram, N: int, z, u_samples=None) -> IntertwiningReport:
    """F intertwines the module action with the leg-reversed action:
    F h(v_1..v_n) = sigma_hat h(v_n..v_1) sigma_hat F, with v_p = z + c_p,
    h running over the coefficients of the auxiliary single-box product."""
    z = Fraction(z)
    F = fusion.fusion_operator(omega, N)
    n = omega.size
    if n == 0:
        return IntertwiningReport(omega, N, z, samples=[0], failures=[])
    a = [z + c for c in column_tableau(omega).contents]
    poles = set(a)
    if u_samples is None:
        u_samples = itertools.islice((k for k in itertools.count(1) if k not in poles), n + 2)
    samples = [Fraction(u0) for u0 in u_samples]
    for u0 in samples:
        if u0 in poles:
            raise SingularParameter(f"u = {u0} is a pole of a factor (v_q = {u0})")
    taut, rev = defining_action_product(a, N), defining_action_product(a[::-1], N)
    dims = (N,) * (n + 1)
    F_emb = TensorOperator(np.kron(feye(N), F.matrix.mat), dims)
    # sigma_hat on the module legs: rev's action read on the reversed index
    rev_idx = reversal_index(N, 1, n)
    s_idx = np.ix_(rev_idx, rev_idx)
    failures = [u0 for u0 in samples
                if F_emb @ taut.at(u0) != TensorOperator(rev.at(u0).mat[s_idx], dims) @ F_emb]
    return IntertwiningReport(omega, N, z, samples=samples, failures=failures)
