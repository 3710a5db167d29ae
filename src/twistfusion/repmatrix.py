"""Evaluated R-, R'- and S-matrices on fusion modules.

Everything is assembled from the box-level factorization: a block between two
module factors is an ordered product of two-leg Yang factors over box pairs,
restricted to the tensor product of the module bases, and blocks are embedded
and multiplied in the prescribed order.

Ordering conventions (leftmost factor first):
  R / breve-R blocks:   outer factor index i descending, inner j ascending;
                        inside a block, boxes p descending, q ascending.
  R' / breve-R' blocks: i descending, j descending; boxes p and q descending.
  elementary S:         p descending, q descending below p.
  fused S:              i descending: [S_i, then R'_{i,j} for j descending].
  Yangian action T_Z(u): single auxiliary box against all module boxes in
                        ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fusion as fusion_mod
from .diagrams import SkewDiagram, column_tableau, parse_skew, sharp
from .errors import (
    BoxCapExceeded,
    DimensionMismatch,
    ShapeTooTall,
    SingularFamily,
    SingularParameter,
)
from .exactnum import Poly, RatFunc, parse_rational
from .linalg import (
    ScaledIntMatrix,
    feye,
    int_kernel,
    int_matmul,
    mat_equal,
    max_abs,
    primitive_part,
    to_int_scaled,
)
from .tensor import (
    Basis,
    GForm,
    MatrixLaurentSeries,
    TensorOperator,
    embed_matrix,
    embed_operator,
    restricted_chain,
    reversal_op,
    structural_ops,
    transpose_legs,
    two_leg_entries,
)

_F1 = Fraction(1)

KINDS = ("R", "R'", "Rb", "Rb'")


def _lift(val):
    return val if isinstance(val, RatFunc) else Fraction(val)


def _is_symbolic(*vals) -> bool:
    return any(isinstance(v, RatFunc) for v in vals)


def yang_matrices(form: GForm, u, v):
    """(R, R', breve-R, breve-R') on two legs, exact in u, v."""
    N = form.N
    P, Q = structural_ops(form)
    ident = TensorOperator.identity((N, N))
    u, v = _lift(u), _lift(v)
    R = (u - v) * ident - P
    Rp = -((u + v) * ident) - Q
    duv = u - v
    suv = u + v
    if _is_symbolic(u, v):
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
    if _is_symbolic(u, v):
        lift = lambda op: op.map_entries(RatFunc.coerce)  # noqa: E731
        return lift(R), lift(Rp), lift(Rb), lift(Rbp)
    return R, Rp, Rb, Rbp


# ---------------------------------------------------------------------------
# fused module specifications

class FusedModuleSpec:
    """Ordered list of (skew diagram, rational parameter) over a fixed form."""

    def __init__(self, form: GForm, factors, box_cap: int = 6):
        self.form = form
        self.factors = [(d, Fraction(z)) for (d, z) in factors]
        for d, _ in self.factors:
            if not d.fits(form.N):
                raise ShapeTooTall(f"{d} does not fit N={form.N}")
        self.n_total = sum(d.size for d, _ in self.factors)
        if self.n_total > box_cap:
            raise BoxCapExceeded(f"{self.n_total} boxes exceed cap {box_cap}")
        self._fusion = None
        self._tdata = None
        self._kron_bases: dict = {}

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_string(cls, form: GForm, text: str, box_cap: int = 6) -> "FusedModuleSpec":
        factors = []
        text = text.strip()
        if text:
            for chunk in text.split(";"):
                if ":" not in chunk:
                    raise ValueError(f"factor {chunk!r} missing ':z'")
                dia, _, zs = chunk.rpartition(":")
                factors.append((parse_skew(dia), parse_rational(zs)))
        return cls(form, factors, box_cap=box_cap)

    @property
    def N(self) -> int:
        return self.form.N

    @property
    def ell(self) -> int:
        return len(self.factors)

    def fusion(self, i: int) -> fusion_mod.FusionOperator:
        if self._fusion is None:
            self._fusion = [
                fusion_mod.fusion_operator(d, self.N, box_cap=max(6, self.n_total))
                for d, _ in self.factors
            ]
        return self._fusion[i]

    def basis(self, i: int) -> Basis:
        return self.fusion(i).module_basis

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(self.fusion(i).dim for i in range(self.ell))

    @property
    def dimZ(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out

    def contents(self, i: int) -> tuple[int, ...]:
        return column_tableau(self.factors[i][0]).contents

    def z(self, i: int):
        return self.factors[i][1]

    def box_params(self, i: int, shift=None) -> list:
        z = self.z(i) if shift is None else shift + self.z(i)
        return [z + c for c in self.contents(i)]

    def all_box_params(self) -> list[Fraction]:
        return [p for i in range(self.ell) for p in self.box_params(i)]

    def kron_basis(self, i: int, j: int) -> Basis:
        key = (i, j)
        if key not in self._kron_bases:
            self._kron_bases[key] = Basis.kron(self.basis(i), self.basis(j))
        return self._kron_bases[key]

    def spec_string(self) -> str:
        return ";".join(f"{d}:{z}" for d, z in self.factors)

    def to_json(self) -> dict:
        return {"form": self.form.kind, "N": self.N, "modules": self.spec_string()}

    def __repr__(self):
        return f"FusedModuleSpec({self.form.kind}, N={self.N}, [{self.spec_string()}])"


def form_equal(a: GForm, b: GForm) -> bool:
    return a.kind == b.kind and a.N == b.N and mat_equal(a.g, b.g)


# ---------------------------------------------------------------------------
# box-level blocks

def _pair_block(
    form: GForm,
    contA,
    basisA: Basis,
    paramA,
    contB,
    basisB: Basis,
    paramB,
    kind: str,
) -> TensorOperator:
    """Ordered box product between two module factors, restricted to
    V_A (x) V_B; returned with leg dims (dim A, dim B)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    nA, nB = len(contA), len(contB)
    P, Q = structural_ops(form)
    p_entries = two_leg_entries(P)
    q_entries = two_leg_entries(Q)
    if kind in ("R", "Rb"):
        seq = [(p, q) for p in reversed(range(nA)) for q in range(nB)]
    else:
        seq = [(p, q) for p in reversed(range(nA)) for q in reversed(range(nB))]
    chain = []
    for (p, q) in seq:
        u = _lift(paramA) + contA[p]
        v = _lift(paramB) + contB[q]
        if kind == "R":
            alpha, entries, coef = u - v, p_entries, -_F1
        elif kind == "R'":
            alpha, entries, coef = -(u + v), q_entries, -_F1
        elif kind == "Rb":
            den = u - v
            _check_denominator(den, f"boxes ({p+1},{q+1})")
            alpha, entries, coef = _F1, p_entries, -1 / den
        else:  # Rb'
            den = u + v
            _check_denominator(den, f"boxes ({p+1},{q+1})")
            alpha, entries, coef = _F1, q_entries, 1 / den
        scaled = [(a, b, c, d, coef * val) for (a, b, c, d, val) in entries]
        chain.append((p, nA + q, alpha, 0, scaled))
    kb = Basis.kron(basisA, basisB)
    M, = restricted_chain(chain, kb, (form.N,) * (nA + nB))
    return TensorOperator(M, (basisA.size, basisB.size))


def _check_denominator(den, where: str):
    if isinstance(den, RatFunc):
        if den.is_zero():
            raise SingularFamily(f"denominator vanishes identically at {where}")
    elif den == 0:
        raise SingularParameter(f"denominator vanishes at {where}")


# ---------------------------------------------------------------------------
# frame representation of blocks: polynomial coefficient matrices in the
# deformation variable over one scalar denominator (keeps everything numeric)

@dataclass
class FrameBlock:
    """sum_k frames[k] * zeta^k divided by the scalar polynomial den."""

    frames: list
    den: object  # Poly
    dims: tuple[int, ...]


def _negated(entries):
    return [(a, b, c, d, -v) for (a, b, c, d, v) in entries]


def _pair_block_frames(
    Z: FusedModuleSpec, i: int, shiftA: bool, j: int, shiftB: bool, kind: str
) -> FrameBlock:
    """Frame form of the block of the given kind between factors i and j of
    Z, with box parameters affine in the deformation variable:
    u_p = z_i + c_p (+ zeta if shiftA), likewise v_q = z_j + c_q."""
    contA, contB = Z.contents(i), Z.contents(j)
    nA, nB = len(contA), len(contB)
    if kind in ("R", "Rb"):
        seq = [(p, q) for p in reversed(range(nA)) for q in range(nB)]
    else:
        seq = [(p, q) for p in reversed(range(nA)) for q in reversed(range(nB))]
    P, Q = structural_ops(Z.form)
    q_entries = two_leg_entries(Q)
    minus_p, minus_q = _negated(two_leg_entries(P)), _negated(q_entries)
    bu, bv = int(shiftA), int(shiftB)
    chain = []
    den = Poly.const(1)
    for (p, q) in seq:
        au, av = Z.z(i) + contA[p], Z.z(j) + contB[q]
        # numerators: (u-v) - P for R and Rb, -(u+v) - Q for R', (u+v) + Q
        # for Rb'; Rb and Rb' divide by u-v and u+v
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
            den = den * Poly((a, Fraction(b)))
        chain.append((p, nA + q, a, b, entries))
    frames = restricted_chain(chain, Z.kron_basis(i, j), (Z.N,) * (nA + nB))
    return FrameBlock(frames, den, (Z.basis(i).size, Z.basis(j).size))


def _elementary_s_frames(
    omega: SkewDiagram, z, shifted: bool, form: GForm, basis: Basis | None = None
) -> FrameBlock:
    """S of one elementary module: the ordered product of the R' factors
    -(v_p + v_q) - Q_{pq} over box pairs (p descending, q descending below
    p) with v_p = z + c_p (+ zeta if shifted), restricted to the module.
    Polynomial: the denominator is 1."""
    n = omega.size
    if basis is None:
        basis = fusion_mod.fusion_operator(omega, form.N, box_cap=max(6, n)).module_basis
    one = Poly.const(1)
    if n <= 1:
        return FrameBlock([feye(basis.size)], one, (basis.size,))
    cont = column_tableau(omega).contents
    _, Q = structural_ops(form)
    entries = _negated(two_leg_entries(Q))
    b = -2 if shifted else 0
    chain = [
        (p, q, -((z + cont[p]) + (z + cont[q])), b, entries)
        for p in reversed(range(n))
        for q in reversed(range(p))
    ]
    return FrameBlock(restricted_chain(chain, basis, (form.N,) * n), one, (basis.size,))


def breve_r_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """Ordered frame blocks of breve-R_{W,Z}(zeta), W the zeta-shifted copy of Z."""
    ell = Z.ell
    return [
        (_pair_block_frames(Z, i, True, j, False, "Rb"), (i, ell + j))
        for i in reversed(range(ell))
        for j in range(ell)
    ]


def swz_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """Ordered frame blocks of S_{W,Z}(zeta), W the zeta-shifted copy of Z.

    Slots 0..l-1 are the W factors, l..2l-1 the Z factors."""
    ell = Z.ell
    blocks = [
        (_pair_block_frames(Z, i, True, j, False, "Rb'"), (i, ell + j))
        for i in reversed(range(ell))
        for j in reversed(range(ell))
    ]
    for i in reversed(range(ell)):
        s_block = _elementary_s_frames(Z.factors[i][0], Z.z(i), True, Z.form, Z.basis(i))
        blocks.append((s_block, (i,)))
        for j in reversed(range(i)):
            blocks.append((_pair_block_frames(Z, i, True, j, True, "R'"), (i, j)))
    blocks.extend(breve_r_frame_blocks(Z))
    return blocks


def frame_product(blocks, dims, window: int) -> MatrixLaurentSeries:
    """Laurent series at zeta = 0 of the ordered product of frame blocks,
    each embedded in its slots of the legs ``dims``, past its exactly-zero
    leading coefficients; _WindowExhausted if ``window`` is used up."""
    prod = None
    for fb, slots in blocks:
        mls = MatrixLaurentSeries.from_frames(fb.frames, fb.den, window).embedded(slots, dims)
        prod = mls if prod is None else prod @ mls
    return prod.trimmed()


def breve_r_family_leading(Z: FusedModuleSpec, window: int = 6):
    """Laurent order and exact leading coefficient matrix of the breve-R
    family of the shifted pair (W, Z) at zeta = 0."""
    prod = frame_product(breve_r_frame_blocks(Z), Z.factor_dims + Z.factor_dims, window)
    return prod.order, prod.coefficient(prod.order).to_fractions()


def r_factorized_blocks(
    W: FusedModuleSpec, Z: FusedModuleSpec, kind: str, w_shift=None
) -> list[tuple[TensorOperator, tuple[int, ...]]]:
    """Ordered restricted blocks of R_{W,Z}-type operators on W (x) Z.

    Slots 0..k-1 are the W factors, k..k+l-1 the Z factors.  w_shift, when
    given, is added to every W parameter (symbolic families use RatFunc.x()).
    """
    if not form_equal(W.form, Z.form):
        raise DimensionMismatch("W and Z use different forms")
    k, ell = W.ell, Z.ell
    if kind in ("R", "Rb"):
        order = [(i, j) for i in reversed(range(k)) for j in range(ell)]
    elif kind in ("R'", "Rb'"):
        order = [(i, j) for i in reversed(range(k)) for j in reversed(range(ell))]
    else:
        raise ValueError(f"kind must be one of {KINDS}")
    blocks = []
    for (i, j) in order:
        wparam = W.z(i) if w_shift is None else w_shift + W.z(i)
        block = _pair_block(
            Z.form,
            W.contents(i),
            W.basis(i),
            wparam,
            Z.contents(j),
            Z.basis(j),
            Z.z(j),
            kind,
        )
        blocks.append((block, (i, k + j)))
    return blocks


def r_factorized(W: FusedModuleSpec, Z: FusedModuleSpec, kind: str, w_shift=None) -> TensorOperator:
    """The operator on W (x) Z assembled from its ordered restricted blocks."""
    dims = W.factor_dims + Z.factor_dims
    out = TensorOperator.identity(dims)
    for block, slots in r_factorized_blocks(W, Z, kind, w_shift=w_shift):
        out = out @ embed_operator(block, slots, dims)
    return out


def s_elementary(omega: SkewDiagram, z, form: GForm, basis: Basis | None = None) -> TensorOperator:
    """Twisted S-matrix of one elementary module: ordered product of R'
    factors over box pairs, restricted to the module."""
    fb = _elementary_s_frames(omega, z, False, form, basis)
    return TensorOperator(fb.frames[0], fb.dims)


def s_fused_blocks(Z: FusedModuleSpec, shift=None) -> list[tuple[TensorOperator, tuple[int, ...]]]:
    """Ordered blocks of the fused S-matrix of Z (parameters shifted if asked)."""
    blocks = []
    for i in reversed(range(Z.ell)):
        zi = Z.z(i) if shift is None else shift + Z.z(i)
        blocks.append((s_elementary(Z.factors[i][0], zi, Z.form, Z.basis(i)), (i,)))
        for j in reversed(range(i)):
            zj = Z.z(j) if shift is None else shift + Z.z(j)
            block = _pair_block(
                Z.form,
                Z.contents(i),
                Z.basis(i),
                zi,
                Z.contents(j),
                Z.basis(j),
                zj,
                "R'",
            )
            blocks.append((block, (i, j)))
    return blocks


def s_fused(Z: FusedModuleSpec, shift=None) -> TensorOperator:
    dims = Z.factor_dims
    out = TensorOperator.identity(dims)
    for block, slots in s_fused_blocks(Z, shift=shift):
        out = out @ embed_operator(block, slots, dims)
    return out


# ---------------------------------------------------------------------------
# Yangian action and twisted-Yangian generator matrices

class _TData:
    """T_Z(u) as polynomial coefficient frames over the scalar denominator
    prod_q (u - v_q); keeps all products numeric.

    The relation sampler evaluates T only up to a nonzero scalar: it clears
    the denominators of the frames once (int_frames, held beside frames) and
    drops both the denominator den(u0) and the content of the result.  Each
    defining relation is homogeneous in every sampled T(u0) and S(u0), so the
    same scalar product appears on both of its sides and equality is
    unaffected."""

    def __init__(self, frames: list[np.ndarray], den):
        self.frames = frames
        self.den = den
        self._int_frames = None

    def at_int(self, u0: Fraction) -> np.ndarray:
        """A primitive integer matrix equal to T(u0) up to a nonzero scalar.

        For u0 = p/q this is the homogenised Horner sum
        sum_k int_frames[k] * p^k * q^(deg - k), divided by its content."""
        if self.den.eval(u0) == 0:
            raise SingularParameter(f"u = {u0} is a pole of T")
        if self._int_frames is None:
            self._int_frames = list(to_int_scaled(np.array(self.frames))[0])
        frames = self._int_frames
        p, q = u0.numerator, u0.denominator
        acc = frames[-1]
        qk = 1
        for fr in reversed(frames[:-1]):
            qk *= q
            acc = acc * p + fr * qk
        return primitive_part(acc)

    def ratfunc_matrix(self) -> np.ndarray:
        shape = self.frames[0].shape
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            coeffs = [fr[idx] for fr in self.frames]
            out[idx] = RatFunc(Poly(coeffs), self.den)
        return out


def _t_data(Z: FusedModuleSpec) -> _TData:
    if Z._tdata is not None:
        return Z._tdata
    N = Z.N
    dims = (N,) + Z.factor_dims
    P, _ = structural_ops(Z.form)
    entries = _negated(two_leg_entries(P))
    # coefficient frames of the accumulated product, low first
    acc = [ScaledIntMatrix.from_fractions(feye(N * Z.dimZ))]
    den = Poly.const(1)
    for j in range(Z.ell):
        # (u - v_q) - P_{0,q} over the boxes q of factor j, ascending
        params = Z.box_params(j)
        chain = [(0, q, -vq, 1, entries) for q, vq in enumerate(params, start=1)]
        for vq in params:
            den = den * Poly((-vq, _F1))
        kb = Basis.kron(Basis.full(N), Z.basis(j))
        frames = restricted_chain(chain, kb, (N,) * (len(params) + 1))
        emb = [
            ScaledIntMatrix.from_fractions(embed_matrix(fr, (0, 1 + j), dims))
            for fr in frames
        ]
        out = []
        for k in range(len(acc) + len(emb) - 1):
            tot = None
            for a in range(max(0, k - len(emb) + 1), min(len(acc), k + 1)):
                term = acc[a] @ emb[k - a]
                tot = term if tot is None else tot + term
            out.append(tot)
        acc = out
    data = _TData([m.to_fractions() for m in acc], den)
    Z._tdata = data
    return data


def t_action(Z: FusedModuleSpec) -> TensorOperator:
    """T_Z(u): operator on (auxiliary C^N) (x) Z with RatFunc(u) entries,
    the ordered product of single-box breve factors restricted per factor."""
    return TensorOperator(_t_data(Z).ratfunc_matrix(), (Z.N,) + Z.factor_dims)


@dataclass
class GeneratorMatrices:
    """rho[k][i][j]: the End(Z) matrix of the k-th generator coefficient."""

    K: int
    N: int
    dimZ: int
    rho: list  # rho[k][i][j] -> object ndarray (dimZ x dimZ)


def _entrywise_series(op: TensorOperator, K: int) -> list[np.ndarray]:
    """Coefficient matrices of u^0..u^-K for a RatFunc-entry operator."""
    D = op.size
    frames = [np.empty((D, D), dtype=object) for _ in range(K + 1)]
    zero = Fraction(0)
    for fr in frames:
        fr[...] = zero
    for (r, c), v in np.ndenumerate(op.mat):
        f = v if isinstance(v, RatFunc) else RatFunc.const(v)
        if f.is_zero():
            continue
        for k, coef in enumerate(f.series_at_infinity(K)):
            if coef != 0:
                frames[k][r, c] = coef
    return frames


def s_generators(Z: FusedModuleSpec, K: int) -> GeneratorMatrices:
    """Expand S_Z(u) = T^t(-u) T(u) at infinity to order K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    N, dZ = Z.N, Z.dimZ
    T = t_action(Z)
    Tt = transpose_legs(T.map_entries(lambda f: RatFunc.coerce(f).subs_neg()), {1}, Z.form)
    A = [ScaledIntMatrix.from_fractions(m) for m in _entrywise_series(Tt, K)]
    B = [ScaledIntMatrix.from_fractions(m) for m in _entrywise_series(T, K)]
    rho = []
    for k in range(K + 1):
        acc = None
        for a in range(k + 1):
            term = A[a] @ B[k - a]
            acc = term if acc is None else acc + term
        Sk = acc.to_fractions().reshape(N, dZ, N, dZ)
        rho.append([[Sk[i, :, j, :] for j in range(N)] for i in range(N)])
    return GeneratorMatrices(K=K, N=N, dimZ=dZ, rho=rho)


# ---------------------------------------------------------------------------
# defining relations by sampling

@dataclass
class RelationReport:
    spec: str
    degree_bound: int
    rtt_checked: int
    rtt_failures: list
    reflection_checked: int
    reflection_failures: list
    singular_samples: list
    proven: bool

    @property
    def passed(self) -> bool:
        return (
            not self.rtt_failures
            and not self.reflection_failures
            and self.rtt_checked > self.degree_bound
            and self.reflection_checked > self.degree_bound
        )


def _aux_sparse(form: GForm, u, v, primed: bool):
    """Sparse entries ((i,j),(a,b)) -> value of R or R' on the two aux legs."""
    N = form.N
    P, Q = structural_ops(form)
    out: dict = {}
    if not primed:
        for i in range(N):
            for j in range(N):
                out[((i, j), (i, j))] = u - v
        for (a, b, c, d, val) in two_leg_entries(P):
            key = ((a, b), (c, d))
            out[key] = out.get(key, Fraction(0)) - val
    else:
        for i in range(N):
            for j in range(N):
                out[((i, j), (i, j))] = -(u + v)
        for (a, b, c, d, val) in two_leg_entries(Q):
            key = ((a, b), (c, d))
            out[key] = out.get(key, Fraction(0)) - val
    return {k: v for k, v in out.items() if v != 0}


def _blocked(mat: np.ndarray, N: int, d: int) -> list:
    """Split an integer (N d) x (N d) matrix into (N, N) blocks of d x d.

    The sampler hands in integer matrices that equal T(u0) or S(u0) only up
    to a nonzero scalar: denominators are cleared and contents divided out.
    Every defining relation is homogeneous of degree one in each sampled
    matrix, so both of its sides carry the same scalar product and integer
    equality of the scaled sides is exact."""
    T4 = mat.reshape(N, d, N, d)
    return [[np.ascontiguousarray(T4[i, :, j, :]) for j in range(N)] for i in range(N)]


def _int_cleared(entries: dict) -> dict:
    """Scale a sparse coefficient dict to integer values (same factor on both
    relation sides, so equality is unaffected)."""
    import math as _math

    lcm = 1
    for v in entries.values():
        if isinstance(v, Fraction) and v.denominator != 1:
            lcm = lcm * v.denominator // _math.gcd(lcm, v.denominator)
    return {k: int(v * lcm) for k, v in entries.items()}


def _weight(R: dict) -> int:
    return sum(abs(v) for v in R.values())


def _rtt_holds(Tu, Tv, R: dict, N: int, d: int) -> bool:
    """R(u-v) T_1(u) T_2(v) = T_2(v) T_1(u) R(u-v) on (N, N) lists of d x d
    integer blocks, with R an integer sparse dict ((i,j),(a,b)) -> value.

    Runs in int64 when max|Tu| * max|Tv| * d * sum|R| < 2^62, which bounds
    every product entry and partial sum; otherwise on Python ints."""
    A, B = np.array(Tu), np.array(Tv)
    A, B = int_kernel((A, B), max_abs(A) * max_abs(B) * d * _weight(R))
    M1 = A[:, :, None, None] @ B[None, None]  # [a,k,b,l] = Tu[a,k] Tv[b,l]
    M2 = B[:, :, None, None] @ A[None, None]  # [j,b,i,a] = Tv[j,b] Tu[i,a]
    M2 = M2.transpose(2, 0, 3, 1, 4, 5)  # reindexed [i,j,a,b]
    lhs = np.zeros_like(M1)  # both sides indexed [i,j,k,l]
    rhs = np.zeros_like(M1)
    for ((i, j), (a, b)), val in R.items():
        lhs[i, j] += val * M1[a, :, b, :]
        rhs[:, :, a, b] += val * M2[:, :, i, j]
    return np.array_equal(lhs, rhs)


def _reflection_holds(Su, Sv, R: dict, Rp: dict, N: int, d: int) -> bool:
    """R S_1(u) R' S_2(v) = S_2(v) R' S_1(u) R on (N, N) lists of d x d
    integer blocks, with R(u-v) and R'(u+v) integer sparse dicts.

    Runs in int64 when max|Su| * max|Sv| * d * sum|R| * sum|R'| < 2^62;
    otherwise on Python ints."""
    A, B = np.array(Su), np.array(Sv)
    bound = max_abs(A) * max_abs(B) * d * _weight(R) * _weight(Rp)
    A, B = int_kernel((A, B), bound)
    P2 = A[:, :, None, None] @ B[None, None]  # [i,a,dd,l] = Su[i,a] Sv[dd,l]
    P2p = B[:, :, None, None] @ A[None, None]  # [j,b,c,k] = Sv[j,b] Su[c,k]
    X = np.zeros_like(P2)  # X = S_1(u) R' S_2(v), indexed [i,b,c,l]
    Y = np.zeros_like(P2)  # Y = S_2(v) R' S_1(u), indexed [a,j,k,dd]
    for ((a, b), (c, dd)), val in Rp.items():
        X[:, b, c, :] += val * P2[:, a, dd, :]
        Y[a, :, :, dd] += val * P2p[:, b, c, :]
    lhs = np.zeros_like(P2)  # both sides indexed [i,j,k,l]
    rhs = np.zeros_like(P2)
    for ((i, j), (a, b)), val in R.items():
        lhs[i, j] += val * X[a, b]
        rhs[:, :, a, b] += val * Y[:, :, i, j]
    return np.array_equal(lhs, rhs)


def check_defining_relations(Z: FusedModuleSpec, samples=None) -> RelationReport:
    """RTT and the reflection relation on Z, exactly, at a grid of rational
    points whose size beats the degree bound 2n+2 per variable (so agreement
    is an identity of rational functions); user-supplied samples are checked
    individually with per-sample pole reporting."""
    N, d = Z.N, Z.dimZ
    n = Z.n_total
    bound = 2 * n + 2
    td = _t_data(Z)
    dims = (N,) + Z.factor_dims
    # g and g^-1 cleared to integers: the transposition they define is the
    # true one times a nonzero scalar
    int_form = GForm(Z.form.kind, N, to_int_scaled(Z.form.g)[0], to_int_scaled(Z.form.g_inv)[0])
    poles = set()
    for p in Z.all_box_params():
        poles.add(p)
        poles.add(-p)

    if samples is None:
        grid = []
        k = 1
        while len(grid) < bound + 1:
            q = Fraction(k)
            if q not in poles and -q not in poles:
                grid.append(q)
            k += 1
        pairs = [(u, v) for u in grid for v in grid]
        proven_grid = True
    else:
        pairs = [(Fraction(u), Fraction(v)) for (u, v) in samples]
        proven_grid = False

    # T(u0) and S(u0) = T^t(-u0) T(u0), each up to its own nonzero scalar
    cacheT: dict = {}
    cacheS: dict = {}

    def t_for(u0):
        if u0 not in cacheT:
            mat = td.at_int(u0)
            cacheT[u0] = (mat, _blocked(mat, N, d))
        return cacheT[u0]

    def s_blocks_for(u0):
        if u0 not in cacheS:
            Tt = transpose_legs(TensorOperator(t_for(-u0)[0], dims), {1}, int_form).mat
            cacheS[u0] = _blocked(primitive_part(int_matmul(Tt, t_for(u0)[0])), N, d)
        return cacheS[u0]

    rtt_fail, refl_fail, singular = [], [], []
    rtt_n = refl_n = 0
    for (u0, v0) in pairs:
        if u0 in poles or -u0 in poles or v0 in poles or -v0 in poles:
            singular.append(
                {"u": str(u0), "v": str(v0), "error": "SingularParameter: sample at a pole"}
            )
            continue
        R = _int_cleared(_aux_sparse(Z.form, u0, v0, primed=False))
        Rp = _int_cleared(_aux_sparse(Z.form, u0, v0, primed=True))
        _, Tu = t_for(u0)
        _, Tv = t_for(v0)
        rtt_n += 1
        if not _rtt_holds(Tu, Tv, R, N, d):
            rtt_fail.append((str(u0), str(v0)))
        Su = s_blocks_for(u0)
        Sv = s_blocks_for(v0)
        refl_n += 1
        if not _reflection_holds(Su, Sv, R, Rp, N, d):
            refl_fail.append((str(u0), str(v0)))
    return RelationReport(
        spec=Z.spec_string(),
        degree_bound=bound,
        rtt_checked=rtt_n,
        rtt_failures=rtt_fail,
        reflection_checked=refl_n,
        reflection_failures=refl_fail,
        singular_samples=singular,
        proven=proven_grid and not rtt_fail and not refl_fail,
    )


# ---------------------------------------------------------------------------
# contragredient duality

@dataclass
class DualityReport:
    diagram: SkewDiagram
    N: int
    form: str
    z: Fraction
    K: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def duality_check(omega: SkewDiagram, z, form: GForm, K: int | None = None) -> DualityReport:
    """The contragredient-module identity: for generator instances h,
    rho_sharp(h) F_sharp = sigma_hat (rho(tau(h)) F)^t sigma_hat,
    with h the u^-k coefficients of the tautological single-box action."""
    N = form.N
    z = Fraction(z)
    n = omega.size
    if K is None:
        K = max(1, 2 * n)
    if n == 0:
        return DualityReport(omega, N, form.kind, z, K, [])
    F = fusion_mod.fusion_operator(omega, N)
    sh_dia, c_shift = sharp(omega)
    Fs = fusion_mod.fusion_operator(sh_dia, N)
    z_sharp = -z - c_shift
    cont = column_tableau(omega).contents
    cont_s = column_tableau(sh_dia).contents
    x = RatFunc.x()

    # tautological (descending) products at the two evaluation tuples
    t_sharp = [z_sharp + cont_s[n - p] for p in range(1, n + 1)]
    t_tau = [-(z + cont[n - p]) for p in range(1, n + 1)]
    U_sharp = fusion_mod.defining_action_product(x, t_sharp, N, ascending=False)
    U_tau = fusion_mod.defining_action_product(x, t_tau, N, ascending=False)

    dims = (N,) * (n + 1)
    s_hat = reversal_op(n, N)
    sig = TensorOperator(np.kron(feye(N), s_hat.mat), dims)
    Fe = TensorOperator(np.kron(feye(N), F.matrix.mat), dims)
    Fse = TensorOperator(np.kron(feye(N), Fs.matrix.mat), dims)
    legs = set(range(2, n + 2))

    Cs = _entrywise_series(U_sharp, K)
    Ct = _entrywise_series(U_tau, K)
    failures = []
    for k in range(K + 1):
        Lk = (sig @ TensorOperator(Cs[k], dims) @ sig) @ Fse
        rho_tau = sig @ transpose_legs(TensorOperator(Ct[k], dims), legs, form) @ sig
        Xk = rho_tau @ Fe
        Rk = sig @ transpose_legs(Xk, legs, form) @ sig
        if Lk != Rk:
            failures.append(k)
    return DualityReport(omega, N, form.kind, z, K, failures)
