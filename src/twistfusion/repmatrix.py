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

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import fusion as fusion_mod
from .diagrams import SkewDiagram, column_tableau, parse_skew, sharp
from .errors import (
    BoxCapExceeded,
    DimensionMismatch,
    MalformedInput,
    ShapeTooTall,
    SingularFamily,
    SingularParameter,
)
from .exactnum import Poly, RatFunc, parse_rational
from .linalg import (
    ScaledIntMatrix,
    certified,
    float_kernels,
    int_matmul,
    kernel_moduli,
    mat_equal,
    max_abs,
    mod_matmul,
    primitive_part,
    reduce_mod,
    to_int_scaled,
)
from .tensor import (
    Basis,
    FrameBlock,
    GForm,
    MatrixLaurentSeries,
    TensorOperator,
    _WindowExhausted,
    embed_matrix,
    minus_flip_entries,
    restricted_chain,
    reversal_index,
    structural_ops,
    transposed,
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
        self._contents = [column_tableau(d).contents for d, _ in self.factors]

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_string(cls, form: GForm, text: str, box_cap: int = 6) -> "FusedModuleSpec":
        factors = []
        text = text.strip()
        if text:
            for chunk in text.split(";"):
                if ":" not in chunk:
                    raise MalformedInput(f"factor {chunk!r} missing ':z'")
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
        return math.prod(self.factor_dims)

    def contents(self, i: int) -> tuple[int, ...]:
        return self._contents[i]

    def z(self, i: int):
        return self.factors[i][1]

    def box_params(self, i: int) -> list:
        return [self.z(i) + c for c in self.contents(i)]

    def all_box_params(self) -> list[Fraction]:
        return [p for i in range(self.ell) for p in self.box_params(i)]

    def spec_string(self) -> str:
        return ";".join(f"{d}:{z}" for d, z in self.factors)

    def to_json(self) -> dict:
        return {"form": self.form.kind, "N": self.N, "modules": self.spec_string()}

    def __repr__(self):
        return f"FusedModuleSpec({self.form.kind}, N={self.N}, [{self.spec_string()}])"


def form_equal(a: GForm, b: GForm) -> bool:
    return a.kind == b.kind and a.N == b.N and mat_equal(a.g, b.g)


# ---------------------------------------------------------------------------
# box-level blocks: polynomial coefficient frames in the deformation
# variable over one scalar denominator (keeps everything numeric)

def _pair_order(kind: str, nA: int, nB: int) -> list[tuple[int, int]]:
    """Factor order of a block of the given kind, leftmost first: p
    descending; q ascending for R and breve-R, descending for the primed."""
    qs = range(nB) if kind in ("R", "Rb") else range(nB - 1, -1, -1)
    return [(p, q) for p in reversed(range(nA)) for q in qs]


# The numerator blocks in their own argument, keyed by form, diagrams and
# kind, least recently used first; they hold at most _BLOCK_ENTRIES frame
# entries in all (_held of them now), and a larger block is built but not
# kept.  A block's residues (FrameBlock.residue) go with it.
_BLOCK_ENTRIES = 2**20
_blocks: OrderedDict = OrderedDict()
_held = 0


def _entries(fb: FrameBlock) -> int:
    return sum(fr.size for fr in fb.frames)


def _argument_block(key, build) -> FrameBlock:
    """The cached numerator block of ``key``, made by ``build`` on a miss."""
    global _held
    fb = _blocks.get(key)
    if fb is not None:
        _blocks.move_to_end(key)
        return fb
    fb = build()
    if _entries(fb) <= _BLOCK_ENTRIES:
        _blocks[key] = fb
        _held += _entries(fb)
        while _held > _BLOCK_ENTRIES:
            _held -= _entries(_blocks.popitem(last=False)[1])
    return fb


class BlockTerm(NamedTuple):
    """A block in y: the cached argument block G(x) at x = t + s*y over
    prod_e ((t + e) + s*y), e in ``den``; exact blocks and witness share it."""

    block: FrameBlock
    t: Fraction
    s: int
    den: tuple = ()

    def exact(self) -> FrameBlock:
        """The block substituted exactly (FrameBlock.substituted), its den as factors."""
        return self.block.substituted(self.t, self.s, tuple((self.t + e, self.s) for e in self.den))


def _pair_term(
    A: FusedModuleSpec, i: int, shiftA: bool, B: FusedModuleSpec, j: int, shiftB: bool, kind: str
) -> BlockTerm:
    """The block of the given kind between factor i of A and factor j of B
    (A = B for a block inside one module), restricted to V_i (x) V_j, with
    box parameters affine in the deformation variable: u_p = z_i + c_p (+
    zeta if shiftA), likewise v_q = z_j + c_q.

    The parameters enter through one affine argument x = t + s*zeta: t =
    z_i - z_j, s = bu - bv and e_pq = c_p - c_q for R and breve R, t = z_i
    + z_j, s = bu + bv and e_pq = c_p + c_q for the primed kinds (bu, bv
    the shifts as 0 or 1).  The numerator factors are (x + e_pq) - P for R
    and breve R, -(x + e_pq) - Q for R' and (x + e_pq) + Q for breve R',
    and the breve kinds divide by x + e_pq.  So the numerator is G(t +
    s*zeta) for a block G(x) that depends only on the form, the diagrams
    and the kind: it is built once and kept in _blocks.  Per spec only the
    term and the singular check remain."""
    contA, contB = A.contents(i), B.contents(j)
    nA, nB = len(contA), len(contB)
    order = _pair_order(kind, nA, nB)
    bu, bv = int(shiftA), int(shiftB)
    if kind in ("R", "Rb"):
        t, s, e = A.z(i) - B.z(j), bu - bv, [contA[p] - contB[q] for p, q in order]
    else:
        t, s, e = A.z(i) + B.z(j), bu + bv, [contA[p] + contB[q] for p, q in order]
    breve = kind in ("Rb", "Rb'")
    if breve and s == 0 and -t in e:
        p, q = order[e.index(-t)]
        name = "breve R" if kind == "Rb" else "breve R'"
        raise SingularParameter(f"{name} singular at boxes ({p+1},{q+1})")

    def build() -> FrameBlock:
        # factors (a + b*x) * 1 + X with a = sigma * e_pq, b = sigma
        Q = structural_ops(B.form)[1]
        entries = (minus_flip_entries(B.N) if kind in ("R", "Rb")
                   else two_leg_entries(Q if kind == "Rb'" else -Q))
        sigma = -1 if kind == "R'" else 1
        chain = [(p, nA + q, sigma * epq, sigma, entries) for (p, q), epq in zip(order, e)]
        basis = Basis.kron(A.basis(i), B.basis(j))
        frames, scale = restricted_chain(chain, basis, (B.N,) * (nA + nB))
        return FrameBlock(frames, scale, Poly.const(1), (A.basis(i).size, B.basis(j).size))

    key = (B.form.key, A.factors[i][0], B.factors[j][0], kind)
    return BlockTerm(_argument_block(key, build), t, s, tuple(e) if breve else ())


def _elementary_s_term(omega: SkewDiagram, z, shifted: bool, form: GForm) -> BlockTerm:
    """S of one elementary module: the ordered product of the R' factors
    -(v_p + v_q) - Q_{pq} over box pairs (p descending, q descending below
    p) with v_p = z + c_p (+ zeta if shifted), restricted to the module.

    Each factor is -(x + c_p + c_q) - Q_{pq} at x = 2z (+ 2 zeta), so the
    block is built once per form and diagram in x, like the pair blocks.
    Polynomial: the denominator is 1."""
    n = omega.size
    basis = fusion_mod.fusion_operator(omega, form.N, box_cap=max(6, n)).module_basis
    one, size = Poly.const(1), basis.size
    if n <= 1:
        return BlockTerm(FrameBlock([np.eye(size, dtype=object)], _F1, one, (size,)), 0, 1)

    def build() -> FrameBlock:
        cont = column_tableau(omega).contents
        entries = two_leg_entries(-structural_ops(form)[1])
        chain = [(p, q, -(cont[p] + cont[q]), -1, entries)
                 for p in reversed(range(n)) for q in reversed(range(p))]
        frames, scale = restricted_chain(chain, basis, (form.N,) * n)
        return FrameBlock(frames, scale, one, (size,))

    return BlockTerm(_argument_block((form.key, omega, "S"), build), 2 * Fraction(z),
                     2 if shifted else 0)


def _s_fused_terms(Z: FusedModuleSpec, shifted: bool) -> list:
    """Ordered block terms of the fused S-matrix of Z, every parameter
    shifted by zeta if asked: for i descending, S_i, then R'_{i,j} for j
    descending."""
    terms = []
    for i in reversed(range(Z.ell)):
        terms.append((_elementary_s_term(Z.factors[i][0], Z.z(i), shifted, Z.form), (i,)))
        for j in reversed(range(i)):
            terms.append((_pair_term(Z, i, shifted, Z, j, shifted, "R'"), (i, j)))
    return terms


def _breve_r_terms(Z: FusedModuleSpec) -> list:
    ell = Z.ell
    return [(_pair_term(Z, i, True, Z, j, False, "Rb"), (i, ell + j))
            for i, j in _pair_order("Rb", ell, ell)]


def swz_terms(Z: FusedModuleSpec) -> list[tuple[BlockTerm, tuple[int, ...]]]:
    """Ordered block terms of S_{W,Z}(zeta) = breve-R'_{W,Z} . S_W . breve-R_{W,Z},
    W the zeta-shifted copy of Z.

    Slots 0..l-1 are the W factors, l..2l-1 the Z factors."""
    ell = Z.ell
    terms = [(_pair_term(Z, i, True, Z, j, False, "Rb'"), (i, ell + j))
             for i, j in _pair_order("Rb'", ell, ell)]
    return terms + _s_fused_terms(Z, True) + _breve_r_terms(Z)


def breve_r_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """Ordered frame blocks of breve-R_{W,Z}(zeta), W the zeta-shifted copy of Z."""
    return [(term.exact(), slots) for term, slots in _breve_r_terms(Z)]


def swz_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """The exact frame blocks of swz_terms."""
    return [(term.exact(), slots) for term, slots in swz_terms(Z)]


def block_product(blocks, dims) -> FrameBlock:
    """The ordered product of frame blocks, exactly, as one frame block on
    the legs ``dims``.

    The numerators multiply as exact-tail series, each block on its own
    slots (MatrixLaurentSeries.embedded), the scalar denominators as one
    Poly, and the content of the product frames moves into the scale.  A
    single block on every leg in order is its own product."""
    den = math.prod((fb.den for fb, _ in blocks), start=Poly.const(1))
    if len(blocks) == 1 and tuple(blocks[0][1]) == tuple(range(len(dims))):
        frames, scale = blocks[0][0].frames, blocks[0][0].scale
    else:
        acc = MatrixLaurentSeries.identity(math.prod(dims))
        for fb, slots in blocks:
            acc = acc @ MatrixLaurentSeries(0, fb.frames, fb.scale, exact_tail=True).embedded(slots, dims)
        frames, scale = acc.coeffs, acc.scale
    content = math.gcd(*(int(np.gcd.reduce(fr.ravel())) for fr in frames)) or 1
    return FrameBlock([fr // content for fr in frames], scale * content, den, tuple(dims))


def frame_product(blocks, dims) -> tuple[int, ScaledIntMatrix]:
    """Laurent order and exact leading coefficient at zeta = 0 of the
    ordered product of frame blocks.

    The denominators are scalars, so they are kept aside: the product is
    the product of the numerators, a polynomial matrix, over the product
    of the denominators.  Its order is the numerators' order minus the sum
    of the denominators' valuations, and its leading coefficient the
    numerators' lowest nonzero coefficient over the product of the
    denominators' lowest nonzero coefficients (FrameBlock.den_low, read off
    the linear factors of an exact block).

    The numerator product starts at the identity on the legs ``dims`` and
    multiplies each block in on its own slots (MatrixLaurentSeries.embedded),
    so no D x D block matrix is formed.  Blocks and product are known
    through ``window`` coefficients past their orders; the identity is
    padded with zero frames to the length of the numerator product, so a
    window that covers that length makes the product exact.  The window
    starts at 1 and doubles while cancellations eat the known ones."""
    lows = [fb.den_low() for fb, _ in blocks]
    low = math.prod(c for _, c in lows)
    D = math.prod(dims)
    length = 1 + sum(len(fb.frames) - 1 for fb, _ in blocks)
    one = MatrixLaurentSeries.identity(D).coeffs + [np.zeros((D, D), dtype=np.int64)] * (length - 1)
    window = 1
    while True:
        prod = MatrixLaurentSeries.from_frames(one, _F1, window)
        for fb, slots in blocks:
            block = MatrixLaurentSeries.from_frames(fb.frames, fb.scale, window)
            prod = prod @ block.embedded(slots, dims)
        try:
            prod = prod.trimmed()
        except _WindowExhausted:
            window *= 2
            continue
        coeff = prod.coefficient(prod.order)
        return prod.order - sum(v for v, _ in lows), ScaledIntMatrix(coeff, prod.scale / low)


def term_residue(terms, dims, p: int) -> tuple[int, np.ndarray]:
    """(o, R): R the numerator of the coefficient of zeta^o in the ordered
    product of block terms, modulo p, as float64 residues in (-p, p), and o
    the Laurent order that frame_product returns on their exact blocks
    whenever R is nonzero.

    Each numerator starts at its lowest nonzero frame k0, so the product's
    coefficient at sum k0 is the product of the lowest frames, and o is sum
    k0 minus the denominators' valuations; a residue nonzero mod p proves
    that coefficient nonzero.  Scales and the denominators' lowest
    coefficients are nonzero scalars, left out.  k0 and the lowest frame
    mod p come from the argument block (FrameBlock.residue); where it
    cannot tell them, R is zero, which proves nothing.

    The product starts at the identity, float64 residues on a row axis and
    one axis per leg; each lowest frame contracts its slots' axes, moved
    last (Van Loan 2000), in one mod_matmul."""
    D, legs = math.prod(dims), list(range(len(dims)))
    acc = np.eye(D).reshape(D, *dims)
    order = -sum(term.den.count(-term.t) for term, _ in terms)  # factors zero at y = 0
    for term, slots in terms:
        lowest = term.block.residue(term.t, term.s, p)
        if lowest is None:
            return order, np.zeros((D, D))
        k0, low = lowest
        order += k0
        moved = [leg for leg in legs if leg not in slots] + list(slots)
        acc = acc.transpose([0] + [1 + legs.index(leg) for leg in moved])
        acc, legs = mod_matmul(acc.reshape(-1, low.shape[0]), low, p).reshape(acc.shape), moved
    acc = acc.transpose([0] + [1 + legs.index(leg) for leg in range(len(dims))])
    return order, acc.reshape(D, D)


def ratfunc_product(blocks, dims) -> TensorOperator:
    """The ordered product of frame blocks as one dense matrix over
    RatFunc(zeta): the exact symbolic reference for frame_product."""
    out = TensorOperator.identity(dims)
    for fb, slots in blocks:
        out = out @ TensorOperator(embed_matrix(fb.ratfunc_matrix(), slots, dims), dims)
    return out


def breve_r_family_leading(Z: FusedModuleSpec):
    """Laurent order and exact leading coefficient matrix of the breve-R
    family of the shifted pair (W, Z) at zeta = 0."""
    order, coeff = frame_product(breve_r_frame_blocks(Z), Z.factor_dims + Z.factor_dims)
    return order, coeff.to_fractions()


def r_factorized(W: FusedModuleSpec, Z: FusedModuleSpec, kind: str) -> TensorOperator:
    """The R_{W,Z}-type operator of the given kind on W (x) Z: the ordered
    product of the pair blocks between factor i of W and factor j of Z, on
    slots (i, k + j) with k = W.ell, at zeta = 0."""
    if not form_equal(W.form, Z.form):
        raise DimensionMismatch("W and Z use different forms")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    k = W.ell
    blocks = [(_pair_term(W, i, False, Z, j, False, kind).exact(), (i, k + j))
              for i, j in _pair_order(kind, k, Z.ell)]
    return block_product(blocks, W.factor_dims + Z.factor_dims).at(0)


def s_elementary(omega: SkewDiagram, z, form: GForm) -> TensorOperator:
    """Twisted S-matrix of one elementary module: ordered product of R'
    factors over box pairs, restricted to the module."""
    return _elementary_s_term(omega, z, False, form).exact().at(0)


def s_fused(Z: FusedModuleSpec) -> TensorOperator:
    """The fused S-matrix of Z, from its ordered blocks at zeta = 0."""
    blocks = [(term.exact(), slots) for term, slots in _s_fused_terms(Z, False)]
    return block_product(blocks, Z.factor_dims).at(0)


# ---------------------------------------------------------------------------
# Yangian action and twisted-Yangian generator matrices

def _t_data(Z: FusedModuleSpec) -> FrameBlock:
    """T_Z(u) as polynomial coefficient frames over the scalar denominator
    prod_q (u - v_q), on the legs (N,) + factor dims; cached on Z.

    T_Z(u) is the product of the breve-R blocks between the auxiliary
    one-box module C^N(u) (one box at 0, shifted by u) and each factor j
    ascending, on slots (0, 1 + j)."""
    if Z._tdata is None:
        aux = FusedModuleSpec(Z.form, [(SkewDiagram((1,)), 0)])
        blocks = [(_pair_term(aux, 0, True, Z, j, False, "Rb").exact(), (0, 1 + j))
                  for j in range(Z.ell)]
        Z._tdata = block_product(blocks, (Z.N,) + Z.factor_dims)
    return Z._tdata


def t_action(Z: FusedModuleSpec) -> TensorOperator:
    """T_Z(u): operator on (auxiliary C^N) (x) Z with RatFunc(u) entries,
    the ordered product of single-box breve factors restricted per factor."""
    td = _t_data(Z)
    return TensorOperator(td.ratfunc_matrix(), td.dims)


@dataclass
class GeneratorMatrices:
    """rho[k][i][j]: the End(Z) matrix of the k-th generator coefficient."""

    K: int
    N: int
    dimZ: int
    rho: list  # rho[k][i][j] -> object ndarray (dimZ x dimZ)


def s_factors(Z: FusedModuleSpec, K: int) -> tuple[list, list, Fraction]:
    """(A, B, scale): the u^0, ..., u^-K coefficients of T(u) over one
    scale, from the integer T frames (FrameBlock.at_infinity), as integer
    matrices B_m, and A_m = (-1)^m B_m^t those of T^t(-u), int64 where
    certified: S_k = scale * sum_m A_m B_(k-m)."""
    B = _t_data(Z).at_infinity(K)
    int_form, c = _cleared_form(Z.form)
    dims = (Z.N,) + Z.factor_dims
    A = [transposed(Bm.mat, dims, {1}, int_form) * (-1) ** m for m, Bm in enumerate(B)]
    return A, [Bm.mat for Bm in B], c * B[0].scale ** 2


def s_sums(factors, p: int | None = None):
    """Yield S_0, ..., S_K from s_factors, each formed when drawn by one
    product [A_0 ... A_k] [B_k; ...; B_0]: exactly as ScaledIntMatrix, or
    with a prime p its integer matrix mod p as float64 residues in (-p, p)
    (mod_matmul), since all its products share the scale."""
    A, B, scale = factors
    if p is not None:
        A, B = ([(X % p).astype(np.float64) for X in Y] for Y in (A, B))
    Acat, D = np.hstack(A), len(B[0])
    for k in range(len(B)):
        left, right = Acat[:, :(k + 1) * D], np.vstack(B[k::-1])
        yield mod_matmul(left, right, p) if p else ScaledIntMatrix(left, scale) @ ScaledIntMatrix(right)


def s_coefficients(Z: FusedModuleSpec, K: int):
    """Yield the u^0, u^-1, ..., u^-K coefficients of S_Z(u) = T^t(-u) T(u)
    as ScaledIntMatrix, each built only when drawn (s_sums)."""
    return s_sums(s_factors(Z, K))


def s_generators(Z: FusedModuleSpec, K: int) -> GeneratorMatrices:
    """S_Z(u) expanded at infinity to order K: the coefficients of
    s_coefficients as Fraction blocks rho[k][i][j]."""
    if K < 1:
        raise MalformedInput(f"K must be >= 1, got {K}")
    N, dZ = Z.N, Z.dimZ
    S4s = (Sk.to_fractions().reshape(N, dZ, N, dZ) for Sk in s_coefficients(Z, K))
    rho = [[[S4[i, :, j, :] for j in range(N)] for i in range(N)] for S4 in S4s]
    return GeneratorMatrices(K=K, N=N, dimZ=dZ, rho=rho)


def _cleared_form(form: GForm) -> tuple[GForm, Fraction]:
    """g and g^-1 cleared to integers, int64 where certified, and the scale c with
    (true transposition) = c * (transposition of the cleared form)."""
    g, sg = to_int_scaled(form.g)
    g_inv, sgi = to_int_scaled(form.g_inv)
    g, g_inv = (certified(X, max_abs(X)) for X in (g, g_inv))
    return GForm(form.kind, form.N, g, g_inv), sg * sgi


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


def _aux(diag, X: np.ndarray, scale: Fraction) -> np.ndarray:
    """diag * 1 + scale * X on the two auxiliary legs (X an integer N^2 x N^2
    matrix) times the lcm of the denominators of diag and scale, int64 when
    it and its sums fit; a stack for an array of diag, each with its own lcm.
    R(u-v) = (u-v) - P and R'(u+v) = -(u+v) - Q are such matrices, and both
    sides of a relation are linear in each, so the factor keeps equality."""
    diag = np.asarray(diag)
    if diag.dtype == object:
        qs = [Fraction(q) for q in diag.flat]
        lcms = [math.lcm(q.denominator, scale.denominator) for q in qs]
        a, b = (np.array(c, dtype=object).reshape(diag.shape) for c in (
            [q.numerator * (L // q.denominator) for q, L in zip(qs, lcms)],
            [scale.numerator * (L // scale.denominator) for L in lcms]))
    else:
        a, b = diag * scale.denominator, np.array(scale.numerator)
    top = (max_abs(a) + max_abs(b) * max_abs(X)) * X.size
    a, b = (certified(c, top)[..., None, None] for c in (a, b))
    return np.eye(len(X), dtype=a.dtype) * a + certified(X, top) * b


def _blocked(mat: np.ndarray, N: int, d: int) -> np.ndarray:
    """An integer (N d) x (N d) matrix, or each of a stack, as its (N, N, d, d)
    array of d x d blocks, in int64 when its entries fit.  The sampler hands
    in T(u0) and S(u0) only up to nonzero scalars (denominators cleared,
    contents divided out); every defining relation is homogeneous of degree
    one in each sampled matrix, so equality of the sides, over Z or modulo
    the primes of a residue kernel, is unaffected."""
    blocks = np.ascontiguousarray(mat.reshape(mat.shape[:-2] + (N, d, N, d)).swapaxes(-3, -2))
    return certified(blocks, max_abs(blocks))


# Float64 entries of each of the three work buffers of a relation check,
# N^4 d^2 per sample pair: the largest multiple of 2^14 below two dim-18
# pairs, so dims 18 and 27 go one pair at a time (larger batches ran no
# faster) and dim 9 7 pairs, the smaller modules more.
_RELATION_ELEMENTS = 49152


def _reduced(X, p, scratch):
    """X mod p, in place with the buffer scratch; X itself when p is None."""
    return X if p is None else reduce_mod(X, p, scratch)


def _agree(lhs, rhs, p, diff) -> np.ndarray:
    """Per pair of the leading axis: lhs as [rows, columns] == rhs as
    [columns, rows], over Z (p None) or mod p; lhs and diff are overwritten."""
    c, n2 = lhs.shape[:2]
    rhs = rhs.reshape(c, n2, n2, -1).swapaxes(1, 2)
    diff = np.subtract(lhs.reshape(rhs.shape), rhs, out=diff.reshape(rhs.shape))
    return ~_reduced(diff, p, lhs.reshape(rhs.shape)).reshape(c, -1).any(axis=1)


def _rtt_sides(A, B, Rm, p, work):
    c, n2 = len(A), A.shape[1] ** 2
    W0, W1, W2 = (w[:A.size * n2].reshape(A.shape[:3] + A.shape[1:]) for w in work)
    np.matmul(A[:, :, None, :, None], B[:, None, :, None, :], out=W0)  # Tu[a, k] Tv[b, l]
    lhs = np.matmul(Rm, _reduced(W0, p, W1).reshape(c, n2, -1), out=W1.reshape(c, n2, -1))
    # Tv[y, j] Tu[x, i] at [i, j, x, y]
    np.matmul(B.swapaxes(1, 2)[:, None, :, None, :], A.swapaxes(1, 2)[:, :, None, :, None], out=W0)
    rhs = np.matmul(Rm.swapaxes(1, 2), _reduced(W0, p, W2).reshape(c, n2, -1),
                    out=W2.reshape(c, n2, -1))
    return _agree(lhs, rhs, p, W0)


def _reflection_sides(A, B, Rm, Rq, p, work):
    c, n2 = len(A), A.shape[1] ** 2
    W0, W1, W2 = (w[:A.size * n2].reshape(A.shape[:3] + A.shape[1:]) for w in work)
    At, Bt = A.swapaxes(1, 2), B.swapaxes(1, 2)
    np.matmul(At[:, :, None, :, None], B[:, None, :, None, :], out=W0)  # Su[i, a] Sv[dd, l]
    X = np.matmul(Rq, _reduced(W0, p, W1).reshape(c, n2, -1), out=W1.reshape(c, n2, -1))
    W0[...] = X.reshape(W0.shape).transpose(0, 3, 1, 2, 4, 5, 6)  # X at [i, b, c, l]
    lhs = np.matmul(Rm, W0.reshape(c, n2, -1), out=W2.reshape(c, n2, -1))
    np.matmul(Bt[:, :, None, :, None], A[:, None, :, None, :], out=W0)  # Sv[j, b] Su[c, k]
    Y = np.matmul(Rq.swapaxes(1, 2), _reduced(W0, p, W1).reshape(c, n2, -1),
                  out=W1.reshape(c, n2, -1))
    W0[...] = Y.reshape(W0.shape).transpose(0, 4, 2, 1, 3, 5, 6)  # Y at [k, dd, a, j]
    rhs = np.matmul(Rm.swapaxes(1, 2), W0.reshape(c, n2, -1), out=W1.reshape(c, n2, -1))
    return _agree(lhs, rhs, p, W0)


def _decide(samples, auxes, sides):
    """One bool per pair of the batch, the broadcast leading axes of two
    (..., N, N, d, d) sample stacks and of integer (..., N^2, N^2) auxes, or
    one bool without them.  With weight the product of the sums |aux|, the
    pairs whose bounds max|a| max|b| d weight (int64 where the largest fits)
    need the same kernels (kernel_moduli) share those of the largest bound;
    each kernel converts the sample stacks once.  A pair fails when a kernel
    sees its sides differ, and later kernels skip it.  ``sides`` takes
    _RELATION_ELEMENTS // (N^4 d^2) pairs, at least one, at a time."""
    samples, auxes = [A[None] for A in samples], [R[None] for R in auxes]
    N, d = samples[0].shape[-4], samples[0].shape[-1]
    shape = np.broadcast_shapes(*(A.shape[:-4] for A in samples), *(R.shape[:-2] for R in auxes))
    a, b = (np.abs(A).reshape(A.shape[:-4] + (-1,)).max(axis=-1) for A in samples)
    sums = [np.abs(R).sum(axis=(-2, -1)) for R in auxes]
    top = d * math.prod(max(max_abs(X), 1) for X in [a, b] + sums)
    a, b, *sums = (certified(X, top) for X in [a, b] + sums)
    weights = math.prod(sums)
    bounds = np.broadcast_to(a * b * weights * d, shape).ravel()
    weight = int(weights.max())
    levels, at = np.unique(bounds, return_inverse=True)
    keys = np.array([len(kernel_moduli(int(b), d, weight)) for b in levels])[at]
    auxes = [np.broadcast_to(R.astype(np.float64), shape + R.shape[-2:]) for R in auxes]
    step = max(1, _RELATION_ELEMENTS // (N**4 * d * d))
    work = np.empty((3, step * N**4 * d * d))
    ok = np.ones(len(bounds), dtype=bool)
    for group in (keys == key for key in np.unique(keys)):
        for arrays, p in float_kernels(samples, int(bounds[group].max()), d, weight):
            arrays = [np.broadcast_to(A, shape + A.shape[-4:]) for A in arrays]
            live = np.flatnonzero(ok & group)
            for k in range(0, len(live), step):
                at = np.unravel_index(live[k:k + step], shape)
                ok[live[k:k + step]] = sides(*(X[at] for X in arrays + auxes), p, work)
            if not (ok & group).any():
                break
    return ok.reshape(shape)[0] if len(shape) > 1 else bool(ok[0])


def _rtt_holds(Tu, Tv, R: np.ndarray):
    """R(u-v) T_1(u) T_2(v) = T_2(v) T_1(u) R(u-v) on the (..., N, N, d, d)
    integer blocks of T(u) and T(v), with R the integer (..., N^2, N^2)
    matrices of R(u-v): one bool per sample pair of the broadcast leading
    axes, or one bool when there are none (_decide).

    T_1(u) T_2(v) is the stack Tu[a, k] Tv[b, l] at [a, b, k, l], so lhs is
    R applied to its first two axes; T_2(v) T_1(u) is the stack
    Tv[y, j] Tu[x, i] at [i, j, x, y], so rhs, with its column pair first,
    is R^T (a swap of the last two axes only) applied to its first two axes.
    Both sides, and every partial sum, are at most
    max|Tu| * max|Tv| * d * sum|R|, the bound of the kernels."""
    return _decide((Tu, Tv), (R,), _rtt_sides)


def _reflection_holds(Su, Sv, R: np.ndarray, Rp: np.ndarray):
    """R S_1(u) R' S_2(v) = S_2(v) R' S_1(u) R on the (..., N, N, d, d)
    integer blocks of S(u) and S(v), with R(u-v) and R'(u+v) integer
    (..., N^2, N^2) matrices: one bool per sample pair, as in _rtt_holds.

    R' is read as the matrix Rq[(b, c), (a, dd)] = R'[(a, b), (c, dd)].
    X = S_1(u) R' S_2(v) is Rq applied to the stack Su[i, a] Sv[dd, l] at
    [a, dd, i, l], then one axis transpose; lhs is R applied to X as in
    _rtt_holds.  Y = S_2(v) R' S_1(u) is Rq^T applied to the stack
    Sv[j, b] Su[c, k] at [b, c, j, k], then one axis transpose; rhs is R^T
    applied to Y, with its column pair first.  Both sides and every partial
    sum are at most max|Su| * max|Sv| * d * sum|R| * sum|R'|, the weight
    sum|R| * sum|R'| from the two coefficient stages."""
    Rq = np.moveaxis(Rp.reshape(Rp.shape[:-2] + (Su.shape[-4],) * 4), -4, -2).reshape(Rp.shape)
    return _decide((Su, Sv), (R, Rq), _reflection_sides)


def _sample_grid(size: int, poles) -> list[Fraction]:
    """The ``size`` integers nearest 0 that are not in ``poles``, in the
    order 0, 1, -1, 2, -2, ...: small points keep the sampled values short."""
    near_zero = (Fraction(s * k) for k in itertools.count() for s in ((1, -1) if k else (1,)))
    return list(itertools.islice((q for q in near_zero if q not in poles), size))


def _relation_samples(Z: FusedModuleSpec, points, iu, iv):
    """(Ts, Ss, R, Rp): T(u0) and S(u0) = T^t(-u0) T(u0), each up to its own
    nonzero scalar, as block stacks over the points (_blocked), and R(u-v)
    and R'(u+v) (_aux) of the pairs (points[iu], points[iv]).  T is one
    evaluation at the points and their negatives (FrameBlock.at_ints), S one
    transposition of the T(-u0) stack by the cleared g and g^-1 and one
    batched product."""
    N, d = Z.N, Z.dimZ
    (P, sp), (Q, sq) = (to_int_scaled(X.mat) for X in structural_ops(Z.form))
    signed = points + [-q for q in points]
    at = {x: k for k, x in enumerate(dict.fromkeys(signed))}
    Tu, Tm = np.split(_t_data(Z).at_ints(list(at))[[at[x] for x in signed]], 2)
    S = primitive_part(int_matmul(transposed(Tm, (N, d), {1}, _cleared_form(Z.form)[0]), Tu))
    vals = np.array([q.numerator if q.denominator == 1 else q for q in points], dtype=object)
    if all(q.denominator == 1 for q in points):  # on the grid, R and R' are int64 stacks
        vals = certified(vals, 2 * max_abs(vals) * sp.denominator * sq.denominator)
    u, v = vals[iu], vals[iv]
    return _blocked(Tu, N, d), _blocked(S, N, d), _aux(u - v, P, -sp), _aux(-(u + v), Q, -sq)


def check_defining_relations(Z: FusedModuleSpec, samples=None) -> RelationReport:
    """RTT and the reflection relation on Z, exactly, at a grid of rational
    points whose size beats the degree bound 2n+2 per variable (so agreement
    is an identity of rational functions); user-supplied samples are checked
    as given, with per-sample pole reporting.

    The grid is _sample_grid(2n+3, poles); the pole set is symmetric, so S
    is defined at each point.  _relation_samples samples every point and
    pair at once, and one _rtt_holds and one _reflection_holds call decide
    all pairs, for the grid as an outer product."""
    bound = 2 * Z.n_total + 2
    poles = {s * p for p in Z.all_box_params() for s in (1, -1)}
    singular = []
    if samples is None:
        points = _sample_grid(bound + 1, poles)
        iu, iv = (slice(None), None), (None, slice(None))  # every pair, as views
    else:
        pairs = [(Fraction(u), Fraction(v)) for (u, v) in samples]
        singular = [{"u": str(u0), "v": str(v0), "error": "SingularParameter: sample at a pole"}
                    for (u0, v0) in pairs if u0 in poles or v0 in poles]
        pairs = [pair for pair in pairs if not poles.intersection(pair)]
        points = list(dict.fromkeys(q for pair in pairs for q in pair))
        iu, iv = (np.array([points.index(pair[k]) for pair in pairs], dtype=int) for k in (0, 1))
    us, vs = np.broadcast_arrays(*(np.array(points, dtype=object)[i] for i in (iu, iv)))
    rtt_ok = refl_ok = np.ones(us.shape, dtype=bool)
    if points:
        Ts, Ss, R, Rp = _relation_samples(Z, points, iu, iv)
        rtt_ok = _rtt_holds(Ts[iu], Ts[iv], R)
        refl_ok = _reflection_holds(Ss[iu], Ss[iv], R, Rp)
    rtt_fail, refl_fail = (
        [(str(u0), str(v0)) for u0, v0, good in zip(us.flat, vs.flat, ok.flat) if not good]
        for ok in (rtt_ok, refl_ok))
    return RelationReport(
        spec=Z.spec_string(),
        degree_bound=bound,
        rtt_checked=us.size,
        rtt_failures=rtt_fail,
        reflection_checked=us.size,
        reflection_failures=refl_fail,
        singular_samples=singular,
        proven=samples is None and not rtt_fail and not refl_fail,
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


def duality_check(omega: SkewDiagram, z, form: GForm) -> DualityReport:
    """The contragredient-module identity: for generator instances h,
    rho_sharp(h) F_sharp = sigma_hat (rho(tau(h)) F)^t sigma_hat,
    with h the u^0..u^-K coefficients of the tautological single-box
    action, K = max(1, 2n)."""
    N = form.N
    z = Fraction(z)
    n = omega.size
    K = max(1, 2 * n)
    if n == 0:
        return DualityReport(omega, N, form.kind, z, K, [])
    F = fusion_mod.fusion_operator(omega, N)
    sh_dia, c_shift = sharp(omega)
    Fs = fusion_mod.fusion_operator(sh_dia, N)
    z_sharp = -z - c_shift
    cont = column_tableau(omega).contents
    cont_s = column_tableau(sh_dia).contents

    # tautological (descending) products at the two evaluation tuples
    t_sharp = [z_sharp + cont_s[n - p] for p in range(1, n + 1)]
    t_tau = [-(z + cont[n - p]) for p in range(1, n + 1)]
    U_sharp = fusion_mod.defining_action_product(t_sharp, N)
    U_tau = fusion_mod.defining_action_product(t_tau, N)

    dims = (N,) * (n + 1)
    # on integer matrices and their scales: F and F_sharp are cleared once,
    # and the true transposition of legs 2..n+1 is c^n times the one by the
    # cleared form
    (F_int, sF), (Fs_int, sFs) = (to_int_scaled(op.matrix.mat) for op in (F, Fs))
    one = np.eye(N, dtype=int).astype(object)
    Fe, Fse = np.kron(one, F_int), np.kron(one, Fs_int)
    int_form, c = _cleared_form(form)
    legs = set(range(2, n + 2))
    rev = reversal_index(N, 1, n)  # sigma_hat on legs 2..n+1

    def conj(X: np.ndarray) -> np.ndarray:
        return X[np.ix_(rev, rev)]

    failures = []
    for k, (Cs, Ct) in enumerate(zip(U_sharp.at_infinity(K), U_tau.at_infinity(K))):
        # L_k = sL * L and R_k = sR * R, compared exactly across the scales
        L, sL = int_matmul(conj(Cs.mat), Fse), Cs.scale * sFs
        R = conj(transposed(int_matmul(conj(transposed(Ct.mat, dims, legs, int_form)), Fe),
                                dims, legs, int_form))
        sR = Ct.scale * sF * c ** (2 * n)
        if not np.array_equal(L.astype(object) * (sL.numerator * sR.denominator),
                              R.astype(object) * (sR.numerator * sL.denominator)):
            failures.append(k)
    return DualityReport(omega, N, form.kind, z, K, failures)
