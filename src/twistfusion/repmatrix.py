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

import functools
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
    SingularParameter,
)
from .exactnum import parse_rational
from .linalg import (
    ScaledIntMatrix,
    block_ranks_mod_p,
    certified,
    float_kernels,
    int64_certified,
    int_matmul,
    kernel_counts,
    mat_equal,
    max_abs,
    mod_matmul,
    primitive_part,
    reduce_mod,
    support_blocks,
    to_int_scaled,
)
from .tensor import (
    Basis,
    FrameBlock,
    GForm,
    MatrixLaurentSeries,
    TensorOperator,
    _WindowExhausted,
    contraction_map_matrix,
    minus_flip_entries,
    restricted_chain,
    reversal_index,
    structural_ops,
    transposed,
    two_leg_entries,
)

_F1 = Fraction(1)

KINDS = ("R", "R'", "Rb", "Rb'")


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
        self._fusion = self._dims = None
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
        if self._dims is None:
            self._dims = tuple(self.fusion(i).dim for i in range(self.ell))
        return self._dims

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

    def poles(self) -> set[Fraction]:
        """The poles of S(u): every box parameter and its negative."""
        return {s * p for p in self.all_box_params() for s in (1, -1)}

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
# variable over a scalar denominator kept as its linear factors

def _pair_order(kind: str, nA: int, nB: int) -> list[tuple[int, int]]:
    """Factor order of a block of the given kind, leftmost first: p
    descending; q ascending for R and breve-R, descending for the primed."""
    qs = range(nB) if kind in ("R", "Rb") else range(nB - 1, -1, -1)
    return [(p, q) for p in reversed(range(nA)) for q in qs]


# The numerator blocks in their own argument, keyed by form, diagrams and
# kind, and the witness plans, keyed by form and diagrams (witness_plan),
# least recently used first; they hold at most _BLOCK_ENTRIES entries in all
# (_held of them now): a block its frame entries, a plan its frame residues
# for one prime and its gather indices.  A larger one is built but not kept.
# A plan keeps its residues for each prime it has seen, and they go with it.
_BLOCK_ENTRIES = 2**20
_blocks: OrderedDict = OrderedDict()
_held = 0


def _entries(item) -> int:
    if isinstance(item, WitnessPlan):
        return item.entries
    return sum(fr.size for fr in item.frames)


def _cached(key, build):
    """The cached block or plan of ``key``, made by ``build`` on a miss."""
    global _held
    item = _blocks.get(key)
    if item is not None:
        _blocks.move_to_end(key)
        return item
    item = build()
    if _entries(item) <= _BLOCK_ENTRIES:
        _blocks[key] = item
        _held += _entries(item)
        while _held > _BLOCK_ENTRIES:
            _held -= _entries(_blocks.popitem(last=False)[1])
    return item


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

    def at_ints(self, ys) -> np.ndarray:
        """The term at each point y of ``ys`` over its content, stacked: the
        cached block at x = t + s*y (FrameBlock.at_ints, shifted by t), a
        positive multiple of the term's value there.  SingularParameter where
        a factor (t + e) + s*y = x + e of den vanishes."""
        xs = ys if self.s == 1 else [self.s * y for y in ys]
        return self.block.at_ints(xs, self.t, tuple((e, 1) for e in self.den))


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
        return FrameBlock(frames, scale, (), (A.basis(i).size, B.basis(j).size))

    key = (B.form.key, A.factors[i][0], B.factors[j][0], kind)
    return BlockTerm(_cached(key, build), t, s, tuple(e) if breve else ())


def _elementary_s_term(omega: SkewDiagram, z, shifted: bool, form: GForm) -> BlockTerm:
    """S of one elementary module: the ordered product of the R' factors
    -(v_p + v_q) - Q_{pq} over box pairs (p descending, q descending below
    p) with v_p = z + c_p (+ zeta if shifted), restricted to the module.

    Each factor is -(x + c_p + c_q) - Q_{pq} at x = 2z (+ 2 zeta), so the
    block is built once per form and diagram in x, like the pair blocks.
    Polynomial: the denominator is 1."""
    n = omega.size
    basis = fusion_mod.fusion_operator(omega, form.N, box_cap=max(6, n)).module_basis
    size = basis.size
    t, s = 2 * Fraction(z), 2 if shifted else 0
    if n <= 1:  # constant: the identity at every x
        return BlockTerm(FrameBlock([np.eye(size, dtype=object)], _F1, (), (size,)), t, s)

    def build() -> FrameBlock:
        cont = column_tableau(omega).contents
        entries = two_leg_entries(-structural_ops(form)[1])
        chain = [(p, q, -(cont[p] + cont[q]), -1, entries)
                 for p in reversed(range(n)) for q in reversed(range(p))]
        frames, scale = restricted_chain(chain, basis, (form.N,) * n)
        return FrameBlock(frames, scale, (), (size,))

    return BlockTerm(_cached((form.key, omega, "S"), build), t, s)


def _s_fused_plan(ell: int, shifted: bool) -> list:
    """The blocks of the fused S-matrix of ell factors, every parameter
    shifted by zeta if asked, in order: for i descending, S_i, then R'_{i,j}
    for j descending; each as (kind, i, j, shifts, slots), kind "S" for
    S_i (with j = i)."""
    both = (shifted, shifted)
    return [entry for i in reversed(range(ell))
            for entry in [("S", i, i, both, (i,))] + [("R'", i, j, both, (i, j))
                                                     for j in reversed(range(i))]]


def _breve_r_plan(ell: int) -> list:
    return [("Rb", i, j, (True, False), (i, ell + j)) for i, j in _pair_order("Rb", ell, ell)]


@functools.cache
def _swz_plan(ell: int) -> list:
    """The blocks of S_{W,Z}(zeta) = breve-R'_{W,Z} . S_W . breve-R_{W,Z}, as
    in _s_fused_plan; slots 0..l-1 are the W factors, l..2l-1 the Z factors."""
    return ([("Rb'", i, j, (True, False), (i, ell + j)) for i, j in _pair_order("Rb'", ell, ell)]
            + _s_fused_plan(ell, True) + _breve_r_plan(ell))


def _plan_terms(Z: FusedModuleSpec, plan) -> list[tuple[BlockTerm, tuple[int, ...]]]:
    """The (block term, slots) of the entries of a plan, on factors of Z."""
    return [(_elementary_s_term(Z.factors[i][0], Z.z(i), shifts[0], Z.form) if kind == "S"
             else _pair_term(Z, i, shifts[0], Z, j, shifts[1], kind), slots)
            for kind, i, j, shifts, slots in plan]


def swz_terms(Z: FusedModuleSpec) -> list[tuple[BlockTerm, tuple[int, ...]]]:
    """Ordered block terms of S_{W,Z}(zeta), W the zeta-shifted copy of Z
    (_swz_plan).  No swz block is singular: every breve one has shift 1."""
    return _plan_terms(Z, _swz_plan(Z.ell))


def swz_frame_blocks(Z: FusedModuleSpec) -> list[tuple[FrameBlock, tuple[int, ...]]]:
    """The exact frame blocks of swz_terms."""
    return [(term.exact(), slots) for term, slots in swz_terms(Z)]


def block_product(blocks, dims) -> FrameBlock:
    """The ordered product of frame blocks, exactly, as one frame block on
    the legs ``dims``.

    The numerators multiply as exact-tail series, each block on its own
    slots (MatrixLaurentSeries.embedded), the denominators' factors are
    joined, and the content of the product frames moves into the scale.  A
    single block on every leg in order is its own product."""
    den = sum((fb.den for fb, _ in blocks), ())
    if len(blocks) == 1 and tuple(blocks[0][1]) == tuple(range(len(dims))):
        frames, scale = blocks[0][0].frames, blocks[0][0].scale
    else:
        acc = MatrixLaurentSeries.identity(math.prod(dims))
        for fb, slots in blocks:
            acc = acc @ MatrixLaurentSeries(0, fb.frames, fb.scale, exact_tail=True).embedded(slots, dims)
        frames, scale = acc.coeffs, acc.scale
    content = math.gcd(*(int(np.gcd.reduce(fr.ravel())) for fr in frames)) or 1
    return FrameBlock([fr // content for fr in frames], scale * content, den, tuple(dims))


def frame_product(blocks, dims, window: int = 1) -> tuple[int, ScaledIntMatrix]:
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
    starts at ``window`` and doubles while cancellations eat the known
    ones; the result does not depend on where it starts."""
    lows = [fb.den_low() for fb, _ in blocks]
    low = math.prod(c for _, c in lows)
    D = math.prod(dims)
    length = 1 + sum(len(fb.frames) - 1 for fb, _ in blocks)
    one = MatrixLaurentSeries.identity(D).coeffs + [np.zeros((D, D), dtype=np.int64)] * (length - 1)
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


class WitnessPlan:
    """What the residue witness of one shape (form and diagrams) needs that
    does not depend on the point, built once (witness_plan).

    ``terms`` are the ordered (BlockTerm, slots) of a product on the legs
    ``dims``, W's then Z's; per point only each term's t changes, z_i +
    sign z_j for its (i, j, sign) of ``pairs`` (arguments).  A call takes a
    stack of points in four steps:

    1. the t of every term at every point (arguments);
    2. one mod_matmul of the power rows of all terms with the
       block-diagonal stack of the terms' frame residues, kept per prime:
       the lowest frame of every term at every point (residues);
    3. the leg contractions, each term's slots moved last along permutations
       made here (Van Loan 2000);
    4. one gather of the contraction phi into the certified blocks and their
       elimination mod p (ranks).

    The blocks are the connected components of a support that holds every
    point's: the product of the terms' unions of frame supports (each
    lowest frame is a combination of its block's frames), contracted.  So
    every phi is block-diagonal on them and its rank is the sum of theirs.
    Each block is gathered by its rows' and columns' offsets into the
    residue, padded with -1 (``block_rows``, ``block_cols``)."""

    def __init__(self, terms, dims, pairs=()):
        self.dims, self.D = tuple(dims), math.prod(dims)
        self.blocks = [term.block for term, _ in terms]
        self.slopes = [term.s for term, _ in terms]
        self.dens = [term.den for term, _ in terms]
        self.pairs = list(dict.fromkeys(pairs))
        self._pair_of = [self.pairs.index(pair) for pair in pairs]
        k0 = [fb.low for fb in self.blocks]
        # each row of the power rows: its term, and the powers of a and b in
        # a^k b^(deg - k)
        self._row_term, self._row_k, self._row_dk = np.array(
            [(t, k, len(fb.frames) - 1 - k) for t, fb in enumerate(self.blocks)
             for k in range(len(fb.frames))], dtype=np.int64).reshape(-1, 3).T
        # k0 at every point for a constant block, and at t = 0 for a sloped one
        self._const, self._sloped = np.array(
            [(k is not None and len(fb.frames) == 1, k is not None and len(fb.frames) > 1 and s)
             for fb, k, s in zip(self.blocks, k0, self.slopes)], dtype=bool).reshape(-1, 2).T
        self._k0 = np.array([k or 0 for k in k0], dtype=np.int64)
        self._cols = np.array([0, *itertools.accumulate(fb.frames[0].size for fb in self.blocks)])
        self._mod: dict = {}
        legs, self._steps = list(range(len(dims))), []
        for (_, slots), fb in zip(terms, self.blocks):
            moved = [leg for leg in legs if leg not in slots] + list(slots)
            self._steps.append(([0, 1] + [2 + legs.index(leg) for leg in moved], len(fb.frames[0])))
            legs = moved
        self._final = [0, 1] + [2 + legs.index(leg) for leg in range(len(dims))]
        # the product of the 0/1 unions of frame supports counts paths, so it
        # is positive exactly on their product's support (an overflow could
        # only add entries)
        unions = {id(fb): (np.stack(fb.frames) != 0).any(axis=0) for fb in self.blocks}
        support = self._contract([unions[id(fb)] for fb in self.blocks], np.matmul)[0]
        dZ = math.prod(self.dims[len(dims) // 2:])
        self.block_rows, self.block_cols = support_blocks(contraction_map_matrix(support, dZ, dZ))
        rows, cols = self.block_rows, self.block_cols
        D = self.D
        self._row_at = np.where(rows < 0, 0, rows // dZ * D + rows % dZ)
        self._col_at = np.where(cols < 0, 0, cols % dZ * dZ * D + cols // dZ * dZ)
        self.entries = len(self._row_term) * int(self._cols[-1]) + rows.size + cols.size

    def _contract(self, lows, product) -> np.ndarray:
        """The ordered product of the terms' (P, m, m) or (m, m) ``lows`` on
        their slots, from the identity, each by ``product``, as (P, D, D)."""
        acc = np.eye(self.D).reshape((1, self.D) + self.dims)
        for (perm, m), low in zip(self._steps, lows):
            acc = acc.transpose(perm)
            shape = acc.shape[1:]
            acc = product(acc.reshape(len(acc), -1, m), low)
            acc = acc.reshape((len(acc),) + shape)
        return acc.transpose(self._final).reshape(-1, self.D, self.D)

    def arguments(self, Z: FusedModuleSpec) -> list[Fraction]:
        """The t of each term at Z."""
        z = [q for _, q in Z.factors]
        vals = [z[i] - z[j] if sign < 0 else z[i] + z[j] for i, j, sign in self.pairs]
        return [vals[k] for k in self._pair_of]

    def _frames_mod(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The block-diagonal stack of the terms' frames mod p, one row per
        frame and one column range per term, and the power row of the
        sloped terms at t = 0 (s^k0 at k0), made when first read."""
        if p not in self._mod:
            F = np.zeros((len(self._row_term), self._cols[-1]))
            at0 = np.zeros(len(self._row_term))
            residues = {id(fb): np.stack(fb.frames).reshape(len(fb.frames), -1) % p
                        for fb in self.blocks}
            row = 0
            for t, fb in enumerate(self.blocks):
                F[row:row + len(fb.frames), self._cols[t]:self._cols[t + 1]] = residues[id(fb)]
                if self._sloped[t]:
                    at0[row + self._k0[t]] = pow(self.slopes[t], int(self._k0[t]), p)
                row += len(fb.frames)
            self._mod[p] = F, at0
        return self._mod[p]

    def residues(self, ts, p: int) -> tuple[list[int], np.ndarray]:
        """(o, R) at each of the P points of ``ts``, each the t of every term
        (arguments): R the numerator of the coefficient of zeta^o in the
        product, modulo p, as float64 residues in (-p, p), stacked (P, D, D),
        and o the Laurent order that frame_product returns on the exact
        blocks whenever R is nonzero.

        Each numerator starts at its lowest nonzero frame k0, so the
        product's coefficient at sum k0 is the product of the lowest frames,
        and o is sum k0 minus the denominators' valuations; a residue
        nonzero mod p proves that coefficient nonzero.  Scales and the
        denominators' lowest coefficients are nonzero scalars, left out.

        A term's lowest frame is frame k0 of its block for a constant block,
        s^k0 times it at t = 0 for a block of slope s != 0, and otherwise
        frame 0 of the substituted block, the homogenised Horner sum at t =
        a/b, sum_k frames[k] a^k b^(deg - k), known to be the lowest only
        where its residue is nonzero.  Where it is zero the residue is zero,
        which proves nothing, and o stops at the term before."""
        P, T, D = len(ts), len(self.blocks), self.D
        F, at0_row = self._frames_mod(p)
        flat = [t for row in ts for t in row]
        base = np.array([[t.numerator % p for t in flat], [t.denominator % p for t in flat]],
                        dtype=np.int64).reshape(2, P, T)
        at0 = np.array([not t for t in flat], dtype=bool).reshape(P, T) & self._sloped
        powers = np.ones((2, P, T, int(self._row_k.max(initial=0)) + 1), dtype=np.int64)
        for k in range(1, powers.shape[-1]):
            powers[..., k] = powers[..., k - 1] * base % p
        rows = (powers[0][:, self._row_term, self._row_k]
                * powers[1][:, self._row_term, self._row_dk] % p)
        rows = np.where(at0[:, self._row_term], at0_row, rows)
        L = mod_matmul(rows, F, p)
        fixed = self._const | at0
        told = np.logical_or.reduceat(L != 0, self._cols[:-1], axis=1)
        alive = np.logical_and.accumulate(fixed | told, axis=1)
        valuation = [sum(den.count(-t.numerator) for t, den in zip(row, self.dens)
                         if den and t.denominator == 1) for row in ts]
        orders = ((np.where(fixed, self._k0, 0) * alive).sum(axis=1) - valuation).tolist()
        if T and not alive[:, -1].any():
            return orders, np.zeros((P, D, D))
        lows = [L[:, a:b].reshape(P, m, m)
                for a, b, (_, m) in zip(self._cols[:-1], self._cols[1:], self._steps)]
        R = self._contract(lows, lambda X, low: mod_matmul(X, low, p))
        return orders, R if len(R) == P else np.repeat(R, P, axis=0)

    def ranks(self, R: np.ndarray, p: int) -> list[int]:
        """The rank mod p of the contraction phi of each residue of the
        (P, D, D) stack R: its certified blocks gathered by their offsets
        (phi at (z1 z2, w' w) is R at (w z1, w' z2)), the pads zeroed, and
        eliminated together (block_ranks_mod_p)."""
        P, (G, m), n = len(R), self.block_rows.shape, self.block_cols.shape[1]
        if not G:
            return [0] * P
        S = R.reshape(P, -1)[:, self._row_at[:, :, None] + self._col_at[:, None, :]]
        S *= (self.block_rows >= 0)[:, :, None] & (self.block_cols >= 0)[:, None, :]
        return block_ranks_mod_p(S.reshape(P * G, m, n), p).reshape(P, G).sum(axis=1).tolist()


def witness_plan(Z: FusedModuleSpec) -> WitnessPlan:
    """The WitnessPlan of Z's shape for S_{W,Z}(zeta) (swz_terms) on the legs
    of W (x) Z, kept in _blocks: t is z_i - z_j for breve R (W_i against
    Z_j) and z_i + z_j for the primed kinds and S_i (2 z_i)."""
    pairs = [(i, j, -1 if kind == "Rb" else 1) for kind, i, j, _, _ in _swz_plan(Z.ell)]
    key = (Z.form.key, tuple(d for d, _ in Z.factors))
    return _cached(key, lambda: WitnessPlan(swz_terms(Z), Z.factor_dims * 2, pairs))


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
    blocks = [(term.exact(), slots) for term, slots in _plan_terms(Z, _s_fused_plan(Z.ell, False))]
    return block_product(blocks, Z.factor_dims).at(0)


# ---------------------------------------------------------------------------
# Yangian action and twisted-Yangian generator matrices

def _t_data(Z: FusedModuleSpec) -> FrameBlock:
    """T_Z(u) as polynomial coefficient frames over the denominator factors
    u - v_q, one per box, on the legs (N,) + factor dims; cached on Z.

    T_Z(u) is the product of the breve-R blocks between the auxiliary
    one-box module C^N(u) (one box at 0, shifted by u) and each factor j
    ascending, on slots (0, 1 + j).  Only s_factors and t_action build it."""
    if Z._tdata is None:
        aux = _form_parts(Z.form).aux
        blocks = [(_pair_term(aux, 0, True, Z, j, False, "Rb").exact(), (0, 1 + j))
                  for j in range(Z.ell)]
        Z._tdata = block_product(blocks, (Z.N,) + Z.factor_dims)
    return Z._tdata


def _t_samples(Z: FusedModuleSpec, us) -> np.ndarray:
    """T_Z(u0) at each point u0 of ``us``, as the (P, N d, N d) stack of
    primitive integer matrices _t_data(Z).at_ints(us) gives, with no
    symbolic work per spec.

    Each factor's breve-R block with C^N(u) is the cached block G_j at x =
    u0 - z_j over its linear factors, so one at_ints call of its term
    (BlockTerm.at_ints) takes it at every point, a positive multiple of
    the factor's value.  The factors multiply on slots (0, 1 + j) in
    _t_data's order, one batched integer product per factor: the product so
    far, on the legs (N, X) with X the factors before j, has its column aux
    index moved last and meets G_j's row aux index.  Positive multiples of
    T(u0) over their contents are equal, so this is _t_data's value."""
    aux, P, N = _form_parts(Z.form).aux, len(us), Z.N
    acc = None
    for j, dj in enumerate(Z.factor_dims):
        G = _pair_term(aux, 0, True, Z, j, False, "Rb").at_ints(us)
        if acc is None:
            acc = G
            continue
        X = acc.shape[-1] // N
        left = acc.reshape(P, N, X, N, X).transpose(0, 1, 2, 4, 3).reshape(P, -1, N)
        prod = int_matmul(left, G.reshape(P, N, -1)).reshape(P, N, X, X, dj, N, dj)
        acc = primitive_part(prod.transpose(0, 1, 2, 4, 5, 3, 6).reshape(P, N * X * dj, -1))
    if acc is None:  # no factors: T(u) = 1 on C^N
        acc = np.broadcast_to(np.eye(N, dtype=np.int64), (P, N, N))
    return acc


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
    certified: S_k = scale * sum_m A_m B_(k-m).  The B_m are transposed
    in one call on their stack.  Only s_coefficients reads them."""
    B = _t_data(Z).at_infinity(K)
    int_form, c = _cleared_form(Z.form)
    mats = np.stack([Bm.mat for Bm in B])
    signs = np.array([(-1) ** m for m in range(len(B))])[:, None, None]
    A = transposed(mats, (Z.N,) + Z.factor_dims, {1}, int_form) * signs
    return list(A), list(mats), c * B[0].scale ** 2


def s_coefficients(Z: FusedModuleSpec, K: int):
    """Yield the u^0, u^-1, ..., u^-K coefficients of S_Z(u) = T^t(-u) T(u)
    as ScaledIntMatrix, each formed when drawn by one product [A_0 ... A_k]
    [B_k; ...; B_0] of s_factors, for s_generators and commutant_dim."""
    A, B, scale = s_factors(Z, K)
    Acat, D = np.hstack(A), len(B[0])
    for k in range(len(B)):
        yield ScaledIntMatrix(Acat[:, :(k + 1) * D], scale) @ ScaledIntMatrix(np.vstack(B[k::-1]))


def s_generators(Z: FusedModuleSpec, K: int) -> GeneratorMatrices:
    """S_Z(u) expanded at infinity to order K: the coefficients of
    s_coefficients as Fraction blocks rho[k][i][j]."""
    if K < 1:
        raise MalformedInput(f"K must be >= 1, got {K}")
    N, dZ = Z.N, Z.dimZ
    S4s = (Sk.to_fractions().reshape(N, dZ, N, dZ) for Sk in s_coefficients(Z, K))
    rho = [[[S4[i, :, j, :] for j in range(N)] for i in range(N)] for S4 in S4s]
    return GeneratorMatrices(K=K, N=N, dimZ=dZ, rho=rho)


class _FormParts(NamedTuple):
    """What T(u), S(u) and the relation check read of one form, made once
    (_form_parts): the one-box module C^N(u) at 0, the flip P and Q =
    (t (x) id)(P) cleared to integers with their scales, and g and g^-1
    cleared to integers with the scale c of the transposition
    (_cleared_form)."""

    aux: FusedModuleSpec
    P: np.ndarray
    sp: Fraction
    Q: np.ndarray
    sq: Fraction
    cleared: GForm
    c: Fraction


# _FormParts, and the grid's R and R' stacks (_aux_stacks), keyed by form.key
# (kind, N and g, so a form over another g keeps its own), at most
# _FORM_ENTRIES of each, least recently used first.
_FORM_ENTRIES = 64
_forms: OrderedDict = OrderedDict()
_grid_auxes: OrderedDict = OrderedDict()


def _kept(cache: OrderedDict, key, build):
    """cache[key], made by ``build`` on a miss, the least recent entry
    dropped past _FORM_ENTRIES; its arrays are read-only, as every call
    shares them."""
    item = cache.get(key)
    if item is not None:
        cache.move_to_end(key)
        return item
    item = cache[key] = build()
    for X in item:
        if isinstance(X, np.ndarray):
            X.flags.writeable = False
    if len(cache) > _FORM_ENTRIES:
        cache.popitem(last=False)
    return item


def _form_parts(form: GForm) -> _FormParts:
    """The _FormParts of ``form``, made on its first use (_kept)."""
    def build() -> _FormParts:
        (P, sp), (Q, sq) = (to_int_scaled(X.mat) for X in structural_ops(form))
        (g, sg), (g_inv, sgi) = (to_int_scaled(X) for X in (form.g, form.g_inv))
        g, g_inv = (certified(X, max_abs(X)) for X in (g, g_inv))
        aux = FusedModuleSpec(form, [(SkewDiagram((1,)), 0)])
        return _FormParts(aux, P, sp, Q, sq, GForm(form.kind, form.N, g, g_inv), sg * sgi)

    return _kept(_forms, form.key, build)


def _cleared_form(form: GForm) -> tuple[GForm, Fraction]:
    """g and g^-1 cleared to integers, int64 where certified, and the scale c with
    (true transposition) = c * (transposition of the cleared form); made
    once per form (_form_parts)."""
    parts = _form_parts(form)
    return parts.cleared, parts.c


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
    """Per pair of the leading axes, flattened: lhs as [rows, columns] ==
    rhs as [columns, rows], over Z (p None) or mod p; lhs and diff are
    overwritten."""
    n2 = lhs.shape[-2]
    rhs = rhs.reshape(-1, n2, n2, lhs.shape[-1] // n2).swapaxes(1, 2)
    diff = np.subtract(lhs.reshape(rhs.shape), rhs, out=diff.reshape(rhs.shape))
    return ~_reduced(diff, p, lhs.reshape(rhs.shape)).reshape(len(rhs), -1).any(axis=1)


# The largest block size d at which _block_pairs stacks each pair's blocks:
# there one product of the stacked blocks and one transpose took 0.4-0.8
# times the time of the N^4 products of d x d blocks (2-vCPU Xeon VM, numpy
# 2.4), and 1.2-1.6 times at d = 6, 9, 18 and 27.
_STACKED_D = 4


def _block_pairs(L, R, out, swap=False):
    """out[..., p, q, r, s] = L[..., p, r] @ R[..., q, s], or with ``swap``
    L[..., q, s] @ R[..., p, r], for (..., N, N, d, d) block stacks L and R
    broadcast over the leading axes of out.  Up to d = _STACKED_D one
    product per pair of all of L's block rows with all of R's block columns,
    [(a, b, x), (c, e, y)] = (L[a, b] @ R[c, e])[x, y], and one transpose
    into out; above it N^4 products of d x d blocks written in place."""
    N, d = L.shape[-4], L.shape[-1]
    if d > _STACKED_D:
        L = L[..., None, :, None, :, :, :] if swap else L[..., :, None, :, None, :, :]
        R = R[..., :, None, :, None, :, :] if swap else R[..., None, :, None, :, :, :]
        np.matmul(L, R, out=out)
        return
    M = np.matmul(L.reshape(L.shape[:-4] + (N * N * d, d)),
                  R.swapaxes(-2, -3).swapaxes(-3, -4).reshape(R.shape[:-4] + (d, N * N * d)))
    k = M.ndim - 2
    axes = (3, 0, 4, 1, 2, 5) if swap else (0, 3, 1, 4, 2, 5)
    out[...] = M.reshape(M.shape[:k] + (N, N, d, N, N, d)).transpose(
        tuple(range(k)) + tuple(k + i for i in axes))


def _rtt_sides(A, B, Rm, p, work):
    W0, W1, W2 = work
    N = A.shape[-4]
    flat = W0.shape[:-6] + (N * N, -1)
    _block_pairs(A, B, W0)  # Tu[a, k] Tv[b, l]
    lhs = np.matmul(Rm, _reduced(W0, p, W1).reshape(flat), out=W1.reshape(flat))
    # Tv[y, j] Tu[x, i] at [i, j, x, y]
    _block_pairs(B.swapaxes(-4, -3), A.swapaxes(-4, -3), W0, swap=True)
    rhs = np.matmul(Rm.swapaxes(-1, -2), _reduced(W0, p, W2).reshape(flat), out=W2.reshape(flat))
    return _agree(lhs, rhs, p, W0)


def _reflection_sides(A, B, Rm, Rq, p, work):
    W0, W1, W2 = work
    N, L = A.shape[-4], W0.ndim - 6
    flat, keep = W0.shape[:L] + (N * N, -1), tuple(range(L))

    def legs(*order):  # W0's axes with its four aux legs in this order
        return keep + tuple(L + k for k in order) + (L + 4, L + 5)

    At, Bt = A.swapaxes(-4, -3), B.swapaxes(-4, -3)
    _block_pairs(At, B, W0)  # Su[i, a] Sv[dd, l]
    X = np.matmul(Rq, _reduced(W0, p, W1).reshape(flat), out=W1.reshape(flat))
    W0[...] = X.reshape(W0.shape).transpose(legs(2, 0, 1, 3))  # X at [i, b, c, l]
    lhs = np.matmul(Rm, _reduced(W0, p, W2).reshape(flat), out=W2.reshape(flat))
    _block_pairs(Bt, A, W0)  # Sv[j, b] Su[c, k]
    Y = np.matmul(Rq.swapaxes(-1, -2), _reduced(W0, p, W1).reshape(flat), out=W1.reshape(flat))
    W0[...] = Y.reshape(W0.shape).transpose(legs(3, 1, 0, 2))  # Y at [k, dd, a, j]
    rhs = np.matmul(Rm.swapaxes(-1, -2), _reduced(W0, p, W1).reshape(flat), out=W1.reshape(flat))
    return _agree(lhs, rhs, p, W0)


def _side_bounds(samples, auxes) -> tuple[np.ndarray, np.ndarray]:
    """For each pair of the broadcast leading axes of two (..., N, N, d, d)
    integer sample stacks a, b and integer (..., N^2, N^2) auxes, a bound on
    lhs and one on rhs of its relation, each also on every partial sum of
    that side, int64 where the largest fits.

    lhs multiplies each d x d block of a by one of b, then applies each aux
    in turn, so each of its values is a sum of terms whose absolute values
    sum to at most r_a m_b R_1 R_2 ...: r_a the largest row sum of |a|
    within its blocks, m_b = max|b| and R_k the largest row sum of |aux k|.
    rhs multiplies the blocks the other way round and applies the
    transposed auxes, so its bound is r_b m_a C_1 C_2 ..., C_k the largest
    column sum of |aux k|.  A partial sum is at most the sum of the absolute
    values of its terms, and the final one is the side.  Every factor and
    product is at most the product over a, b and the auxes of max|X| times
    the length of a row of X, which certifies their dtype."""
    tops = []

    def absolute(X):  # |X|, on Python ints where a row or column sum could wrap
        Y = np.abs(X)
        tops.append(int(Y.max(initial=0)) * X.shape[-1])
        return Y if int64_certified(tops[-1]) else Y.astype(object)

    def largest(X, k):  # over the last k axes
        return X.reshape(X.shape[:X.ndim - k] + (-1,)).max(axis=-1)

    (a, b), auxes = (absolute(X) for X in samples), [absolute(X) for X in auxes]
    sides = ([largest(a.sum(axis=-1), 3), largest(b, 4)]
             + [largest(R.sum(axis=-1), 1) for R in auxes],
             [largest(b.sum(axis=-1), 3), largest(a, 4)]
             + [largest(R.sum(axis=-2), 1) for R in auxes])
    top = math.prod(tops)
    return tuple(math.prod(certified(X, top) for X in side) for side in sides)


def _decide(samples, auxes, sides):
    """One bool per pair of the batch, the broadcast leading axes of two
    (..., N, N, d, d) sample stacks and of integer (..., N^2, N^2) auxes, or
    one bool without them.  Each pair's kernels are those of float_kernels
    at its bound, the larger of its sides' (_side_bounds), chosen for all
    pairs in one step (kernel_counts); the pairs that need the same kernels
    share those of their largest bound, and each kernel converts the sample
    and aux stacks once.  In a residue kernel the sides reduce every factor before a
    product, so each value reduced is a sum of at most max(d, 2 N^2)
    products of two residues: d in a sample product, 2 N^2 in lhs - rhs
    after the aux products; the primes depend on N and d alone.  A pair
    fails when a kernel sees its sides differ, and later kernels skip it.
    ``sides`` takes _RELATION_ELEMENTS // (N^4 d^2) pairs, at least one, at
    a time: every pair at once, as the broadcast stacks, when they fit."""
    samples, auxes = [A[None] for A in samples], [R[None] for R in auxes]
    N, d = samples[0].shape[-4], samples[0].shape[-1]
    shape = np.broadcast_shapes(*(A.shape[:-4] for A in samples), *(R.shape[:-2] for R in auxes))
    bounds = np.broadcast_to(np.maximum(*_side_bounds(samples, auxes)), shape).ravel()
    inner = max(d, 2 * N * N)
    counts = kernel_counts(bounds, inner)
    n, step = len(bounds), max(1, _RELATION_ELEMENTS // (N**4 * d * d))
    buffers = np.empty((3, min(step, n) * N**4 * d * d))

    def work(lead):  # the buffers as (lead..., N, N, N, N, d, d) arrays
        return [w[:math.prod(lead) * N**4 * d * d].reshape(lead + (N,) * 4 + (d, d))
                for w in buffers]

    ok = np.ones(n, dtype=bool)
    trail = [4] * len(samples) + [2] * len(auxes)  # the matrix axes of each stack
    for group in (counts == count for count in np.unique(counts)):
        for arrays, p in float_kernels(samples + auxes, int(bounds[group].max()), inner):
            live = np.flatnonzero(ok & group)
            if len(live) == n <= step:
                ok[:] = sides(*arrays, p, work(shape))
            else:
                arrays = [np.broadcast_to(X, shape + X.shape[-k:]) for X, k in zip(arrays, trail)]
                for k in range(0, len(live), step):
                    chunk = live[k:k + step]
                    at = np.unravel_index(chunk, shape)
                    ok[chunk] = sides(*(X[at] for X in arrays), p, work((len(chunk),)))
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
    So lhs and every partial sum of it are at most the largest row sum of
    |Tu| within its blocks times max|Tv| times the largest row sum of |R|,
    and rhs the same with Tu and Tv swapped and a column sum of |R|: the
    bounds of the kernels (_side_bounds)."""
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
    applied to Y, with its column pair first.  So lhs and every partial sum
    of it are at most the largest block row sum of |Su| times max|Sv| times
    the largest row sums of |Rq| and |R|, from the two coefficient stages,
    and rhs the same with Su and Sv swapped and column sums: the bound of
    the kernels (_side_bounds)."""
    Rq = np.moveaxis(Rp.reshape(Rp.shape[:-2] + (Su.shape[-4],) * 4), -4, -2).reshape(Rp.shape)
    return _decide((Su, Sv), (R, Rq), _reflection_sides)


def _sample_grid(size: int, poles) -> list[Fraction]:
    """The ``size`` integers nearest 0 that are not in ``poles``, in the
    order 0, 1, -1, 2, -2, ...: small points keep the sampled values short."""
    near_zero = (s * k for k in itertools.count() for s in ((1, -1) if k else (1,)))
    integer_poles = {q.numerator for q in poles if q.denominator == 1}
    return [Fraction(k) for k in itertools.islice(
        (k for k in near_zero if k not in integer_poles), size)]


# every pair (u, v) of the grid, as views: check_defining_relations' pairs,
# whose R and R' stacks are kept (_aux_stacks)
_GRID = ((slice(None), None), (None, slice(None)))


def _aux_stacks(form: GForm, points, iu, iv) -> tuple[np.ndarray, np.ndarray]:
    """R(u-v) and R'(u+v) (_aux) of the pairs (points[iu], points[iv]); the
    grid's, every pair of integer points (_GRID), kept per form and grid."""
    parts = _form_parts(form)

    def build():
        vals = np.array([q.numerator if q.denominator == 1 else q for q in points], dtype=object)
        if all(q.denominator == 1 for q in points):  # on the grid, R and R' are int64 stacks
            vals = certified(vals, 2 * max_abs(vals) * parts.sp.denominator * parts.sq.denominator)
        u, v = vals[iu], vals[iv]
        return _aux(u - v, parts.P, -parts.sp), _aux(-(u + v), parts.Q, -parts.sq)

    if iu is _GRID[0] and iv is _GRID[1] and all(q.denominator == 1 for q in points):
        return _kept(_grid_auxes, (form.key, tuple(q.numerator for q in points)), build)
    return build()


def s_samples(Z: FusedModuleSpec, points) -> tuple[np.ndarray, np.ndarray]:
    """(T, S): T(u0) and S(u0) = T^t(-u0) T(u0) at the points u0, none a
    pole, each up to its own nonzero scalar, as (P, N d, N d) primitive
    integer stacks: T at the points and their negatives from one
    _t_samples call, S by one transposition of the T(-u0) stack by the
    cleared g and g^-1 and one batched product."""
    N, d = Z.N, Z.dimZ
    signed = points + [-q for q in points]
    at = {(x.numerator, x.denominator): x for x in signed}  # each point once, by its integers
    index = {key: k for k, key in enumerate(at)}
    T = _t_samples(Z, list(at.values()))[[index[x.numerator, x.denominator] for x in signed]]
    Tu, Tm = T[:len(points)], T[len(points):]
    return Tu, primitive_part(int_matmul(transposed(Tm, (N, d), {1}, _cleared_form(Z.form)[0]), Tu))


def _relation_samples(Z: FusedModuleSpec, points, iu, iv):
    """(Ts, Ss, R, Rp): s_samples as block stacks (_blocked), and R(u-v) and
    R'(u+v) of the pairs (points[iu], points[iv]) (_aux_stacks)."""
    N, d = Z.N, Z.dimZ
    T, S = s_samples(Z, points)
    return (_blocked(T, N, d), _blocked(S, N, d)) + _aux_stacks(Z.form, points, iu, iv)


def _failed_pairs(ok: np.ndarray, points, iu, iv) -> list[tuple[str, str]]:
    """(u, v) as strings at each pair (points[iu], points[iv]) where ``ok``
    is False, in order."""
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return []
    us, vs = np.broadcast_arrays(*(np.arange(len(points))[i] for i in (iu, iv)))
    return [(str(points[us.flat[k]]), str(points[vs.flat[k]])) for k in bad]


def check_defining_relations(Z: FusedModuleSpec, samples=None) -> RelationReport:
    """RTT and the reflection relation on Z, exactly, at a grid of rational
    points whose size beats the degree bound 2n+2 per variable (so agreement
    is an identity of rational functions); user-supplied samples are checked
    as given, with per-sample pole reporting.

    The grid is _sample_grid(2n+3, Z.poles()); the pole set is symmetric,
    so S is defined at each point.  _relation_samples samples every point and
    pair at once, and one _rtt_holds and one _reflection_holds call decide
    all pairs, for the grid as an outer product."""
    bound = 2 * Z.n_total + 2
    poles = Z.poles()
    singular = []
    if samples is None:
        points = _sample_grid(bound + 1, poles)
        iu, iv = _GRID
    else:
        pairs = [(Fraction(u), Fraction(v)) for (u, v) in samples]
        singular = [{"u": str(u0), "v": str(v0), "error": "SingularParameter: sample at a pole"}
                    for (u0, v0) in pairs if u0 in poles or v0 in poles]
        pairs = [pair for pair in pairs if not poles.intersection(pair)]
        points = list(dict.fromkeys(q for pair in pairs for q in pair))
        iu, iv = (np.array([points.index(pair[k]) for pair in pairs], dtype=int) for k in (0, 1))
    rtt_ok = refl_ok = np.ones(0, dtype=bool)
    if points:
        Ts, Ss, R, Rp = _relation_samples(Z, points, iu, iv)
        rtt_ok = _rtt_holds(Ts[iu], Ts[iv], R)
        refl_ok = _reflection_holds(Ss[iu], Ss[iv], R, Rp)
    rtt_fail, refl_fail = (_failed_pairs(ok, points, iu, iv) for ok in (rtt_ok, refl_ok))
    return RelationReport(
        spec=Z.spec_string(),
        degree_bound=bound,
        rtt_checked=rtt_ok.size,
        rtt_failures=rtt_fail,
        reflection_checked=refl_ok.size,
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
