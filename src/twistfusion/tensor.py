"""Exact operators on tensor product spaces.

Leg convention: leg 1 is the leftmost (slowest-varying) tensor index in
row-major vectorization; an operator on legs of dimensions ``dims`` is a
square object-dtype matrix of size ``prod(dims)``.  Entries are Fractions,
Python ints, or RatFunc values, uniformly per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInvariant,
)
from .exactnum import Poly, RatFunc
from .linalg import ScaledIntMatrix, fzeros, feye, generic_dot, is_zero_matrix, mat_equal

_F0 = Fraction(0)
_F1 = Fraction(1)


def _prod(xs) -> int:
    return math.prod(xs) if xs else 1


# ---------------------------------------------------------------------------
# bilinear form

@dataclass(frozen=True)
class GForm:
    """The matrix g defining the transposition A -> g A^T g^-1.

    kind "so" requires g symmetric, "sp" skew-symmetric with even N.
    """

    kind: str
    N: int
    g: np.ndarray = field(compare=False)
    g_inv: np.ndarray = field(compare=False)

    @staticmethod
    def orthogonal(N: int) -> "GForm":
        return GForm("so", N, feye(N), feye(N))

    @staticmethod
    def symplectic(N: int) -> "GForm":
        if N % 2 != 0:
            raise DimensionMismatch("symplectic form requires even N")
        g = fzeros((N, N))
        h = N // 2
        for i in range(h):
            g[i, i + h] = _F1
            g[i + h, i] = -_F1
        return GForm("sp", N, g, -g)  # J^-1 = -J for this block form

    @staticmethod
    def from_matrix(g_rows) -> "GForm":
        g = np.array([[Fraction(v) for v in row] for row in g_rows], dtype=object)
        N = g.shape[0]
        if g.shape != (N, N):
            raise DimensionMismatch("g must be square")
        rank, _ = linalg.bareiss_pivots(g)
        if rank != N:
            raise DimensionMismatch("g must be non-degenerate")
        if mat_equal(g.T, g):
            kind = "so"
        elif mat_equal(g.T, -g):
            kind = "sp"
            if N % 2 != 0:
                raise DimensionMismatch("skew-symmetric g requires even N")
        else:
            raise DimensionMismatch("g must be symmetric or skew-symmetric")
        return GForm(kind, N, g, linalg._invert_fraction(g))

    @staticmethod
    def default(kind: str, N: int) -> "GForm":
        return GForm.orthogonal(N) if kind == "so" else GForm.symplectic(N)


# ---------------------------------------------------------------------------
# operators

class TensorOperator:
    """Square exact matrix with a tuple of leg dimensions."""

    __slots__ = ("mat", "dims")

    def __init__(self, mat: np.ndarray, dims):
        dims = tuple(int(d) for d in dims)
        D = _prod(dims)
        if mat.shape != (D, D):
            raise DimensionMismatch(f"matrix {mat.shape} incompatible with legs {dims}")
        self.mat = mat
        self.dims = dims

    @classmethod
    def identity(cls, dims) -> "TensorOperator":
        return cls(feye(_prod(tuple(dims))), dims)

    @property
    def size(self) -> int:
        return self.mat.shape[0]

    @property
    def n_legs(self) -> int:
        return len(self.dims)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        if self.size != other.size:
            raise DimensionMismatch("operator sizes differ")
        return TensorOperator(generic_dot(self.mat, other.mat), self.dims)

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.mat + other.mat, self.dims)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.mat - other.mat, self.dims)

    def __mul__(self, c) -> "TensorOperator":
        return TensorOperator(self.mat * c, self.dims)

    __rmul__ = __mul__

    def __neg__(self) -> "TensorOperator":
        return TensorOperator(-self.mat, self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self.dims == other.dims and mat_equal(self.mat, other.mat)

    def map_entries(self, fn) -> "TensorOperator":
        out = np.empty(self.mat.shape, dtype=object)
        for idx, v in np.ndenumerate(self.mat):
            out[idx] = fn(v)
        return TensorOperator(out, self.dims)

    def eval_ratfuncs(self, a: Fraction) -> "TensorOperator":
        """Evaluate RatFunc entries at a point; numeric entries pass through."""
        return self.map_entries(lambda v: v.eval(a) if isinstance(v, RatFunc) else v)

    def as_tensor(self) -> np.ndarray:
        return self.mat.reshape(self.dims + self.dims)

    def to_json(self) -> dict:
        """Row-major entries as rational strings (numeric matrices only)."""
        return {
            "dims": list(self.dims),
            "entries": [[str(Fraction(v)) for v in row] for row in self.mat],
        }

    def __repr__(self):
        return f"TensorOperator(dims={self.dims}, size={self.size})"


def flip(d: int) -> TensorOperator:
    """The flip of C^d (x) C^d."""
    mat = fzeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            mat[a * d + b, b * d + a] = _F1
    return TensorOperator(mat, (d, d))


def structural_ops(form: GForm) -> tuple[TensorOperator, TensorOperator]:
    """The flip P and Q = (t (x) id)(P) on two legs of dimension N."""
    cached = getattr(form, "_pq", None)
    if cached is None:
        P = flip(form.N)
        cached = (P, transpose_legs(P, {1}, form))
        object.__setattr__(form, "_pq", cached)
    return cached


def permutation_op(perm, N: int) -> TensorOperator:
    """Matrix moving leg k's content to position perm(k) (1-indexed images).

    With this convention the map sigma -> sigma_hat is a group homomorphism.
    """
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise IndexOutOfRange(f"not a permutation of 1..{n}: {perm}")
    dims = (N,) * n
    D = _prod(dims)
    digits = np.unravel_index(np.arange(D), dims)
    new_digits = [None] * n
    for k in range(n):
        new_digits[perm[k] - 1] = digits[k]
    target = np.ravel_multi_index(tuple(new_digits), dims)
    mat = fzeros((D, D))
    mat[target, np.arange(D)] = _F1
    return TensorOperator(mat, dims)


def reversal_op(n: int, N: int) -> TensorOperator:
    """sigma_hat_n for the order-reversing permutation i -> n+1-i."""
    return permutation_op([n + 1 - i for i in range(1, n + 1)], N)


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
    dims = tuple(dims)
    mat = embed_matrix(block.mat, slots, dims)
    return TensorOperator(mat, dims)


def _slot_rest_index(slots, dims) -> np.ndarray:
    """global_of[slot_code, rest_code] -> flat index in prod(dims)."""
    dims = tuple(dims)
    n = len(dims)
    slots = tuple(slots)
    rest = tuple(i for i in range(n) if i not in slots)
    D = _prod(dims)
    digits = np.unravel_index(np.arange(D), dims) if n else ()
    sdims = tuple(dims[s] for s in slots)
    rdims = tuple(dims[r] for r in rest)
    scode = (
        np.ravel_multi_index(tuple(digits[s] for s in slots), sdims)
        if slots
        else np.zeros(D, dtype=np.int64)
    )
    rcode = (
        np.ravel_multi_index(tuple(digits[r] for r in rest), rdims)
        if rest
        else np.zeros(D, dtype=np.int64)
    )
    out = np.empty((_prod(sdims), _prod(rdims)), dtype=np.int64)
    out[scode, rcode] = np.arange(D)
    return out


def embed_matrix(block: np.ndarray, slots, dims, zero=_F0) -> np.ndarray:
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


def transpose_legs(A: TensorOperator, legs, form: GForm) -> TensorOperator:
    """Apply x -> g x^T g^-1 on the selected legs (1-indexed set)."""
    legs = sorted(set(int(l) for l in legs))
    n = A.n_legs
    for l in legs:
        if not 1 <= l <= n:
            raise IndexOutOfRange(f"leg {l} outside 1..{n}")
        if A.dims[l - 1] != form.N:
            raise DimensionMismatch("transposed leg dimension differs from form size")
    if not legs:
        return TensorOperator(A.mat.copy(), A.dims)
    T = A.as_tensor()
    axes = list(range(2 * n))
    for l in legs:
        k = l - 1
        axes[k], axes[n + k] = axes[n + k], axes[k]
    T = np.transpose(T, axes)
    g_id = mat_equal(form.g, feye(form.N))
    if not g_id:
        for l in legs:
            k = l - 1
            T = np.moveaxis(np.tensordot(form.g, T, axes=([1], [k])), 0, k)
            T = np.moveaxis(np.tensordot(T, form.g_inv, axes=([n + k], [0])), -1, n + k)
    return TensorOperator(T.reshape(A.size, A.size), A.dims)


# ---------------------------------------------------------------------------
# bases, images, restriction

class Basis:
    """List of linearly independent coordinate vectors in an ambient space."""

    __slots__ = ("ambient", "vectors", "_matrix", "_solver")

    def __init__(self, ambient: int, vectors):
        self.ambient = ambient
        self.vectors = [np.asarray(v, dtype=object).reshape(-1) for v in vectors]
        for v in self.vectors:
            if v.shape[0] != ambient:
                raise DimensionMismatch("basis vector has wrong length")
        self._matrix = None
        self._solver = None

    @property
    def size(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.vectors:
                self._matrix = np.stack(self.vectors, axis=1)
            else:
                self._matrix = np.empty((self.ambient, 0), dtype=object)
        return self._matrix

    def solver(self) -> linalg.BasisSolver:
        if self._solver is None:
            self._solver = linalg.BasisSolver(self.matrix())
        return self._solver

    @staticmethod
    def full(ambient: int) -> "Basis":
        return Basis(ambient, [feye(ambient)[:, j] for j in range(ambient)])

    @staticmethod
    def kron(b1: "Basis", b2: "Basis") -> "Basis":
        vecs = [np.kron(v1, v2) for v1 in b1.vectors for v2 in b2.vectors]
        return Basis(b1.ambient * b2.ambient, vecs)


def image_basis(A: TensorOperator) -> Basis:
    """Basis of the column space (original pivot columns, fraction-free pivoting)."""
    rank, pivots = linalg.bareiss_pivots(A.mat)
    return Basis(A.size, [A.mat[:, c].copy() for c in pivots])


def restrict(A: TensorOperator, domain: Basis, codomain: Basis, dims=None) -> TensorOperator:
    """Matrix of A in the given bases; NotInvariant if A leaves the codomain span."""
    rhs = generic_dot(A.mat, domain.matrix())
    X = codomain.solver().solve(rhs)
    if X is None:
        raise NotInvariant("operator does not map domain span into codomain span")
    if domain.size != codomain.size:
        raise DimensionMismatch("restriction of a square operator needs equal basis sizes")
    return TensorOperator(X, dims if dims is not None else (domain.size,))


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


def contraction_map_matrix(M: np.ndarray, dimW: int, dimZ: int) -> np.ndarray:
    """Matrix of A -> Tr_W((A (x) 1) M) as a map End(W) -> End(Z).

    Row index (z1, z2), column index (w', w); pure reindexing of M.
    """
    T = M.reshape(dimW, dimZ, dimW, dimZ)
    return np.transpose(T, (1, 3, 2, 0)).reshape(dimZ * dimZ, dimW * dimW)


# ---------------------------------------------------------------------------
# factor chains: ordered products of (a + b*zeta) * 1 + two-leg operators

def two_leg_entries(op2: TensorOperator) -> list[tuple[int, int, int, int, object]]:
    """Nonzero entries ((a,b),(c,d),value) of a 2-leg operator."""
    N = op2.dims[0]
    out = []
    for r in range(N * N):
        for c in range(N * N):
            v = op2.mat[r, c]
            if v != 0:
                out.append((r // N, r % N, c // N, c % N, v))
    return out


def apply_factor_chain(V: np.ndarray, dims, chain) -> list[np.ndarray]:
    """Coefficient frames of F_1 F_2 ... F_m V in zeta, lowest degree first.

    Each factor (p, q, a, b, entries) of ``chain`` (leftmost first) is
    (a + b*zeta) * 1 + X_{p,q}, X the two-leg operator on the 0-indexed legs
    p, q given by its nonzero entries (r_p, r_q, c_p, c_q, value).  V has one
    row per basis vector of the legs ``dims``; the factors act right to left
    as row operations.  a and the values may be scalars or RatFuncs, b is a
    scalar, and a factor with b = 0 adds no frame.
    """
    dims = tuple(dims)
    rows = np.arange(_prod(dims))
    digits = np.unravel_index(rows, dims)
    frames = [V]
    for (p, q, a, b, entries) in reversed(chain):
        sp, sq = _prod(dims[p + 1:]), _prod(dims[q + 1:])
        moves = []
        for (rp, rq, cp, cq, val) in entries:
            tgt = rows[(digits[p] == rp) & (digits[q] == rq)]
            moves.append((tgt, tgt + (cp - rp) * sp + (cq - rq) * sq, val))
        out = []
        for k in range(len(frames) + (b != 0)):
            if k < len(frames):
                fr = frames[k]
                term = fr.copy() if a == 1 else fr * a
                for tgt, src, val in moves:
                    term[tgt] += val * fr[src]
                if b != 0 and k >= 1:
                    term += b * frames[k - 1]
            else:
                term = b * frames[k - 1]
            out.append(term)
        frames = out
    return frames


def restricted_chain(chain, basis: Basis, dims) -> list[np.ndarray]:
    """Frames of the chain's operator in ``basis``, whose span it must map
    into itself (NotInvariant otherwise); see apply_factor_chain.

    The kernel runs on integers: it starts from the cleared basis matrix
    B_int = B / s and multiplies each factor by the lcm L of its rational
    denominators, which scales the solved frames by prod(L) / s; they are
    multiplied by s / prod(L) at the end."""
    solver = basis.solver()
    V, scale = solver.B_int, solver.B_scale
    cleared = []
    for (p, q, a, b, entries) in chain:
        vals = [a, b] + [e[4] for e in entries]
        L = math.lcm(*(getattr(v, "denominator", 1) for v in vals))
        scale /= L
        cleared.append((p, q, _times(a, L), _times(b, L),
                        [(rp, rq, cp, cq, _times(v, L)) for (rp, rq, cp, cq, v) in entries]))
    out = []
    for fr in apply_factor_chain(V, dims, cleared):
        X = solver.solve(fr)
        if X is None:
            raise NotInvariant("factor chain does not preserve the basis span")
        out.append(X if scale == 1 else X * scale)
    return out


def _times(v, L: int):
    """v * L, as a Python int when that is an integral Fraction."""
    w = v * L
    return w.numerator if isinstance(w, Fraction) and w.denominator == 1 else w


# ---------------------------------------------------------------------------
# matrix-valued Laurent series around 0 in one deformation variable

class MatrixLaurentSeries:
    """coeffs[k] is the exact coefficient of t^(order+k).

    ``exact_tail`` means every higher coefficient is exactly zero; otherwise
    the expansion is only known through the stored window.
    """

    __slots__ = ("order", "coeffs", "exact_tail")

    def __init__(self, order: int, coeffs: list[ScaledIntMatrix], exact_tail: bool = False):
        self.order = order
        self.coeffs = coeffs
        self.exact_tail = exact_tail

    @classmethod
    def from_frames(cls, frames, den, window: int) -> "MatrixLaurentSeries":
        """Series of (sum_k frames[k] t^k) / den(t); frames are exact Fraction
        matrices, den a scalar polynomial."""
        if all(is_zero_matrix(f) for f in frames):
            return cls(0, [ScaledIntMatrix.zeros(frames[0].shape)], exact_tail=True)
        val = den.valuation()
        if den.degree == val:
            # pure monomial: exact finite Laurent expansion
            inv = 1 / den.coeffs[val]
            coeffs = [ScaledIntMatrix.from_fractions(inv * f) for f in frames]
            return cls(-val, coeffs, exact_tail=True)
        order, cs = RatFunc(Poly.const(1), den).laurent_at(0, window)
        out = []
        shape = frames[0].shape
        for s in range(window):
            acc = None
            for k in range(min(s, len(frames) - 1) + 1):
                c = cs[s - k]
                if c == 0:
                    continue
                term = ScaledIntMatrix.from_fractions(frames[k]) * c
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else ScaledIntMatrix.zeros(shape))
        return cls(order, out, exact_tail=False)

    def embedded(self, slots, dims) -> "MatrixLaurentSeries":
        out = []
        for c in self.coeffs:
            out.append(ScaledIntMatrix(embed_matrix(c.mat, slots, dims, zero=0), c.scale))
        return MatrixLaurentSeries(self.order, out, self.exact_tail)

    def __matmul__(self, other: "MatrixLaurentSeries") -> "MatrixLaurentSeries":
        la, lb = len(self.coeffs), len(other.coeffs)
        wa = math.inf if self.exact_tail else la
        wb = math.inf if other.exact_tail else lb
        w = min(wa, wb)
        length = la + lb - 1 if w is math.inf else int(w)
        za = [c.is_zero() for c in self.coeffs]
        zb = [c.is_zero() for c in other.coeffs]
        out = []
        for t in range(length):
            acc = None
            for a in range(max(0, t - lb + 1), min(la, t + 1)):
                if za[a] or zb[t - a]:
                    continue
                term = self.coeffs[a] @ other.coeffs[t - a]
                acc = term if acc is None else acc + term
            if acc is None:
                shape = (self.coeffs[0].mat.shape[0], other.coeffs[0].mat.shape[1])
                acc = ScaledIntMatrix.zeros(shape)
            out.append(acc)
        return MatrixLaurentSeries(
            self.order + other.order, out, self.exact_tail and other.exact_tail
        )

    def trimmed(self) -> "MatrixLaurentSeries":
        """Advance past exactly-zero leading coefficients."""
        k = 0
        while k < len(self.coeffs) and self.coeffs[k].is_zero():
            k += 1
        if k == len(self.coeffs):
            if self.exact_tail:
                return MatrixLaurentSeries(0, [self.coeffs[0]], exact_tail=True)
            raise _WindowExhausted
        return MatrixLaurentSeries(self.order + k, self.coeffs[k:], self.exact_tail)

    def coefficient(self, exponent: int) -> ScaledIntMatrix:
        k = exponent - self.order
        if k < 0 or (k >= len(self.coeffs) and self.exact_tail):
            return ScaledIntMatrix.zeros(self.coeffs[0].mat.shape)
        if k >= len(self.coeffs):
            raise _WindowExhausted
        return self.coeffs[k]


class _WindowExhausted(Exception):
    """Internal: the known window of a Laurent series was used up; retry wider."""
