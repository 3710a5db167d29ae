"""Exact operators on tensor product spaces.

Leg convention: leg 1 is the leftmost (slowest-varying) tensor index in
row-major vectorization; an operator on legs of dimensions ``dims`` is a
square object-dtype matrix of size ``prod(dims)``.  Entries are exact
scalars, uniformly per matrix: Fractions or Python ints in the engine, and
RatFunc values in the symbolic reference routes.  An operator that depends
on one variable is a FrameBlock: integer polynomial frames over one scale
and a scalar denominator kept as its linear factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInvariant,
    SingularParameter,
)
from .linalg import (
    ScaledIntMatrix,
    certified,
    feye,
    fzeros,
    generic_dot,
    int64_certified,
    int_matmul,
    is_zero_matrix,
    mat_equal,
    max_abs,
    primitive_part,
)

_F1 = Fraction(1)


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
        if linalg.rank_exact(g) != N:
            raise DimensionMismatch("g must be non-degenerate")
        if mat_equal(g.T, g):
            kind = "so"
        elif mat_equal(g.T, -g):
            kind = "sp"
            if N % 2 != 0:
                raise DimensionMismatch("skew-symmetric g requires even N")
        else:
            raise DimensionMismatch("g must be symmetric or skew-symmetric")
        return GForm(kind, N, g, linalg.inverse(g))

    @staticmethod
    def default(kind: str, N: int) -> "GForm":
        return GForm.orthogonal(N) if kind == "so" else GForm.symplectic(N)

    @functools.cached_property
    def key(self) -> tuple:
        """kind, N and g as a key made once; g is a string, whose hash is kept."""
        return self.kind, self.N, " ".join(map(str, self.g.ravel()))


# ---------------------------------------------------------------------------
# operators

class TensorOperator:
    """Square exact matrix with a tuple of leg dimensions."""

    __slots__ = ("mat", "dims")

    def __init__(self, mat: np.ndarray, dims):
        dims = tuple(int(d) for d in dims)
        D = math.prod(dims)
        if mat.shape != (D, D):
            raise DimensionMismatch(f"matrix {mat.shape} incompatible with legs {dims}")
        self.mat = mat
        self.dims = dims

    @classmethod
    def identity(cls, dims) -> "TensorOperator":
        return cls(feye(math.prod(tuple(dims))), dims)

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


def reversal_index(N: int, kept: int, n: int) -> np.ndarray:
    """The index of (C^N)^(kept + n) with the first ``kept`` legs kept and
    the last n reversed.  sigma_hat on those n legs is an involutive
    permutation matrix, so conjugating X by it is X[np.ix_(idx, idx)]."""
    dims = (N,) * (kept + n)
    digits = np.unravel_index(np.arange(N ** (kept + n)), dims)
    return np.ravel_multi_index(digits[:kept] + digits[kept:][::-1], dims)


def _slot_rest_index(slots, dims) -> np.ndarray:
    """global_of[slot_code, rest_code] -> flat index in prod(dims), a
    read-only array shared by every call with the same slots and dims."""
    return _slot_rest_index_of(tuple(int(s) for s in slots), tuple(int(d) for d in dims))


@functools.lru_cache(maxsize=512)
def _slot_rest_index_of(slots: tuple, dims: tuple) -> np.ndarray:
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in slots)
    D = math.prod(dims)
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
    out = np.empty((math.prod(sdims), math.prod(rdims)), dtype=np.int64)
    out[scode, rcode] = np.arange(D)
    out.flags.writeable = False
    return out


def transpose_legs(A: TensorOperator, legs, form: GForm) -> TensorOperator:
    """Apply x -> g x^T g^-1 on the selected legs (1-indexed set)."""
    return TensorOperator(transposed(A.mat, A.dims, legs, form), A.dims)


def transposed(mats: np.ndarray, dims, legs, form: GForm) -> np.ndarray:
    """transpose_legs of a matrix on the legs of the tuple ``dims``, or of
    each matrix of a stack (leading axes); int64 matrices, g and g^-1 stay
    int64 under max|x| (N^2 max|g| max|g^-1|)^legs (the int64 rule)."""
    legs = sorted(set(int(l) for l in legs))
    n, b = len(dims), mats.ndim - 2
    for l in legs:
        if not 1 <= l <= n:
            raise IndexOutOfRange(f"leg {l} outside 1..{n}")
        if dims[l - 1] != form.N:
            raise DimensionMismatch("transposed leg dimension differs from form size")
    if not legs:
        return mats.copy()
    T = mats.reshape(mats.shape[:b] + dims + dims)
    g, g_inv = form.g, form.g_inv
    g_id = np.array_equal(g, np.eye(form.N, dtype=np.int64))
    if not g_id and T.dtype == np.int64 and g.dtype == np.int64:
        bound = max_abs(T) * (form.N**2 * max_abs(g) * max_abs(g_inv)) ** len(legs)
        T, g, g_inv = (certified(X, bound) for X in (T, g, g_inv))
    for l in legs:
        row, col = b + l - 1, b + n + l - 1
        Y = np.moveaxis(T, (col, row), (-2, -1))  # leg l's two indices last, swapped
        T = np.moveaxis(Y if g_id else g @ Y @ g_inv, (-2, -1), (row, col))
    return T.reshape(mats.shape)


# ---------------------------------------------------------------------------
# bases and images

class Basis:
    """A basis of a subspace of Q^ambient in reduced echelon form, which
    depends on the subspace alone.  As the columns of a matrix B: B[rows]
    = I and B[free] = C^T for (rows, C) = echelon(B^T), so x lies in the
    span exactly when x[free] = C^T x[rows], and x[rows] are then its
    coordinates.  cleared() gives B_int = B / B_scale, built at first use,
    for the callers that apply operators to B.  A Kronecker product keeps
    the relations (n, rows, free, C) of each factor."""

    __slots__ = ("ambient", "rows", "_factors", "_cleared")

    def __init__(self, ambient: int, vectors):
        """The basis of the given vectors; DimensionMismatch unless they are
        already the reduced echelon basis of their span."""
        vectors = [np.asarray(v, dtype=object).reshape(-1) for v in vectors]
        if any(v.shape[0] != ambient for v in vectors):
            raise DimensionMismatch("basis vector has wrong length")
        B = np.stack(vectors, axis=1) if vectors else np.empty((ambient, 0), dtype=object)
        rows, C = linalg.echelon(B.T)
        if not np.array_equal(B[rows, :], np.eye(B.shape[1], dtype=int)):
            raise DimensionMismatch("basis matrix is not a full-rank reduced echelon basis")
        self._set_echelon(ambient, rows, C)

    def _set_echelon(self, ambient: int, rows, C: np.ndarray) -> "Basis":
        self.ambient, self.rows, self._cleared = ambient, rows, None
        self._factors = [(ambient, rows, linalg._free_columns(rows, ambient), C)]
        return self

    @classmethod
    def from_echelon(cls, ambient: int, rows, C: np.ndarray) -> "Basis":
        """The basis with B[rows] = I and B[free] = C^T, taken as given."""
        return cls.__new__(cls)._set_echelon(ambient, rows, C)

    def cleared(self) -> tuple[np.ndarray, Fraction]:
        """(B_int, B_scale) with B = B_scale * B_int and B_int integer."""
        if self._cleared is None:
            ((n, rows, free, C),) = self._factors
            B = fzeros((n, len(rows)))
            B[rows], B[free] = feye(len(rows)), C.T
            self._cleared = linalg.to_int_scaled(B)
        return self._cleared

    @property
    def size(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        """B = B_int * B_scale, as Fractions."""
        return np.multiply(*self.cleared())

    @property
    def vectors(self) -> list[np.ndarray]:
        return list(self.matrix().T)

    @staticmethod
    def full(ambient: int) -> "Basis":
        return Basis.from_echelon(ambient, list(range(ambient)), fzeros((ambient, 0)))

    @staticmethod
    def kron(b1: "Basis", b2: "Basis") -> "Basis":
        """The basis of kron(B1, B2), with no elimination: its rows are
        r1 * n2 + r2, in order, so it is in reduced echelon form too."""
        out, n2 = Basis.__new__(Basis), b2.ambient
        out.ambient, out._factors = b1.ambient * n2, b1._factors + b2._factors
        out.rows = [r1 * n2 + r2 for r1 in b1.rows for r2 in b2.rows]
        (I1, s1), (I2, s2) = b1.cleared(), b2.cleared()
        out._cleared = np.kron(I1, I2), s1 * s2
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The integer coordinates X = rhs[rows] with B @ X = rhs, for an
        integer matrix rhs, or None if some column lies outside the span:
        each Kronecker factor's relations are checked on the fibres along
        its axis (Van Loan 2000)."""
        X = rhs.reshape([n for n, _, _, _ in self._factors] + [rhs.shape[1]])
        for axis, (n, rows, free, C) in enumerate(self._factors):
            fibres = np.moveaxis(X, axis, -1).reshape(-1, n)
            if free and not linalg.relation_holds(fibres, rows, free, C):
                return None
            X = X.take(rows, axis=axis)
        return X.reshape(self.size, rhs.shape[1])


def image_basis(A: TensorOperator) -> Basis:
    """The reduced echelon basis of the column space, read off echelon(A^T)."""
    return Basis.from_echelon(A.size, *linalg.echelon(A.mat.T))


def contraction_map_matrix(M: np.ndarray, dimW: int, dimZ: int) -> np.ndarray:
    """Matrix of A -> Tr_W((A (x) 1) M) as a map End(W) -> End(Z), or of
    each matrix of a stack (leading axes).

    Row index (z1, z2), column index (w', w); pure reindexing of M.
    """
    b = M.ndim - 2
    T = M.reshape(M.shape[:b] + (dimW, dimZ, dimW, dimZ))
    T = np.transpose(T, tuple(range(b)) + (b + 1, b + 3, b + 2, b))
    return T.reshape(M.shape[:b] + (dimZ * dimZ, dimW * dimW))


# ---------------------------------------------------------------------------
# factor chains: ordered products of (a + b*zeta) * 1 + two-leg operators

def minus_flip_entries(N: int) -> list[tuple[int, int, int, int, int]]:
    """two_leg_entries(-flip(N)), without building the operator."""
    return [(a, b, b, a, -1) for a in range(N) for b in range(N)]


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


def apply_factor_chain(V: np.ndarray, dims, chain) -> tuple[list[np.ndarray], Fraction]:
    """Integer coefficient frames of F_1 F_2 ... F_m V in zeta, lowest
    degree first, and one Fraction scale: frame k is scale * frames[k].

    Each factor (p, q, a, b, entries) of ``chain`` (leftmost first) is
    (a + b*zeta) * 1 + X_{p,q}, X the two-leg operator on the 0-indexed legs
    p, q given by its nonzero entries (r_p, r_q, c_p, c_q, value).  V is an
    integer matrix with one row per basis vector of the legs ``dims``; the
    factors act right to left as row operations.  a, b and the values are
    rational scalars, and a factor with b = 0 adds no frame.  The kernel
    runs on integers: each factor is multiplied by the lcm L of its
    denominators, so the scale is 1 / prod(L)."""
    dims = tuple(dims)
    rows = np.arange(math.prod(dims))
    digits = np.unravel_index(rows, dims)
    frames = [V]
    scale = _F1
    for (p, q, a, b, entries) in reversed(chain):
        L = math.lcm(a.denominator, b.denominator, *(e[4].denominator for e in entries))
        scale /= L
        a, b = int(a * L), int(b * L)
        sp, sq = math.prod(dims[p + 1:]), math.prod(dims[q + 1:])
        moves = []
        for (rp, rq, cp, cq, val) in entries:
            tgt = rows[(digits[p] == rp) & (digits[q] == rq)]
            moves.append((tgt, tgt + (cp - rp) * sp + (cq - rq) * sq, int(val * L)))
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
    return frames, scale


def restricted_chain(chain, basis: Basis, dims) -> tuple[list, Fraction]:
    """Integer frames and one Fraction scale: frame k of the chain's
    operator in ``basis``, whose span it must map into itself (NotInvariant
    otherwise), is scale * frames[k].

    The chain is applied to the cleared basis matrix B_int = B / B_scale
    (apply_factor_chain), and the coordinates of each integer frame are its
    rows at the basis rows, integers over scale 1."""
    B_int, B_scale = basis.cleared()
    frames, scale = apply_factor_chain(B_int, dims, chain)
    coords = []
    for fr in frames:
        X = basis.solve(fr)
        if X is None:
            raise NotInvariant("factor chain does not preserve the basis span")
        coords.append(X)
    return coords, B_scale * scale


# ---------------------------------------------------------------------------
# matrix-valued Laurent series around 0 in one deformation variable

class MatrixLaurentSeries:
    """scale * sum_k coeffs[k] t^(order+k): integer coefficient matrices
    over one Fraction scale.

    ``exact_tail`` means every higher coefficient is exactly zero; otherwise
    the series is only known through the stored window.

    A series made by ``embedded`` stands for block (x) identity on some slots
    of a tensor product: its coeffs are the block's own small coefficients
    and ``slot_map`` (see _slot_rest_index) places them.  It is only ever the
    right operand of ``@``, which applies it on its slots; no D x D matrix of
    it is ever formed.
    """

    __slots__ = ("order", "coeffs", "scale", "exact_tail", "slot_map")

    def __init__(self, order: int, coeffs: list[np.ndarray], scale: Fraction,
                 exact_tail: bool = False, slot_map: np.ndarray | None = None):
        self.order = order
        self.coeffs = coeffs
        self.scale = scale
        self.exact_tail = exact_tail
        self.slot_map = slot_map

    @classmethod
    def identity(cls, n: int) -> "MatrixLaurentSeries":
        """The constant series 1 on n x n matrices."""
        return cls(0, [np.eye(n, dtype=np.int64)], _F1, exact_tail=True)

    @classmethod
    def from_frames(cls, frames, scale, window: int) -> "MatrixLaurentSeries":
        """The polynomial scale * sum_k frames[k] t^k, frames integer
        matrices and scale a Fraction, past its exactly-zero leading frames
        (which give the order), known through ``window`` coefficients from
        there; exact when every frame fits."""
        k0 = 0
        while k0 < len(frames) and is_zero_matrix(frames[k0]):
            k0 += 1
        if k0 == len(frames):
            return cls(0, [frames[0]], scale, exact_tail=True)
        return cls(k0, frames[k0:k0 + window], scale, exact_tail=len(frames) - k0 <= window)

    def embedded(self, slots, dims) -> "MatrixLaurentSeries":
        """This series of block matrices as block (x) identity on the given
        slots (0-indexed, in the order of the block's legs) of the legs
        ``dims``, to be applied by ``@`` from the right."""
        slot_map = _slot_rest_index(slots, dims)
        ds = slot_map.shape[0]
        if self.coeffs[0].shape != (ds, ds):
            raise DimensionMismatch("block size does not match slot dimensions")
        return MatrixLaurentSeries(self.order, self.coeffs, self.scale, self.exact_tail, slot_map)

    def __matmul__(self, other: "MatrixLaurentSeries") -> "MatrixLaurentSeries":
        """Cauchy product, known as far as both windows reach: integer
        products summed under the product of the two scales.

        An embedded right operand is applied on its slots by the (A (x) I) X
        reshape identity: the columns of a left coefficient P, gathered by
        slot map into a (rows * d_rest) x d_slots matrix G, give
        P (B (x) 1) as G @ B scattered back, D^2 d_slots multiplications
        instead of D^3.  A coefficient is summed in int64 under the sum of its
        terms' bounds max|a| max|b| inner (the int64 rule)."""
        if self.slot_map is not None:
            raise DimensionMismatch("an embedded series multiplies only from the right")
        la, lb = len(self.coeffs), len(other.coeffs)
        wa = math.inf if self.exact_tail else la
        wb = math.inf if other.exact_tail else lb
        w = min(wa, wb)
        length = la + lb - 1 if w is math.inf else int(w)
        ma = [max_abs(c) for c in self.coeffs]
        mb = [max_abs(c) for c in other.coeffs]
        rows, inner = self.coeffs[0].shape
        cols = None if other.slot_map is None else other.slot_map.T  # [rest, slot]
        if cols is None:
            left = self.coeffs
            shape = (rows, other.coeffs[0].shape[1])
        else:
            if cols.size != inner:
                raise DimensionMismatch("embedded operand lives on another space")
            left = [c[:, cols].reshape(-1, cols.shape[1]) if m else None
                    for c, m in zip(self.coeffs, ma)]
            shape = (rows, inner)
        out = []
        for t in range(length):
            terms = [(a, t - a) for a in range(max(0, t - lb + 1), min(la, t + 1))
                     if ma[a] and mb[t - a]]
            bound = sum(ma[a] * mb[b] * other.coeffs[b].shape[0] for a, b in terms)
            acc = np.zeros(shape if cols is None else (rows * cols.shape[0], cols.shape[1]),
                           dtype=np.int64 if int64_certified(bound) else object)
            for a, b in terms:
                acc += certified(left[a], bound) @ certified(other.coeffs[b], bound)
            if cols is not None:
                mat = np.empty(shape, dtype=acc.dtype)
                mat[:, cols] = acc.reshape((rows,) + cols.shape)
                acc = mat
            out.append(acc)
        return MatrixLaurentSeries(self.order + other.order, out, self.scale * other.scale,
                                   self.exact_tail and other.exact_tail)

    def trimmed(self) -> "MatrixLaurentSeries":
        """Advance past exactly-zero leading coefficients."""
        k = 0
        while k < len(self.coeffs) and is_zero_matrix(self.coeffs[k]):
            k += 1
        if k == len(self.coeffs):
            if self.exact_tail:
                return MatrixLaurentSeries(0, [self.coeffs[0]], self.scale, True, self.slot_map)
            raise _WindowExhausted
        return MatrixLaurentSeries(self.order + k, self.coeffs[k:], self.scale, self.exact_tail,
                                   self.slot_map)

    def coefficient(self, exponent: int) -> np.ndarray:
        """The integer matrix of t^exponent, to be read over ``scale``."""
        k = exponent - self.order
        if k < 0 or (k >= len(self.coeffs) and self.exact_tail):
            return np.zeros(self.coeffs[0].shape, dtype=self.coeffs[0].dtype)
        if k >= len(self.coeffs):
            raise _WindowExhausted
        return self.coeffs[k]


class _WindowExhausted(Exception):
    """Internal: the known window of a Laurent series was used up; retry wider."""


# ---------------------------------------------------------------------------
# operators in one variable: polynomial frames over linear factors

class FrameBlock:
    """The operator scale * (sum_k frames[k] x^k) / den(x) on the legs
    ``dims``, with integer frames (lowest degree first), one Fraction scale
    and the scalar den(x) = prod (a + b x) kept as the tuple ``den`` of its
    factors (a, b), rational a and b not both 0 (() is 1).  Every operator
    that depends on the deformation variable zeta or the spectral parameter
    u takes this form.  The frames are int64 under their largest entry
    ``top`` (the int64 rule)."""

    def __init__(self, frames, scale: Fraction, den: tuple, dims):
        self.top = max(max_abs(fr) for fr in frames)
        self.frames = [certified(fr, self.top) for fr in frames]
        self.scale, self.den, self.dims = scale, den, tuple(dims)

    def den_low(self) -> tuple[int, Fraction]:
        """The valuation of den and its lowest nonzero coefficient."""
        return sum(a == 0 for a, _ in self.den), math.prod(a or b for a, b in self.den)

    @functools.cached_property
    def low(self) -> int | None:
        """The index of the lowest nonzero frame; None for a zero block."""
        return next((k for k, fr in enumerate(self.frames) if not is_zero_matrix(fr)), None)

    def _horner(self, xs, shift=0, den=None) -> np.ndarray:
        """The stack of sum_k frames[k] p^k q^(deg - k), deg = len(frames) - 1,
        at the points p/q = x + shift of ``xs``, p = a d + c b and q = b d for
        x = a/b and shift = c/d (reduced when shift is 0, else a positive
        multiple of the reduced pair): the frame sums times q^deg, by one
        product of the homogenised power rows [p^k q^(deg - k)] with the
        stacked frames (int_matmul, whose bound is at most top (|p| +
        q)^deg).  The rows are int64 under (|p| + q)^deg, their bound (the
        int64 rule).  SingularParameter at a root of a factor (a, b) of
        ``den``, the block's own by default: a q + b p = 0."""
        shift = Fraction(shift)
        c, e = shift.numerator, shift.denominator
        den = self.den if den is None else den
        ps = np.array([x.numerator * e + c * x.denominator for x in xs], dtype=object)
        qs = np.array([x.denominator * e for x in xs], dtype=object)
        if den:
            a, b = (np.array(f, dtype=object) for f in zip(*den))
            roots = np.multiply.outer(qs, a) + np.multiply.outer(ps, b) == 0
            hit = np.flatnonzero(roots.any(axis=1))
            if hit.size:
                raise SingularParameter(f"{xs[hit[0]] + shift} is a pole of the operator")
        deg = len(self.frames) - 1
        if int64_certified(int((abs(ps) + qs).max(initial=0)) ** deg):
            ps, qs = ps.astype(np.int64), qs.astype(np.int64)
        k = np.arange(deg + 1)
        rows = ps[:, None] ** k * qs[:, None] ** (deg - k)
        sums = int_matmul(rows, np.stack(self.frames).reshape(deg + 1, -1))
        return sums.reshape((len(xs),) + self.frames[0].shape)

    def substituted(self, t: Fraction, s: int, den: tuple) -> "FrameBlock":
        """The numerator scale * sum_m frames[m] x^m at x = t + s*y, as
        frames in y, over the denominator factors ``den`` in y.  This block
        is a numerator: its own den is ().

        For t = p/q and D = len(frames) - 1, frame k of q^D N(t + s y) is
        s^k sum_m C(m, k) p^(m-k) q^(D-m+k) frames[m], over the scale
        scale / q^D.  At s = 0 that is the homogenised Horner sum
        (_horner).  Otherwise the homogenised frames q^(D-m) frames[m] are
        Taylor-shifted by p through synthetic division, D(D+1)/2 matrix
        axpys with no binomials, and frame k is multiplied by (q s)^k, all
        under top (|p| + q (1 + |s|))^D (the int64 rule)."""
        t = Fraction(t)
        p, q = t.numerator, t.denominator
        D = len(self.frames) - 1
        scale = self.scale / q**D
        if s == 0:
            return FrameBlock([self._horner([t])[0]], scale, den, self.dims)
        frames = [certified(fr, max(self.top, 1) * (abs(p) + q * (1 + abs(s))) ** D)
                  for fr in self.frames]
        c = [fr * q ** (D - m) for m, fr in enumerate(frames)]
        if p:
            for i in range(D):
                for m in range(D - 1, i - 1, -1):
                    c[m] += p * c[m + 1]
        qs = q * s
        return FrameBlock([fr * qs**k if k else fr for k, fr in enumerate(c)], scale, den,
                          self.dims)

    def at(self, x0) -> TensorOperator:
        """The exact value at x0, a Fraction matrix."""
        x0 = Fraction(x0)
        acc = self._horner([x0])[0].astype(object)
        q_deg = x0.denominator ** (len(self.frames) - 1)
        den = math.prod((a + b * x0 for a, b in self.den), start=_F1)
        return TensorOperator(acc * (self.scale / (den * q_deg)), self.dims)

    def at_ints(self, xs, shift=0, den=None) -> np.ndarray:
        """Primitive integer matrices equal to the values at the points x +
        shift of xs up to positive scalars, stacked: the Horner sums over
        their contents (_horner, with its poles)."""
        return primitive_part(self._horner(xs, shift, den))

    def at_infinity(self, K: int) -> list[ScaledIntMatrix]:
        """Coefficients of u^0, u^-1, ..., u^-K, straight from the integer
        frames.

        With n factors a + b u of den that have b != 0, 1/den(u) = u^-n
        sum_j h_j u^-j: the product of the geometric series sum_j (-a/b)^j
        u^-j of those factors, over the product of their b's and of the
        constant factors.  So the u^-m coefficient is sum_k frames[k]
        h_(m+k-n).  The h_j are cleared to integers H_j = L h_j by one common
        L, and all coefficients are one product of the rows [H_(m+k-n)]_k
        with the stacked frames (int_matmul, whose bound is at most top *
        sum |H_j|).  Only s_factors and duality_check expand at infinity."""
        n, deg = sum(b != 0 for _, b in self.den), len(self.frames) - 1
        h = [_F1 / math.prod((b or a for a, b in self.den), start=_F1)] + [Fraction(0)] * K
        for a, b in self.den:
            if b:
                r = -Fraction(a) / b
                for j in range(1, K + 1):
                    h[j] += r * h[j - 1]
        L = math.lcm(*(c.denominator for c in h))
        H = [int(c * L) for c in h]
        rows = [[H[m + k - n] if m + k >= n else 0 for k in range(deg + 1)] for m in range(K + 1)]
        sums = int_matmul(np.array(rows, dtype=object), np.stack(self.frames).reshape(deg + 1, -1))
        return [ScaledIntMatrix(S.reshape(self.frames[0].shape), self.scale / L) for S in sums]
