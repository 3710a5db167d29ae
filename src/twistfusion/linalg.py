"""Exact dense linear algebra on numpy object arrays.

Four layers, all exact:

* Fraction/int object matrices with Bareiss (fraction-free) elimination for
  ranks, pivot columns and nullspaces at small sizes.
* Integer-cleared fast products: clearing denominators first makes object
  matmuls run on Python ints, which is roughly two orders of magnitude faster
  than Fraction arithmetic (no gcd per operation).
* Certified int64 kernels for integer products and the sums that combine
  them: a computation runs in numpy int64 only when a runtime certificate
  bounds every intermediate below 2^62 in absolute value (for a product,
  max|A| * max|B| * inner dimension; a further sum of terms c * (A B)
  multiplies that by sum |c|).  Otherwise it runs on Python ints.  Both
  paths give the same exact integers.
* Certified modular ranks/nullspaces for larger systems: a full-rank result
  modulo one prime is already a proof over Q (a nonzero minor mod p is nonzero
  over Q); deficient cases are settled by lifting a candidate nullspace basis
  with rational reconstruction and verifying it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch

_PRIMES = (
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
    2147483489,
)

# Size threshold below which plain Fraction elimination is used directly.
_SMALL = 64


def fzeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def feye(n: int) -> np.ndarray:
    out = fzeros((n, n))
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def mat_equal(A: np.ndarray, B: np.ndarray) -> bool:
    if A.shape != B.shape:
        return False
    return bool(np.equal(A, B).all())


def is_zero_matrix(A: np.ndarray) -> bool:
    return bool(np.equal(A, 0).all())


# ---------------------------------------------------------------------------
# integer clearing

def to_int_scaled(A: np.ndarray) -> tuple[np.ndarray, Fraction]:
    """Write A = scale * M with M an integer object matrix."""
    lcm = 1
    for v in A.flat:
        if isinstance(v, Fraction):
            d = v.denominator
            if d != 1:
                lcm = lcm * d // math.gcd(lcm, d)
    if lcm == 1:
        out = np.empty(A.shape, dtype=object)
        for idx, v in np.ndenumerate(A):
            out[idx] = int(v)
        return out, Fraction(1)
    out = np.empty(A.shape, dtype=object)
    for idx, v in np.ndenumerate(A):
        w = v * lcm
        out[idx] = int(w)
    return out, Fraction(1, lcm)


def primitive_part(A: np.ndarray) -> np.ndarray:
    """An integer matrix divided by the gcd of its entries (its content).

    The zero matrix is returned unchanged."""
    g = int(np.gcd.reduce(A.ravel())) if A.size else 0
    return A // g if g > 1 else A


# ---------------------------------------------------------------------------
# certified int64 kernel

# Certified computations keep every intermediate strictly below this bound in
# absolute value, a factor of two inside the int64 range.
_INT64_LIMIT = 1 << 62


def max_abs(A: np.ndarray) -> int:
    """Largest absolute entry of an integer matrix (Python ints or int64)."""
    if A.size == 0:
        return 0
    if A.dtype == object:
        return max(abs(v) for v in A.flat)
    return int(np.abs(A).max())


def int64_certified(bound: int) -> bool:
    """True when every intermediate is known to be at most ``bound`` in
    absolute value and that bound is below 2^62, so int64 arithmetic is exact."""
    return bound < _INT64_LIMIT


def int_kernel(arrays, bound: int) -> list[np.ndarray]:
    """Integer arrays cast for a computation whose intermediates are bounded
    by ``bound``: to int64 under the certificate, else to Python ints."""
    dtype = np.int64 if int64_certified(bound) else object
    return [np.asarray(A).astype(dtype) for A in arrays]


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices, in int64 when certified.

    The certificate also bounds every entry of A and B, so a zero factor
    does not let the other one be cast to int64 unchecked."""
    bound = max(max_abs(A), 1) * max(max_abs(B), 1) * A.shape[1]
    A, B = int_kernel((A, B), bound)
    return A @ B


def fdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matmul; clears denominators so the inner loop runs on ints."""
    Ai, sa = to_int_scaled(A)
    Bi, sb = to_int_scaled(B)
    C = Ai @ Bi
    s = sa * sb
    if s != 1:
        C = C * s
    return C


def _numeric(A: np.ndarray) -> bool:
    for v in A.flat:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def generic_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """fdot for plain rational matrices, ordinary matmul otherwise."""
    if _numeric(A) and _numeric(B):
        return fdot(A, B)
    return A @ B


class ScaledIntMatrix:
    """An exact rational matrix stored as scale * (integer matrix).

    Used for coefficient matrices of matrix-valued Laurent series, where long
    chains of products and sums must stay fast.
    """

    __slots__ = ("mat", "scale")

    def __init__(self, mat: np.ndarray, scale: Fraction = Fraction(1)):
        self.mat = mat
        self.scale = scale

    @classmethod
    def from_fractions(cls, A: np.ndarray) -> "ScaledIntMatrix":
        m, s = to_int_scaled(A)
        return cls(m, s)

    @classmethod
    def zeros(cls, shape) -> "ScaledIntMatrix":
        m = np.zeros(shape, dtype=object)
        m[...] = 0
        return cls(m, Fraction(1))

    def to_fractions(self) -> np.ndarray:
        if self.scale == 1:
            out = np.empty(self.mat.shape, dtype=object)
            for idx, v in np.ndenumerate(self.mat):
                out[idx] = Fraction(v)
            return out
        return self.mat * self.scale

    def is_zero(self) -> bool:
        return is_zero_matrix(self.mat)

    def __matmul__(self, other: "ScaledIntMatrix") -> "ScaledIntMatrix":
        return ScaledIntMatrix(self.mat @ other.mat, self.scale * other.scale)

    def __add__(self, other: "ScaledIntMatrix") -> "ScaledIntMatrix":
        s1, s2 = self.scale, other.scale
        if s1 == s2:
            return ScaledIntMatrix(self.mat + other.mat, s1)
        g = Fraction(
            math.gcd(s1.numerator * s2.denominator, s2.numerator * s1.denominator),
            s1.denominator * s2.denominator,
        )
        f1 = int(s1 / g)
        f2 = int(s2 / g)
        return ScaledIntMatrix(self.mat * f1 + other.mat * f2, g)

    def __mul__(self, c) -> "ScaledIntMatrix":
        if isinstance(c, int):
            # integer path keeps the scale, so sums stay on the fast branch
            return ScaledIntMatrix(self.mat * c, self.scale)
        c = Fraction(c)
        if c == 0:
            return ScaledIntMatrix.zeros(self.mat.shape)
        return ScaledIntMatrix(self.mat, self.scale * c)

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledIntMatrix(self.mat, -self.scale)


# ---------------------------------------------------------------------------
# Bareiss fraction-free elimination

def bareiss_pivots(A: np.ndarray) -> tuple[int, list[int]]:
    """Rank and pivot columns via fraction-free row echelon.

    Pivot search order: columns left to right, rows top to bottom. Input may
    have Fraction entries; rows are cleared to integers first (row scaling
    does not change the pivot-column structure).
    """
    rows, cols = A.shape
    M = np.empty(A.shape, dtype=object)
    for i in range(rows):
        lcm = 1
        for v in A[i]:
            if isinstance(v, Fraction) and v.denominator != 1:
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        for j in range(cols):
            M[i, j] = int(A[i, j] * lcm)
    piv_row = 0
    prev = 1
    pivot_cols: list[int] = []
    for c in range(cols):
        sel = None
        for i in range(piv_row, rows):
            if M[i, c] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            M[[sel, piv_row]] = M[[piv_row, sel]]
        pivot_cols.append(c)
        pk = M[piv_row, c]
        if piv_row + 1 < rows:
            block = M[piv_row + 1:]
            factor = block[:, c].copy()
            block[...] = block * pk - np.outer(factor, M[piv_row])
            if prev != 1:
                for idx, v in np.ndenumerate(block):
                    block[idx] = v // prev
        prev = pk
        piv_row += 1
        if piv_row == rows:
            break
    return len(pivot_cols), pivot_cols


# ---------------------------------------------------------------------------
# Fraction Gaussian elimination (small systems)

def fraction_rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Fraction, with pivot column list."""
    M = A.copy()
    rows, cols = M.shape
    piv_row = 0
    pivots: list[int] = []
    for c in range(cols):
        sel = None
        for i in range(piv_row, rows):
            if M[i, c] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            M[[sel, piv_row]] = M[[piv_row, sel]]
        inv = Fraction(1) / Fraction(M[piv_row, c])
        M[piv_row] = M[piv_row] * inv
        for i in range(rows):
            if i != piv_row and M[i, c] != 0:
                M[i] = M[i] - M[i, c] * M[piv_row]
        pivots.append(c)
        piv_row += 1
        if piv_row == rows:
            break
    return M, pivots


def fraction_nullspace(A: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the right nullspace (list of 1-D Fraction arrays)."""
    R, pivots = fraction_rref(A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = fzeros((cols,))
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -Fraction(R[r, fc])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# certified modular rank / nullspace

class _BadPrime(Exception):
    pass


def _mat_mod(A: np.ndarray, p: int) -> np.ndarray:
    out = np.empty(A.shape, dtype=np.int64)
    for idx, v in np.ndenumerate(A):
        if isinstance(v, Fraction):
            d = v.denominator % p
            if d == 0:
                raise _BadPrime
            out[idx] = (v.numerator % p) * pow(d, p - 2, p) % p
        else:
            out[idx] = int(v) % p
    return out


def _modp_rref(M: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """In-place RREF of an int64 matrix mod p; returns pivot columns."""
    rows, cols = M.shape
    piv_row = 0
    pivots: list[int] = []
    for c in range(cols):
        col = M[piv_row:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        sel = piv_row + int(nz[0])
        if sel != piv_row:
            M[[sel, piv_row]] = M[[piv_row, sel]]
        inv = pow(int(M[piv_row, c]), p - 2, p)
        M[piv_row] = M[piv_row] * inv % p
        factors = M[:, c].copy()
        factors[piv_row] = 0
        nzr = np.nonzero(factors)[0]
        if nzr.size:
            M[nzr] = (M[nzr] - factors[nzr, None] * M[piv_row][None, :]) % p
        pivots.append(c)
        piv_row += 1
        if piv_row == rows:
            break
    return pivots, M


def _rat_reconstruct(a: int, m: int) -> Fraction | None:
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if d > bound or math.gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def rank_exact(A: np.ndarray) -> int:
    """Exact rank over Q of a Fraction/int object matrix."""
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return 0
    if max(rows, cols) <= _SMALL:
        return len(fraction_rref(A)[1])
    for p in _PRIMES:
        try:
            Mp = _mat_mod(A, p)
        except _BadPrime:
            continue
        pivots, _ = _modp_rref(Mp, p)
        rp = len(pivots)
        if rp == min(rows, cols):
            return rp  # a nonzero maximal minor mod p certifies full rank over Q
        # deficient mod p: settle via a verified nullspace
        basis = nullspace_exact(A)
        return cols - len(basis)
    # every prime divides a denominator: exact elimination, as nullspace_exact
    return len(fraction_rref(A)[1])


def nullspace_exact(A: np.ndarray) -> list[np.ndarray]:
    """Exact verified basis of the right nullspace over Q.

    Modular elimination proposes the dimension and a candidate basis, rational
    reconstruction with CRT lifts it, and an exact residual check proves it.
    rank(mod p) <= rank(Q) bounds the nullity from above, so a verified basis
    of matching size settles the dimension exactly.
    """
    rows, cols = A.shape
    if cols == 0:
        return []
    if max(rows, cols) <= _SMALL:
        return fraction_nullspace(A)

    crt_vals: np.ndarray | None = None
    crt_mod = 1
    pivots_ref: list[int] | None = None
    for p in _PRIMES:
        try:
            Mp = _mat_mod(A, p)
        except _BadPrime:
            continue
        pivots, R = _modp_rref(Mp, p)
        if pivots_ref is None or len(pivots) > len(pivots_ref):
            pivots_ref, crt_vals, crt_mod = pivots, None, 1
        if pivots != pivots_ref:
            continue  # lower-rank prime is bad
        free = [c for c in range(cols) if c not in pivots]
        vals = np.zeros((len(pivots), len(free)), dtype=object)
        for r in range(len(pivots)):
            for j, fc in enumerate(free):
                vals[r, j] = int(R[r, fc])
        if crt_vals is None:
            crt_vals, crt_mod = vals, p
        else:
            # CRT combine
            inv = pow(crt_mod % p, p - 2, p)
            for idx, v in np.ndenumerate(crt_vals):
                delta = (int(vals[idx]) - v) % p
                crt_vals[idx] = v + crt_mod * (delta * inv % p)
            crt_mod *= p
        # attempt reconstruction
        lifted = np.empty(crt_vals.shape, dtype=object)
        ok = True
        for idx, v in np.ndenumerate(crt_vals):
            q = _rat_reconstruct(int(v), crt_mod)
            if q is None:
                ok = False
                break
            lifted[idx] = q
        if not ok:
            continue
        basis = []
        for j, fc in enumerate(free):
            v = fzeros((cols,))
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -lifted[r, j]
            basis.append(v)
        if all(is_zero_matrix(A @ v.reshape(-1, 1)) for v in basis):
            return basis
    # last resort: exact elimination
    return fraction_nullspace(A)


# ---------------------------------------------------------------------------
# solving in a basis

class BasisSolver:
    """Solves B x = rhs for a fixed full-column-rank Fraction matrix B.

    Precomputes an inverse of a pivot-row square block; solve() returns the
    coordinates plus an exact consistency residual check.  Rational systems
    are solved on integers: B = B_scale * B_int and the inverse are cleared
    to integer matrices once, and the residual check compares integers.
    """

    def __init__(self, B: np.ndarray):
        m, k = B.shape
        self.B = B
        self.k = k
        rank, pivots = bareiss_pivots(B.T)
        if rank != k:
            raise DimensionMismatch("basis matrix does not have full column rank")
        self.rows = pivots  # k independent rows of B
        sub = B[pivots, :]
        self.inv = _invert_fraction(sub)
        self.B_int, self.B_scale = to_int_scaled(B)
        self._inv_int, self._inv_scale = to_int_scaled(self.inv)
        self._ratio = self.B_scale * self._inv_scale

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """Coordinates X with B @ X = rhs, or None if inconsistent."""
        single = rhs.ndim == 1
        R = rhs.reshape(-1, 1) if single else rhs
        if _numeric(R):
            X = self._solve_rational(R)
        else:
            X = self.inv @ R[self.rows, :]
            if not mat_equal(self.B @ X, R):
                X = None
        if X is None:
            return None
        return X[:, 0] if single else X

    def _solve_rational(self, R: np.ndarray) -> np.ndarray | None:
        # R = sr * Ri and X = inv_scale * sr * Y with Y = inv_int @ Ri[rows];
        # B @ X = R  <=>  ratio * (B_int @ Y) = Ri
        Ri, sr = to_int_scaled(R)
        Y = int_matmul(self._inv_int, Ri[self.rows, :]).astype(object)
        lhs = int_matmul(self.B_int, Y).astype(object)
        c = self._ratio
        if not np.array_equal(lhs * c.numerator, Ri * c.denominator):
            return None
        s = self._inv_scale * sr
        return Y * s if s != 1 else Y


def _invert_fraction(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    aug = np.concatenate([A.copy(), feye(n)], axis=1)
    R, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return R[:, n:]
