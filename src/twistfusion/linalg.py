"""Exact dense linear algebra on numpy object arrays.

Four layers, all exact:

* Integer clearing: A = scale * M with M an integer matrix, so products and
  eliminations run on Python ints, roughly two orders of magnitude faster
  than Fraction arithmetic (no gcd per operation).
* The int64 rule.  An exact integer matrix may be int64 only when a bound
  on its entries and every intermediate is below 2^62 (int64_certified),
  else it holds Python ints.  An operation that makes entries larger bounds
  its result first (int_matmul: max|B| * the largest row sum of |A|) and
  casts to object before any arithmetic when the bound fails, so nothing
  wraps; below 2^53 int_matmul multiplies on float64 BLAS.  Public outputs
  (to_int_scaled, to_fractions) hold Python ints and Fractions.  Identities
  between integer expressions take their kernels from float_kernels, on
  float64 so that BLAS multiplies them: when the bound is below 2^53 (a
  further sum of terms c * (A B) multiplies the product bound by sum |c|),
  every intermediate is an exact float64 integer and one kernel decides;
  otherwise float64 residues modulo primes small enough that the products
  stay below 2^53, reduced exactly by reduce_mod, until the primes' product
  exceeds twice the bound, so sides that agree modulo every prime are equal
  over Z.
* One residue form: float64 integers in (-p, p).  An integer enters by one
  % p cast; then residues are reduced only by reduce_mod and multiplied only
  elementwise or in mod_matmul (float64 on BLAS).  Every prime comes from
  _residue_primes, and all but the relation kernels' from _PRIMES.
* One certified echelon, echelon(A): the leftmost pivot columns of A over Q
  and the exact coefficients of the other columns in them.  Modular RREF
  proposes both, rational reconstruction (Wang, Guy & Davenport) over CRT
  lifts the coefficients and one integer product proves the lift.  Primes
  are drawn until a lift is proven, with no cap: a reconstruction is tried
  at 1, 2, 4, 8, ... agreeing primes, and once the primes drawn multiply to
  more than twice the cube of the Hadamard bound a correct lift must have
  been proven, so a failure there is InternalInconsistency.  Ranks,
  nullspaces, inverses and basis solves are all read off it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import DimensionMismatch, InternalInconsistency


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
    """Write A = scale * M with M an integer object matrix.

    A numpy integer array is already cleared.  Entries are tested with
    ``type(v) is Fraction``: isinstance would go through Fraction's abstract
    base classes once per entry."""
    if A.dtype.kind in "iu":
        return A.astype(object), Fraction(1)
    vals = A.ravel().tolist()
    lcm = 1
    for v in vals:
        if type(v) is Fraction:
            d = v.denominator
            if d != 1:
                lcm = lcm * d // math.gcd(lcm, d)
    out = np.empty(len(vals), dtype=object)
    if lcm == 1:
        out[:] = [int(v) for v in vals]
        return out.reshape(A.shape), Fraction(1)
    out[:] = [v.numerator * (lcm // v.denominator) if type(v) is Fraction else int(v) * lcm
              for v in vals]
    return out.reshape(A.shape), Fraction(1, lcm)


def primitive_part(A: np.ndarray) -> np.ndarray:
    """An integer matrix, or each of a stack (leading axes), divided by the
    gcd of its entries (its content); a zero matrix is returned unchanged."""
    if A.ndim > 2:
        g = np.gcd.reduce(A.reshape(A.shape[:-2] + (-1,)), axis=-1)
        return A // np.maximum(g, 1)[..., None, None]
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
    return max(int(A.max()), -int(A.min()))


def int64_certified(bound: int) -> bool:
    """True when every intermediate is known to be at most ``bound`` in
    absolute value and that bound is below 2^62, so int64 arithmetic is exact."""
    return bound < _INT64_LIMIT


def certified(A: np.ndarray, bound: int) -> np.ndarray:
    """The integer matrix A in int64 under ``bound`` (the int64 rule), else in Python ints."""
    return A.astype(np.int64 if int64_certified(bound) else object, copy=False)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


# the primes found so far below 2^width, descending, keyed by width
_RESIDUE_PRIMES: dict[int, list[int]] = {}


def _residue_primes(width: int):
    """The primes below 2^width in descending order, found on demand by
    trial division and kept, so every caller sees the same sequence."""
    found = _RESIDUE_PRIMES.setdefault(width, [])
    i = 0
    while True:
        if i == len(found):
            n = found[-1] - 1 if found else (1 << width) - 1
            while n > 1 and not _is_prime(n):
                n -= 1
            if n < 2:
                return
            found.append(n)
        yield found[i]
        i += 1


# The three largest primes below 2^21, the first of the sequence echelon
# draws from: the phi witness takes the first and Burnside growth all three.
_PRIMES = tuple(islice(_residue_primes(21), 3))

# float64 holds every integer below 2^53 exactly
_FLOAT_EXACT = 1 << 53


def _reduce_bound(p: int) -> int:
    """reduce_mod's bound on |X|: min(2^53 - p, (2^51 - 1) p)."""
    return min(_FLOAT_EXACT - p, ((1 << 51) - 1) * p)


def float_kernels(arrays, bound: int, inner: int):
    """Float64 kernels (arrays, modulus) for an identity between two integer
    expressions in ``arrays``, each side at most ``bound`` in absolute value,
    and so every partial sum of either side.

    The expressions are chains of products of the arrays.  Integers below
    2^53 are exact in float64, and so is every sum of them that stays below
    2^53, in any summation order, so BLAS may compute them.

    When ``bound`` is below 2^53 there is one kernel: the arrays in float64
    and modulus None.  Otherwise there is one kernel per prime p: the arrays
    as float64 residues in [0, p) and modulus p, until the product of the
    primes exceeds 2 * bound.  Then |lhs - rhs| <= 2 * bound is below that
    product, so sides that agree modulo every prime are equal over Z.

    The caller reduces (reduce_mod) each factor of a product to residues
    before the product, and lhs - rhs at the end, so that every value it
    reduces is a sum of at most ``inner`` products of two residues, at most
    inner * (p - 1)^2.  The primes lie below 2^width, width =
    (53 - bitlength(inner)) // 2, so for every such prime that value is
    within reduce_mod's bound (_reduce_bound): below 2^53 - p, and below
    (2^51 - 1) p because inner * (p - 1) is below 2^51.  The width depends
    on the shapes alone, so no entry of any array, however large, narrows
    the primes."""
    for p in kernel_moduli(bound, inner):
        yield [(A if p is None else A % p).astype(np.float64) for A in arrays], p


def kernel_moduli(bound: int, inner: int) -> list:
    """The moduli of float_kernels: [None], or its primes."""
    if bound < _FLOAT_EXACT:
        return [None]
    width = max(0, (53 - inner.bit_length()) // 2)
    primes, modulus = [], 1
    for p in _residue_primes(width):
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound:
            return primes
    raise DimensionMismatch(
        f"the primes below 2^{width} do not reach a {bound.bit_length()}-bit bound")


def reduce_mod(X: np.ndarray, p: int, scratch=None) -> np.ndarray:
    """X - m p, m the nearest integer to X * fl(1/p): a representative of
    X mod p of absolute value below p, for an integer-valued float64 array X
    with |X| <= min(2^53 - p, (2^51 - 1) p) (_reduce_bound).  With
    ``scratch``, a float64 array of X's shape, m p is formed there and the
    result overwrites X, so nothing is allocated.

    X * fl(1/p) is within |X| / p * 2^-52 (1 + 2^-53) < 1/2 of X / p, so m
    is within 1 of it, |X - m p| < p and |m p| <= 2^53: every step is exact,
    and cheaper than the division of numpy's float remainder."""
    m = np.multiply(X, 1.0 / p, out=scratch)
    np.rint(m, out=m)
    m *= p
    return np.subtract(X, m, out=m if scratch is None else X)


def mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p in (-p, p), as float64 on BLAS, for integer matrices, or
    stacks of them (leading axes, as np.matmul), with entries below p in
    absolute value.  Delayed reduction (Dumas, Giorgi & Pernet 2008): each
    chunk of k inner terms is added to the reduced sum before it and
    reduced (reduce_mod), k the largest with k (p - 1)^2 + p - 1 within
    reduce_mod's bound (_reduce_bound): every partial sum is an exact
    float64 integer it reduces, in any order.  DimensionMismatch for
    p^2 > 2^53 (k = 0): one product may be inexact."""
    k = (_reduce_bound(p) - p + 1) // (p - 1) ** 2
    if k < 1:
        raise DimensionMismatch(f"products of residues mod {p} are not exact in float64")
    A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    if A.shape[-1] <= k:
        return reduce_mod(A @ B, p)
    out = reduce_mod(A[..., :k] @ B[..., :k, :], p)
    for lo in range(k, A.shape[-1], k):
        out = reduce_mod(out + A[..., lo:lo + k] @ B[..., lo:lo + k, :], p)
    return out


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices, or stacks of them, in int64
    when certified.  The certificate is max|B| times the largest row sum of
    |A|, each at least 1: it bounds every entry of A and B, so a zero factor
    does not let the other be cast unchecked, and every partial sum of
    product terms.  Below 2^53 every such value is an exact float64 integer,
    in any order of summation, and the product runs on BLAS."""
    rows = np.abs(certified(A, max_abs(A) * A.shape[-1])).sum(axis=-1)
    bound = max(max_abs(B), 1) * max(int(rows.max(initial=0)), 1)
    if bound < _FLOAT_EXACT:
        return np.matmul(A.astype(np.float64), B.astype(np.float64)).astype(np.int64)
    return certified(A, bound) @ certified(B, bound)


def fdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matmul; clears denominators so the inner loop runs on ints."""
    Ai, sa = to_int_scaled(A)
    Bi, sb = to_int_scaled(B)
    C = int_matmul(Ai, Bi).astype(object)
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

    Used for the leading coefficient of a frame product and the S(u)
    coefficients, which stay integers over one scale until a public output
    reads them as Fractions.
    """

    __slots__ = ("mat", "scale")

    def __init__(self, mat: np.ndarray, scale: Fraction = Fraction(1)):
        self.mat = mat
        self.scale = scale

    def to_fractions(self) -> np.ndarray:
        return self.mat.astype(object) * self.scale

    def is_zero(self) -> bool:
        return is_zero_matrix(self.mat)

    def __matmul__(self, other: "ScaledIntMatrix") -> "ScaledIntMatrix":
        return ScaledIntMatrix(int_matmul(self.mat, other.mat), self.scale * other.scale)


# ---------------------------------------------------------------------------
# certified echelon

def _modp_rref(M: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """In-place RREF mod p of a float64 matrix of residues in (-p, p), for
    a prime that mod_matmul takes ((p - 1)^2 + p - 1 within reduce_mod's
    bound); returns pivot columns and M, its residues still in (-p, p).

    The rows from the pivot row down are zero left of the current column,
    so each step reduces only the columns from there on."""
    rows, cols = M.shape
    piv_row = 0
    pivots: list[int] = []
    for c in range(cols):
        nz = np.flatnonzero(M[piv_row:, c])
        if nz.size == 0:
            continue
        sel = piv_row + int(nz[0])
        if sel != piv_row:
            M[[sel, piv_row]] = M[[piv_row, sel]]
        row = reduce_mod(M[piv_row, c:] * pow(int(M[piv_row, c]), -1, p), p)
        M[piv_row, c:] = row
        factors = M[:, c].copy()
        factors[piv_row] = 0
        nzr = np.flatnonzero(factors)
        if nzr.size:
            M[nzr, c:] = reduce_mod(M[nzr, c:] - factors[nzr, None] * row, p)
        pivots.append(c)
        piv_row += 1
        if piv_row == rows:
            break
    return pivots, M


def support_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The connected components of the bipartite nonzero pattern of M, in
    the order of their first rows, as the (G, m) rows and (G, n) columns of
    each, ascending and padded with -1; rows and columns without a nonzero
    are in none.  Label propagation with pointer jumping: each row takes the
    least row label of its columns until none changes."""
    r, c = np.nonzero(M)
    label, new = None, np.arange(M.shape[0])
    while label is None or (new != label).any():
        label, col = new, np.full(M.shape[1], M.shape[0])
        np.minimum.at(col, c, label[r])
        new = label.copy()
        np.minimum.at(new, r, col[c])
        new = new[new]
    groups: dict = {}  # by root, the least row: in the order of first rows
    for k, (used, root) in enumerate(((M.any(axis=1), label), (M.any(axis=0), col))):
        roots = root.tolist()
        for i in np.flatnonzero(used).tolist():
            groups.setdefault(roots[i], ([], []))[k].append(i)
    return tuple(_padded([g[k] for g in groups.values()]) for k in (0, 1))


def _padded(lists: list) -> np.ndarray:
    """The lists as the rows of an int64 array, padded with -1."""
    width = max(map(len, lists), default=0)
    padded = [x + [-1] * (width - len(x)) for x in lists]
    return np.array(padded, dtype=np.int64).reshape(len(lists), width)


def block_ranks_mod_p(S: np.ndarray, p: int) -> np.ndarray:
    """The rank modulo a prime p of each matrix of a (G, m, n) float64
    stack of residues in (-p, p): at most the rank over Q of any integer
    matrix it reduces, since a minor that vanishes over Z vanishes mod p.

    The matrices are eliminated together, one column of each per step
    (Dumas, Giorgi & Pernet 2008), pivoting on the column's entry of largest
    absolute value: row * pivot - factor * pivot row needs no inverse,
    clears the column and the pivot row, and is at most 2 (p - 1)^2 before
    reduce_mod.  DimensionMismatch for a prime where that passes reduce_mod's
    bound (_reduce_bound)."""
    if 2 * (p - 1) ** 2 > _reduce_bound(p):
        raise DimensionMismatch(f"eliminating residues mod {p} is not exact in float64")
    if S.shape[2] > S.shape[1]:
        S = S.transpose(0, 2, 1)
    g, pivots = np.arange(S.shape[0]), np.zeros((S.shape[2], S.shape[0]))
    for pivot in pivots:
        col = S[:, :, 0]
        at = np.abs(col).argmax(axis=1)
        pivot[:] = col[g, at]
        prow = S[g, at, 1:]
        S = S[:, :, 1:] * np.where(pivot == 0, 1, pivot)[:, None, None]
        S -= col[:, :, None] * prow[:, None, :]
        S = reduce_mod(S, p)
    return np.count_nonzero(pivots, axis=0)


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


def _free_columns(pivots: list[int], cols: int) -> list[int]:
    taken = set(pivots)
    return [c for c in range(cols) if c not in taken]


def _lift(residues: np.ndarray, modulus: int, pivots, free) -> np.ndarray | None:
    """Rational reconstruction of the RREF coefficients: C as Fractions,
    or None at the first entry that has none.  Entries left of their row's
    pivot are zero in any RREF and are set so here."""
    zero = (np.array(free)[None, :] < np.array(pivots)[:, None]).ravel().tolist()
    C = []
    for v, z in zip(residues.ravel().tolist(), zero):
        q = Fraction(0) if z else _rat_reconstruct(v, modulus)
        if q is None:
            return None
        C.append(q)
    return np.array(C, dtype=object).reshape(residues.shape)


def _hadamard_bound(M: np.ndarray) -> int:
    """An integer at least |det| of every square submatrix of the integer
    matrix M: the product of the Euclidean norms of its rows, or of its
    columns, each taken at least 1, whichever is smaller, rounded up."""
    sq = M.astype(object) ** 2
    prods = [math.prod(max(1, v) for v in sq.sum(axis=a).tolist()) for a in (0, 1)]
    return math.isqrt(min(prods) - 1) + 1


def relation_holds(M: np.ndarray, pivots, free, C: np.ndarray) -> bool:
    """M[:, free] == M[:, pivots] @ C exactly, for an integer M and the
    Fraction C of an echelon: the integer check M[:, free] * den ==
    M[:, pivots] @ (C * den), one denominator per free column.

    For (pivots, C) = echelon(A), A of any rank, the x with x[free] =
    x[pivots] @ C form a space of dimension len(pivots) = rank A that holds
    every row of A, so the row span of A: this checks each row of M in it."""
    qs = C.ravel().tolist()
    nums = np.array([q.numerator for q in qs], dtype=object).reshape(C.shape)
    qdens = np.array([q.denominator for q in qs], dtype=object).reshape(C.shape)
    dens = np.lcm.reduce(qdens, axis=0) if C.shape[0] else np.ones(C.shape[1], dtype=object)
    C_int = nums * (dens // qdens)
    return bool(np.array_equal(M[:, free] * dens, int_matmul(M[:, pivots], C_int)))


def echelon(A: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Leftmost pivot columns of A over Q and the exact Fraction matrix C
    with A[:, free] = A[:, pivots] @ C, free the other columns in order.

    A is cleared once to an integer matrix M, so no prime divides a
    denominator, and is int64 when certified (the int64 rule) for its
    residues and the integer check.  Modular RREF of M, at the primes below
    2^21 in turn, proposes the pivots and C; CRT and rational
    reconstruction lift C, and one integer product proves it.  The proof:
    pivot columns independent mod p are independent over Q, and C is zero
    left of each pivot, so every free column lies in the span of the pivot
    columns to its left; the verified pivots are therefore the leftmost
    basis of the column space.  Without free columns the nonzero pivot
    minor mod p is the whole proof.  Each prefix of columns has a rank mod p
    at most its rank over Q, so more pivots, then earlier ones, are nearer
    the true ones: a prime with fewer or later pivots than one seen before
    is unlucky and skipped, and a better one restarts the CRT.

    A lift is tried when the count of primes that agree on the pivots
    reaches 1, 2, 4, 8, ..., so the reconstructions cost at most about
    twice those of the last one.  After the first failed try, H is the
    Hadamard bound of M: every minor of M is at most H.  A prime is unlucky
    only if it divides a nonzero pivot minor, so the unlucky primes multiply
    to at most H.  Every entry of C is a ratio of two minors, so at most H
    above and below, and reconstruction recovers it once the agreeing
    primes multiply to more than 2 H^2.  Once all the primes drawn multiply
    to more than 2 H^3, the agreeing ones do, and a lift is tried there
    whatever the count: if it fails the integer check, the modular and the
    exact arithmetic disagree, and InternalInconsistency is raised.
    """
    cols = A.shape[1]
    M = A if A.dtype.kind in "iu" else to_int_scaled(A)[0]
    M = certified(M, max_abs(M))
    best: list[int] | None = None
    drawn, limit = 1, None
    for p in _residue_primes(21):
        drawn *= p
        pivots, R = _modp_rref((M % p).astype(np.float64), p)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, free, residues, modulus, agree = pivots, _free_columns(pivots, cols), None, 1, 0
            if not free:
                return pivots, np.empty((len(pivots), 0), dtype=object)
        if pivots == best:
            vals = R[: len(pivots)][:, free].astype(np.int64).astype(object)  # ints for the CRT
            if residues is None:
                residues = vals
            else:
                residues = residues + modulus * ((vals - residues) * pow(modulus, -1, p) % p)
            modulus *= p
            agree += 1
        if (limit is not None and drawn > limit) or (pivots == best and agree & (agree - 1) == 0):
            C = _lift(residues, modulus, best, free)
            if C is not None and relation_holds(M, best, free, C):
                return best, C
            if limit is None:
                limit = 2 * _hadamard_bound(M) ** 3
            if drawn > limit:
                raise InternalInconsistency(
                    f"no verified lift over {drawn.bit_length()}-bit primes, past the "
                    f"{limit.bit_length()}-bit bound 2 H^3 that a correct lift meets")
    raise DimensionMismatch("the primes below 2^21 do not reach the Hadamard bound")


def rank_exact(A: np.ndarray) -> int:
    """Exact rank over Q: the pivot count of A or of its transpose,
    whichever is tall (so fewer free columns are lifted)."""
    rows, cols = A.shape
    return len(echelon(A if rows >= cols else A.T)[0])


def nullspace_exact(A: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the right nullspace over Q: for each free column f of
    echelon(A), e_f minus column f of C placed on the pivot rows."""
    pivots, C = echelon(A)
    cols = A.shape[1]
    basis = []
    for j, f in enumerate(_free_columns(pivots, cols)):
        v = fzeros((cols,))
        v[f] = Fraction(1)
        v[pivots] = -C[:, j]
        basis.append(v)
    return basis


def inverse(A: np.ndarray) -> np.ndarray:
    """Exact inverse of a square matrix, the C of echelon([A | 1]);
    DimensionMismatch if A is singular."""
    n = A.shape[0]
    pivots, C = echelon(np.concatenate([A, feye(n)], axis=1))
    if pivots != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return C
