import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistfusion import linalg
from twistfusion.errors import DimensionMismatch, InternalInconsistency
from twistfusion.tensor import Basis


def _thirds_of_rank_60() -> np.ndarray:
    """A 66 x 66 matrix of thirds: rows [I | X] / 3, then 6 sums of them."""
    rng = np.random.default_rng(7)
    top = np.concatenate([np.eye(60, dtype=int), rng.integers(-4, 5, (60, 6))], axis=1)
    low = rng.integers(-2, 3, (6, 60)) @ top
    return np.vectorize(lambda v: Fraction(int(v), 3), otypes=[object])(np.vstack([top, low]))


def _fraction_rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The reference: reduced row echelon form over Fraction, with the pivot
    column list."""
    M = A.copy()
    rows, cols = M.shape
    piv_row = 0
    pivots: list[int] = []
    for c in range(cols):
        sel = next((i for i in range(piv_row, rows) if M[i, c] != 0), None)
        if sel is None:
            continue
        if sel != piv_row:
            M[[sel, piv_row]] = M[[piv_row, sel]]
        M[piv_row] = M[piv_row] * (Fraction(1) / Fraction(M[piv_row, c]))
        for i in range(rows):
            if i != piv_row and M[i, c] != 0:
                M[i] = M[i] - M[i, c] * M[piv_row]
        pivots.append(c)
        piv_row += 1
        if piv_row == rows:
            break
    return M, pivots


def _reference(A: np.ndarray):
    """Pivots and C from Fraction RREF alone."""
    R, pivots = _fraction_rref(A)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    return pivots, R[: len(pivots)][:, free]


def _assert_matches_reference(A: np.ndarray):
    pivots, C = linalg.echelon(A)
    ref_pivots, ref_C = _reference(A)
    assert pivots == ref_pivots
    assert C.shape == ref_C.shape and linalg.mat_equal(C, ref_C)
    return pivots, C


def _record_echelon(monkeypatch) -> tuple[list, list]:
    """The primes echelon draws and the modulus of each reconstruction it
    tries: rebinds _modp_rref and _lift."""
    primes, moduli = [], []
    rref, lift = linalg._modp_rref, linalg._lift

    def counting_rref(M, p):
        primes.append(p)
        return rref(M, p)

    def counting_lift(residues, modulus, *args):
        moduli.append(modulus)
        return lift(residues, modulus, *args)

    monkeypatch.setattr(linalg, "_modp_rref", counting_rref)
    monkeypatch.setattr(linalg, "_lift", counting_lift)
    return primes, moduli


def test_rank_exact_when_every_prime_divides_a_denominator(monkeypatch):
    # the first prime drawn is 3, which divides every denominator of A: mod
    # 3 the entries of C cannot be reconstructed, and the later primes decide
    A = _thirds_of_rank_60()
    residue_primes = linalg._residue_primes
    monkeypatch.setattr(linalg, "_residue_primes",
                        lambda width: itertools.chain([3], residue_primes(width)))
    primes, _ = _record_echelon(monkeypatch)
    assert linalg.rank_exact(A) == 60
    assert linalg.rank_exact(A.T.copy()) == 60
    assert primes.count(3) == 2 and len(primes) > 2


_entries = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    # large entries need several primes before the lift verifies
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
)


@st.composite
def _rational_matrices(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(rows, cols)))
    L = np.array(draw(st.lists(_entries, min_size=rows * rank, max_size=rows * rank)),
                 dtype=object).reshape(rows, rank)
    R = np.array(draw(st.lists(_entries, min_size=rank * cols, max_size=rank * cols)),
                 dtype=object).reshape(rank, cols)
    A = linalg.fzeros((rows, cols))
    return A + L @ R if rank else A  # rank at most ``rank``, wide or tall


@settings(max_examples=80, deadline=None)
@given(_rational_matrices())
# rank 2 with 3 rows: the row span test needs no full row rank
@example(np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, Fraction(1, 2)]], dtype=object))
def test_echelon_matches_fraction_rref(A):
    pivots, C = _assert_matches_reference(A)
    assert linalg.rank_exact(A) == len(pivots)
    M, _ = linalg.to_int_scaled(A)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    combo = sum((k + 1) * M[k] for k in range(M.shape[0]))
    assert linalg.relation_holds(np.vstack([M, combo]), pivots, free, C)
    if free:
        off = np.zeros((1, A.shape[1]), dtype=int).astype(object)
        off[0, free[0]] = 1  # zero on the pivots, so outside the row span
        assert not linalg.relation_holds(off, pivots, free, C)
    null = linalg.nullspace_exact(A)
    assert len(null) == A.shape[1] - len(pivots)
    for v in null:
        assert linalg.is_zero_matrix(A @ v)


def _rank_mod_p(A, p: int) -> int:
    """The rank mod p of a matrix of residues in (-p, p), as the witness
    plan takes it: the components of its support (support_blocks) gathered
    into zero-padded blocks and eliminated together (block_ranks_mod_p)."""
    M = np.asarray(A, dtype=np.float64)
    rows, cols = linalg.support_blocks(M)
    S = M[rows[:, :, None], cols[:, None, :]] * ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :])
    return int(linalg.block_ranks_mod_p(S, p).sum())


@settings(max_examples=40, deadline=None)
@given(_rational_matrices())
def test_rank_mod_p_is_at_most_the_rank(A):
    M, _ = linalg.to_int_scaled(A)
    rank = linalg.rank_exact(A)
    for p in (2, 3, 2097143):
        R = (M % p).astype(np.float64)
        r = _rank_mod_p(R, p)
        assert r <= rank
        # the same residues with representatives in (-p, p) of either sign
        assert _rank_mod_p(R - p * (R > p // 2), p) == r


def test_rank_mod_p_drops_where_a_minor_vanishes():
    A = np.array([[1, 1, 4], [1, 3, 10]], dtype=object)  # minors 2, 6, -2
    assert [_rank_mod_p(A % p, p) for p in (2, 3, 5)] == [1, 2, 2]
    assert linalg.rank_exact(A) == 2


# the largest prime p that block_ranks_mod_p takes (2 (p - 1)^2 within
# reduce_mod's bound), and the next prime, which it refuses
_RANK_PRIME, _RANK_REFUSED = 67108859, 67108879


@st.composite
def _permuted_blocks(draw):
    """(A, p): blocks of residues in (-p, p) of any shape down the diagonal,
    an empty one giving zero rows or columns, rows and columns permuted, as
    object, int64 or float64 (whose integers below 2^53 are exact)."""
    p = draw(st.sampled_from([2, 3, 5, 2097143, _RANK_PRIME, _RANK_REFUSED]))
    entries = st.one_of(st.just(0), st.integers(-1, 1), st.integers(1 - p, p - 1))
    shapes = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    A = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=object)
    r0 = c0 = 0
    for r, c in shapes:
        A[r0:r0 + r, c0:c0 + c] = np.array(
            draw(st.lists(entries, min_size=r * c, max_size=r * c)), dtype=object
        ).reshape(r, c)
        r0, c0 = r0 + r, c0 + c
    rows = np.array(draw(st.permutations(range(A.shape[0]))), dtype=int)
    cols = np.array(draw(st.permutations(range(A.shape[1]))), dtype=int)
    dtype = draw(st.sampled_from([object, np.int64, np.float64]))
    return A[rows][:, cols].astype(dtype), p


@settings(max_examples=300, deadline=None)
@given(_permuted_blocks())
@example((np.zeros((3, 4), dtype=np.int64), 5))
@example((np.array([[0, 1, 0, -1]], dtype=object), 2))
@example((np.array([[0], [-2], [0]], dtype=np.float64), 3))
@example((np.array([[0], [3], [0]], dtype=np.float64), 5))
@example((np.array([[1 - _RANK_PRIME, _RANK_PRIME - 1], [_RANK_PRIME - 1, 1]]), _RANK_PRIME))
def test_rank_mod_p_matches_rref_on_permuted_blocks(case):
    A, p = case
    if p == _RANK_REFUSED:
        with pytest.raises(DimensionMismatch):
            _rank_mod_p(A, p)
        return
    assert _rank_mod_p(A, p) == len(linalg._modp_rref((A % p).astype(np.float64), p)[0])


def test_rank_mod_p_counts_a_block_that_loses_rank_only_mod_p():
    # blocks [[1, 1], [1, 3]] (determinant 2) and [[2, 1, 0], [1, 1, 1]] on
    # permuted rows and columns: modulo 2 only the first loses rank
    A = np.array([[0, 2, 0, 1, 0],
                  [1, 0, 1, 0, 0],
                  [0, 1, 0, 1, 1],
                  [1, 0, 3, 0, 0]], dtype=np.int64)
    assert linalg.support_blocks(A % 2)[0].shape[0] == 2
    assert [_rank_mod_p(A % p, p) for p in (2, 3)] == [3, 4]
    assert linalg.rank_exact(A.astype(object)) == 4


_P0 = linalg._PRIMES[0]


@pytest.mark.parametrize("rows", [
    [[1, 1, 2], [1, 1 + _P0, 2 + _P0]],  # rank 1 mod the first prime, 2 over Q
    [[1, 1, 0], [0, _P0, 1]],  # rank 2 mod it, but pivots [0, 2], not [0, 1]
])
def test_unlucky_first_prime(rows):
    A = np.array(rows, dtype=object)
    pivots, _ = _assert_matches_reference(A)
    assert pivots == [0, 1]


def test_perturbed_lift_is_rejected(monkeypatch):
    A = np.array([[2, 4, 1, 3], [1, 2, Fraction(1, 2), 5], [3, 6, Fraction(3, 2), 8]],
                 dtype=object)
    M, _ = linalg.to_int_scaled(A)
    H = linalg._hadamard_bound(M)
    # H bounds every minor of M
    for k in (1, 2, 3):
        for rows in itertools.combinations(range(3), k):
            for cols in itertools.combinations(range(4), k):
                sub = M[np.ix_(rows, cols)].astype(float)
                assert abs(round(np.linalg.det(sub))) <= H
    original = linalg._rat_reconstruct

    def perturbed(a, m):
        q = original(a, m)
        return None if q is None else q + Fraction(1, 7)

    monkeypatch.setattr(linalg, "_rat_reconstruct", perturbed)
    primes, _ = _record_echelon(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(InternalInconsistency):
        linalg.echelon(A)
    assert time.perf_counter() - t0 < 1.0
    # the integer check refused every lift, and echelon stopped at the first
    # prime past the bound 2 H^3
    assert math.prod(primes[:-1]) <= 2 * H**3 < math.prod(primes)


def _doubling_moduli(primes: list) -> list:
    """The moduli of the CRT over primes at 1, 2, 4, ... of them."""
    return [math.prod(primes[:k]) for k in range(1, len(primes) + 1) if k & (k - 1) == 0]


def _record_reconstructions(monkeypatch) -> list:
    """The (modulus, result) of every _rat_reconstruct call: rebinds it."""
    calls = []
    original = linalg._rat_reconstruct

    def recording(a, m):
        q = original(a, m)
        calls.append((m, q))
        return q

    monkeypatch.setattr(linalg, "_rat_reconstruct", recording)
    return calls


def test_lift_keeps_entries_confirmed_by_a_later_prime(monkeypatch):
    # A = [1 | C]: every coefficient lifts at the first prime but the last,
    # (2^60 + 1) / 3, which needs six primes of 21 bits; reconstruction is
    # tried at 1, 2, 4 and 8 primes, every try lifts each other entry to its
    # value in C, and the last try is exact
    C = np.array([[Fraction(k - 7, k % 5 + 1) for k in range(4)] for _ in range(6)], dtype=object)
    C[-1, -1] = Fraction(2**60 + 1, 3)
    A = np.concatenate([linalg.feye(6), C], axis=1)
    primes, moduli = _record_echelon(monkeypatch)
    calls = _record_reconstructions(monkeypatch)
    pivots, lifted = linalg.echelon(A)
    assert pivots == list(range(6)) and linalg.mat_equal(lifted, C)
    assert len(primes) == 8 and moduli == _doubling_moduli(primes)
    entries = C.ravel().tolist()
    for m in moduli:
        lifts = [q for n, q in calls if n == m]
        assert lifts[:-1] == entries[:-1]
    assert [q for _, q in calls[-len(entries):]] == entries
    assert [q for m, q in calls if m != moduli[-1]][-1] is None


def test_lift_reconstructs_only_the_open_entries(monkeypatch):
    # A = [1 | C] with coefficients that need one to four primes: a try
    # reconstructs the entries in order and stops at the first one still
    # open (no lift at its modulus), so none past it is reconstructed; the
    # tries at 1 and 2 primes stop there, the one at 4 lifts all of C
    primes = list(itertools.islice(linalg._residue_primes(21), 4))
    need = [1, 2, 3, 4, 1, 2, 1, 1]
    heights = [math.isqrt(math.prod(primes[:k]) // 2) for k in range(5)]
    C = np.array([[Fraction(heights[k - 1] + 1 + j) for k in need] for j in range(3)], dtype=object)
    A = np.concatenate([linalg.feye(3), C], axis=1)
    drawn, moduli = _record_echelon(monkeypatch)
    calls = _record_reconstructions(monkeypatch)
    pivots, lifted = linalg.echelon(A)
    assert pivots == [0, 1, 2] and linalg.mat_equal(lifted, C)
    assert drawn == primes and moduli == _doubling_moduli(primes)
    for k, m in zip((1, 2, 4), moduli):
        first_open = next((i for i, n in enumerate(need * 3) if n > k), C.size - 1)
        assert sum(n == m for n, _ in calls) == first_open + 1


def test_echelon_decides_past_twelve_primes(monkeypatch):
    # (2^300 + 1) / 3 needs primes whose product passes 2 (2^300 + 1)^2:
    # 29 of 21 bits, more than the twelve primes past which echelon once
    # fell back to Fraction elimination; the lift is tried at 1, 2, 4, 8, 16
    # and 32 agreeing primes, and no more are drawn
    C = np.array([[Fraction(2**300 + 1, 3), Fraction(-5, 2)], [Fraction(7), Fraction(1, 3)]],
                 dtype=object)
    A = np.concatenate([linalg.feye(2), C], axis=1)
    primes, moduli = _record_echelon(monkeypatch)
    _assert_matches_reference(A)
    need = next(k for k in itertools.count(1)
                if math.prod(itertools.islice(linalg._residue_primes(21), k)) > 2 * (2**300 + 1)**2)
    assert 12 < need <= len(primes) <= 1 << (need - 1).bit_length()
    assert moduli == _doubling_moduli(primes)


def test_echelon_matches_the_reference_on_wide_random_matrices():
    # the 40 x 60 matrices of rank 40 that tools/scale_probe.py --stages
    # echelon times: the lift stops at a doubling count or at the bound
    # 2 H^3, and equals Fraction elimination either way
    rng = np.random.default_rng(1)
    for bits in (20, 30, 40):
        A = rng.integers(-(1 << bits), 1 << bits, size=(40, 60), endpoint=True)
        pivots, C = linalg.echelon(A)
        ref_pivots, ref_C = _reference(A.astype(object))
        assert pivots == ref_pivots == list(range(40)) and linalg.mat_equal(C, ref_C)


@pytest.mark.parametrize("inner", [1, 27, 300])
def test_float_kernels_cover_twice_the_bound(inner):
    A = np.array([[5, -3], [2, 7 * 2**70]], dtype=object)
    exact = list(linalg.float_kernels([A[:, :1]], (1 << 53) - 1, inner))
    assert [p for _, p in exact] == [None] and exact[0][0][0].dtype == np.float64
    first = [p for _, p in linalg.float_kernels([A], 1 << 300, inner)][:3]
    # the last bound is just below the product of three primes, so those
    # three cover it but not twice it
    for bound in (1 << 53, 1 << 80, 1 << 300, math.prod(first) - 1):
        kernels = list(linalg.float_kernels([A], bound, inner))
        primes = [p for _, p in kernels]
        assert len(set(primes)) == len(primes)
        assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
        for (R,), p in kernels:
            # every value reduced, a sum of inner products of residues,
            # stays within what reduce_mod takes
            assert inner * (p - 1) ** 2 <= linalg._reduce_bound(p)
            assert R.dtype == np.float64 and np.array_equal(R, (A % p).astype(np.float64))
    # the width depends on inner alone: at 2^52 terms no prime is left
    with pytest.raises(DimensionMismatch):
        list(linalg.float_kernels([A], 1 << 60, 1 << 52))


# 94906249 and 94906297 are the primes on either side of 2^26.5, the
# largest that mod_matmul takes (p^2 <= 2^53) and the first it refuses
_TOP, _PAST = 94906249, 94906297


@pytest.mark.parametrize("p", [2097143, 2, _TOP])
def test_mod_matmul_matches_the_int64_product(p):
    # at the chunk length k and one past it, with the extreme residues
    # +-(p - 1) in rows 0 and 1 of A and column 0 of B, and in row 2 and
    # column 1 products alternately odd and even, whose sums are odd and
    # round past 2^53; k is the largest with k (p - 1)^2 + p - 1 <=
    # min(2^53 - p, (2^51 - 1) p): 2048 and 1, and 2^52 - 3 modulo 2, where
    # 2048 and 2049 run in one chunk
    rng = np.random.default_rng(p)
    k = {2097143: 2048, 2: 2048, _TOP: 1}[p]
    for inner in (k, k + 1):
        A = rng.integers(1 - p, p, size=(4, inner))
        B = rng.integers(1 - p, p, size=(inner, 3))
        A[0], A[1], A[2], B[:, 0] = p - 1, 1 - p, p - 2, p - 1
        B[:, 1] = p - 2 - np.arange(inner) % 2
        got = linalg.mod_matmul(A, B, p)
        assert got.dtype == np.float64 and np.all(np.abs(got) < p)
        assert np.array_equal(got.astype(np.int64) % p, A @ B % p)


def test_mod_matmul_refuses_the_first_prime_past_its_bound():
    assert linalg._is_prime(_TOP) and linalg._is_prime(_PAST)
    assert not any(linalg._is_prime(n) for n in range(_TOP + 1, _PAST))
    assert _TOP**2 <= 2**53 < _PAST**2
    with pytest.raises(DimensionMismatch):
        linalg.mod_matmul(np.ones((1, 1)), np.ones((1, 1)), _PAST)


def test_inverse_and_singular_inputs():
    A = np.array([[2, Fraction(1, 3), 0], [1, 1, 5], [0, Fraction(-2, 7), 1]], dtype=object)
    assert linalg.mat_equal(linalg.fdot(linalg.inverse(A), A), linalg.feye(3))
    singular = np.array([[1, 2], [Fraction(1, 2), 1]], dtype=object)
    with pytest.raises(DimensionMismatch):
        linalg.inverse(singular)
    deficient = np.array([[1, 2], [2, 4], [3, 6]], dtype=object)
    with pytest.raises(DimensionMismatch):
        Basis(3, deficient.T)


# ---------------------------------------------------------------------------
# solves in a basis and in a Kronecker basis (tensor.Basis, read off echelon)

def _fractions(rows) -> np.ndarray:
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


# canonical bases, B[rows] = I: pivot rows [1, 2] (row 0 is zero, left of
# every pivot) and [0, 2] (row 1 lies between the pivots)
_B1 = _fractions([[0, 0], [1, 0], [0, 1], ["1/2", "-2/3"]])
_B2 = _fractions([[1, 0], ["3/7", 0], [0, 1], [-1, "5/4"]])


def test_kron_solver_solves_as_the_dense_kron_basis():
    b1, b2 = Basis(4, _B1.T), Basis(4, _B2.T)
    assert (b1.rows, b2.rows) == ([1, 2], [0, 2])
    bk = Basis.kron(b1, b2)
    assert bk.rows == [4, 6, 8, 10]
    B = np.kron(_B1, _B2)
    dense = Basis(16, B.T)
    assert dense.rows == bk.rows
    assert linalg.mat_equal(bk.matrix(), B) and linalg.mat_equal(dense.matrix(), B)
    X = _fractions([[1, "-2/3", 0], ["5/7", 3, "1/2"], [0, 0, "-4/9"], [2, "1/11", 1]])
    # solve takes an integer right-hand side, B X = s * rhs, and returns
    # integer coordinates
    rhs, s = linalg.to_int_scaled(linalg.fdot(B, X))
    for basis in (bk, dense):
        got = basis.solve(rhs)
        assert all(type(v) is int for v in got.flat)
        assert linalg.mat_equal(got * s, X)
        col = basis.solve(rhs[:, 1:2])
        assert linalg.mat_equal(col * s, X[:, 1:2])
    off = rhs.copy()
    off[0, 2] += 1  # row 0 of kron(B1, B2) is zero
    e = np.zeros((16, 1), dtype=int).astype(object)
    e[15, 0] = 1
    # kron(v, w) with v = 2 B1[:, 0] in the span of B1 and w = e_1 outside
    # the span of B2: only the second factor's relations fail
    v, w = np.array([0, 2, 0, 1], dtype=object), np.array([0, 1, 0, 0], dtype=object)
    second = np.kron(v, w).reshape(16, 1)
    assert b1.solve(np.outer(v, w)) is not None and b2.solve(np.outer(w, v)) is None
    for rhs_bad in (off, e, second):
        assert bk.solve(rhs_bad) is None and dense.solve(rhs_bad) is None


@pytest.mark.parametrize("B", [
    _fractions([[0, 0], ["1/2", "1/3"], [2, "-1/5"]]),  # full rank, B[rows] != I
    _B1[:, ::-1],  # the canonical span, columns swapped
    2 * _B2,
])
def test_non_canonical_basis_is_refused(B):
    with pytest.raises(DimensionMismatch):
        Basis(B.shape[0], B.T)



# ---------------------------------------------------------------------------
# the int64 rule: each site works in int64 at its bound, below 2^62, and on
# Python ints one step past it, with the same exact result

_LIMIT = 1 << 62


@pytest.mark.parametrize("top,path", [(_LIMIT - 1, np.int64), (_LIMIT, object)])
def test_int_matmul_int64_boundary(top, path):
    # max|A| * max|B| * inner: the bound is top, and ScaledIntMatrix keeps
    # the dtype of the product while its Fraction view holds Python values
    A = np.array([[top], [-3]], dtype=object)
    B = np.array([[1, 0]], dtype=object)
    got = linalg.ScaledIntMatrix(A, Fraction(1, 3)) @ linalg.ScaledIntMatrix(B)
    assert got.mat.dtype == path and int(got.mat[0, 0]) == top
    assert type(got.to_fractions()[0, 0]) is Fraction and got.to_fractions()[0, 0] == Fraction(top, 3)
    cleared, scale = linalg.to_int_scaled(got.mat)
    assert scale == 1 and all(type(v) is int for v in cleared.flat)


@pytest.mark.parametrize("a,b", [(6361 * 69431, 20394401), (321, 28059810762433)],
                         ids=["2^53-1", "2^53+1"])
def test_int_matmul_float64_boundary(a, b):
    # a * b = 2^53 - 1 is exact in float64 and runs on BLAS; 2^53 + 1 is
    # not, and the bound sends it to int64; both on a stack of two
    A = np.array([[[a]], [[-a]]], dtype=object)
    B = np.array([[[b]], [[1]]], dtype=object)
    got = linalg.int_matmul(A, B)
    assert got.dtype == np.int64 and got.shape == (2, 1, 1)
    assert int(got[0, 0, 0]) == a * b and int(got[1, 0, 0]) == -a


def test_int_matmul_bound_is_the_row_sums_of_a():
    # max|A| max|B| inner is 2^63, but max|B| times the row sum of |A| is
    # 2^61 + 6, so the product is certified int64
    A = np.array([[2**60, 1, -1, 1]], dtype=object)
    B = np.array([[2], [1], [1], [1]], dtype=object)
    got = linalg.int_matmul(A, B)
    assert got.dtype == np.int64 and int(got[0, 0]) == 2**61 + 1


def test_primitive_part_of_a_stack():
    A = np.array([[[2, 4], [6, 8]], [[0, 0], [0, 0]], [[3, -9], [2**70 * 3, 3]]], dtype=object)
    got = linalg.primitive_part(A)
    assert all(np.array_equal(got[k], linalg.primitive_part(A[k])) for k in range(3))


@pytest.mark.parametrize("top,path", [(_LIMIT - 1, np.int64), (_LIMIT, object)])
def test_echelon_residues_int64_boundary(top, path, monkeypatch):
    # the cleared matrix is reduced mod p, and checked, from an int64 copy
    # exactly when its largest entry is certified
    A = np.array([[top, 0, top], [1, 1, 1], [2, 0, 2]], dtype=object)
    seen = []
    holds = linalg.relation_holds

    def recording(M, *args):
        seen.append(M.dtype)
        return holds(M, *args)

    monkeypatch.setattr(linalg, "relation_holds", recording)
    pivots, C = _assert_matches_reference(A)
    assert pivots == [0, 1] and seen == [path]
