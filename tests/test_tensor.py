import random
from fractions import Fraction

import numpy as np
import pytest

from twistfusion.errors import DimensionMismatch, IndexOutOfRange, NotInvariant, SingularParameter
from twistfusion.exactnum import Poly
from twistfusion.linalg import feye, fzeros, mat_equal, to_int_scaled
from twistfusion import tensor as tensor_mod
from twistfusion.reference import (
    embed_matrix,
    embed_two_leg,
    partial_trace_first,
    permutation_op,
    ratfunc_matrix,
    restrict,
)
from twistfusion.tensor import (
    Basis,
    FrameBlock,
    GForm,
    MatrixLaurentSeries,
    TensorOperator,
    _WindowExhausted,
    _slot_rest_index,
    flip,
    image_basis,
    reversal_index,
    structural_ops,
    transpose_legs,
)

FORMS = [
    GForm.orthogonal(2),
    GForm.orthogonal(3),
    GForm.orthogonal(4),
    GForm.symplectic(2),
    GForm.symplectic(4),
]


def rand_op(rng, dims):
    D = 1
    for d in dims:
        D *= d
    mat = np.array(
        [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(D)] for _ in range(D)],
        dtype=object,
    )
    return TensorOperator(mat, dims)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.kind}{f.N}")
def test_structural_identities(form):
    N = form.N
    P, Q = structural_ops(form)
    assert P @ P == TensorOperator.identity((N, N))
    assert Q @ Q == N * Q
    swap = permutation_op([2, 1], N)
    assert swap @ Q @ swap == Q  # Q_21 = Q


def test_embed_identity_slots():
    P, _ = structural_ops(GForm.orthogonal(2))
    assert embed_two_leg(P, 1, 2, 2) == P
    assert embed_two_leg(P, 2, 1, 2) == P  # flip is symmetric under slot exchange


def test_embed_against_kron_oracle():
    form = GForm.symplectic(2)
    N = 2
    _, Q = structural_ops(form)
    emb = embed_two_leg(Q, 1, 3, 3)
    # independent construction: loop over all indices directly
    D = N**3
    oracle = fzeros((D, D))
    for x in range(D):
        x1, x2, x3 = x // (N * N), (x // N) % N, x % N
        for y in range(D):
            y1, y2, y3 = y // (N * N), (y // N) % N, y % N
            if x2 == y2:
                oracle[x, y] = Q.mat[x1 * N + x3, y1 * N + y3]
    assert mat_equal(emb.mat, oracle)
    # spec example vector: apply to e1 (x) e2 (x) e1
    v = fzeros((D, 1))
    v[0 * 4 + 1 * 2 + 0, 0] = Fraction(1)
    assert mat_equal(emb.mat @ v, oracle @ v)


def test_embed_errors():
    P, _ = structural_ops(GForm.orthogonal(2))
    with pytest.raises(IndexOutOfRange):
        embed_two_leg(P, 1, 1, 3)
    with pytest.raises(IndexOutOfRange):
        embed_two_leg(P, 0, 2, 3)
    with pytest.raises(IndexOutOfRange):
        embed_two_leg(P, 1, 4, 3)


def reversal_op(n: int, N: int) -> TensorOperator:
    """sigma_hat_n for the order-reversing permutation i -> n+1-i."""
    return TensorOperator(feye(N**n)[reversal_index(N, 0, n)], (N,) * n)


def test_permutation_basics():
    N = 2
    assert permutation_op([1, 2, 3], N) == TensorOperator.identity((N,) * 3)
    P, _ = structural_ops(GForm.orthogonal(N))
    assert reversal_op(2, N) == P  # sigma_hat_2 is the flip
    s3 = reversal_op(3, N)
    assert s3 @ s3 == TensorOperator.identity((N,) * 3)


def test_permutation_homomorphism():
    # fixed convention: composition of transpositions matches matrix product
    N = 2
    a = permutation_op([2, 1, 3], N)
    b = permutation_op([1, 3, 2], N)
    # sigma = a after b: apply b then a
    comp = [0] * 3
    pa, pb = [2, 1, 3], [1, 3, 2]
    for k in range(3):
        comp[k] = pa[pb[k] - 1]
    assert a @ b == permutation_op(comp, N)


def test_transpose_legs_examples():
    form = GForm.orthogonal(2)
    P, _ = structural_ops(form)
    assert transpose_legs(P, {1, 2}, form) == P
    rng = random.Random(5)
    A = rand_op(rng, (2, 2))
    assert transpose_legs(A, set(), form) == A
    for legs in ({1}, {2}, {1, 2}):
        assert transpose_legs(transpose_legs(A, legs, form), legs, form) == A


@pytest.mark.parametrize("form", [GForm.orthogonal(2), GForm.symplectic(2)], ids=lambda f: f.kind)
def test_transpose_antiautomorphism(form):
    rng = random.Random(9)
    n = 2
    legs = {1, 2}
    for _ in range(4):
        A = rand_op(rng, (2, 2))
        B = rand_op(rng, (2, 2))
        lhs = transpose_legs(A @ B, legs, form)
        rhs = transpose_legs(B, legs, form) @ transpose_legs(A, legs, form)
        assert lhs == rhs


def _plain_row_reduce_rank(mat):
    """Independent oracle: plain Fraction Gaussian elimination."""
    M = [[Fraction(v) for v in row] for row in mat]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if M[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [v * inv for v in M[rank]]
        for r in range(rows):
            if r != rank and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def test_image_basis_sizes():
    N = 2
    P, _ = structural_ops(GForm.orthogonal(N))
    ident = TensorOperator.identity((N, N))
    assert image_basis(ident).size == 4
    anti = ident - P
    sym = ident + P
    assert image_basis(anti).size == 1
    assert image_basis(sym).size == 3
    rng = random.Random(3)
    for _ in range(5):
        A = rand_op(rng, (2, 2))
        assert image_basis(A).size == _plain_row_reduce_rank(A.mat)


def test_restrict_examples():
    N = 2
    P, _ = structural_ops(GForm.orthogonal(N))
    ident = TensorOperator.identity((N, N))
    b_anti = image_basis(ident - P)
    b_sym = image_basis(ident + P)
    r = restrict(ident, b_sym, b_sym)
    assert r == TensorOperator.identity((3,))
    r = restrict(P, b_anti, b_anti)
    assert r.mat[0, 0] == Fraction(-1)
    with pytest.raises(NotInvariant):
        restrict(P, b_anti, b_sym)


def test_partial_trace_simple_tensor():
    rng = random.Random(1)
    dW, dZ = 2, 3
    Xm = rand_op(rng, (dW,)).mat
    Ym = rand_op(rng, (dZ,)).mat
    M = TensorOperator(np.kron(Xm, Ym), (dW, dZ))
    traced, contr = partial_trace_first(M, dW)
    trX = sum(Xm[i, i] for i in range(dW))
    assert mat_equal(traced.mat, trX * Ym)
    A = rand_op(rng, (dW,)).mat
    trAX = sum((A @ Xm)[i, i] for i in range(dW))
    assert mat_equal(contr(A), trAX * Ym)


def test_partial_trace_flip_is_identity_map():
    d = 3
    _, contr = partial_trace_first(flip(d), d)
    rng = random.Random(2)
    A = rand_op(rng, (d,)).mat
    assert mat_equal(contr(A), A)


def test_partial_trace_identity():
    d = 2
    M = TensorOperator.identity((d, d))
    _, contr = partial_trace_first(M, d)
    rng = random.Random(4)
    A = rand_op(rng, (d,)).mat
    trA = sum(A[i, i] for i in range(d))
    assert mat_equal(contr(A), trA * feye(d))


def test_operator_json_serialization():
    P, _ = structural_ops(GForm.orthogonal(2))
    data = P.to_json()
    assert data["dims"] == [2, 2]
    assert data["entries"][0][0] == "1" and data["entries"][0][1] == "0"
    assert data["entries"][1][2] == "1"


def test_basis_kron_and_solver():
    b1 = Basis(2, [np.array([Fraction(1), Fraction(1)], dtype=object)])
    b2 = Basis(2, [np.array([Fraction(1), Fraction(0)], dtype=object),
                   np.array([Fraction(0), Fraction(1)], dtype=object)])
    bk = Basis.kron(b1, b2)
    assert bk.size == 2 and bk.ambient == 4
    v = np.array([[1], [0], [1], [0]], dtype=object)  # bk.vectors[0] as an integer column
    assert mat_equal(bk.vectors[0], v[:, 0])
    sol = bk.solve(v)
    assert sol is not None and sol[0, 0] == 1 and sol[1, 0] == 0


# ---------------------------------------------------------------------------
# slot-wise Laurent products against the dense embedding

DIMS3 = (2, 3, 4)


def rand_series(rng, n, length, exact_tail, order):
    """Random integer n x n coefficients over one random Fraction scale;
    the second coefficient is zero."""
    coeffs = []
    for k in range(length):
        mat = np.zeros((n, n), dtype=object)
        if k != 1:
            for idx in np.ndindex(n, n):
                if rng.random() < 0.6:
                    mat[idx] = rng.randint(-9, 9)
        coeffs.append(mat)
    scale = Fraction(rng.randint(1, 9), rng.choice([1, 2, 5, 7]))
    return MatrixLaurentSeries(order, coeffs, scale, exact_tail)


def dense_embedded(series, slots, dims):
    """The oracle: every block coefficient embedded as a dense D x D matrix."""
    coeffs = [embed_matrix(c, slots, dims, zero=0) for c in series.coeffs]
    return MatrixLaurentSeries(series.order, coeffs, series.scale, series.exact_tail)


def assert_series_equal(a, b):
    assert (a.order, a.exact_tail, len(a.coeffs)) == (b.order, b.exact_tail, len(b.coeffs))
    for x, y in zip(a.coeffs, b.coeffs):
        assert mat_equal(x * a.scale, y * b.scale)


@pytest.mark.parametrize("slots", [(2, 0), (1,), (0, 1, 2)])
@pytest.mark.parametrize("left_exact,block_exact",
                         [(True, True), (True, False), (False, True), (False, False)])
def test_slotwise_product_matches_dense_embedding(slots, left_exact, block_exact):
    rng = random.Random(f"{slots} {left_exact} {block_exact}")
    D = 2 * 3 * 4
    ds = int(np.prod([DIMS3[s] for s in slots]))
    left = rand_series(rng, D, 3, left_exact, order=-1)
    block = rand_series(rng, ds, 4, block_exact, order=2)
    got = left @ block.embedded(slots, DIMS3)
    assert got.slot_map is None
    assert got.scale == left.scale * block.scale
    assert_series_equal(got, left @ dense_embedded(block, slots, DIMS3))
    start = MatrixLaurentSeries.identity(D) @ block.embedded(slots, DIMS3)
    assert_series_equal(start, dense_embedded(block, slots, DIMS3))


def test_slotwise_product_window_exhausted():
    rng = random.Random(5)
    left = rand_series(rng, 24, 2, False, order=0)
    block = rand_series(rng, 8, 3, True, order=0)
    for right in (block.embedded((2, 0), DIMS3), dense_embedded(block, (2, 0), DIMS3)):
        prod = left @ right
        assert len(prod.coeffs) == 2
        with pytest.raises(_WindowExhausted):
            prod.coefficient(2)
    zero = MatrixLaurentSeries(0, [np.zeros((8, 8), dtype=object)] * 3, Fraction(3, 5))
    for right in (zero.embedded((2, 0), DIMS3), dense_embedded(zero, (2, 0), DIMS3)):
        with pytest.raises(_WindowExhausted):
            (left @ right).trimmed()


def test_slot_map_is_shared_and_read_only():
    a = _slot_rest_index((2, 0), DIMS3)
    assert _slot_rest_index([2, 0], list(DIMS3)) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1
    assert _slot_rest_index((0, 2), DIMS3) is not a


def test_embedded_series_shapes_checked():
    rng = random.Random(6)
    block = rand_series(rng, 8, 2, True, order=0)
    with pytest.raises(DimensionMismatch):
        block.embedded((1,), DIMS3)
    emb = block.embedded((2, 0), DIMS3)
    with pytest.raises(DimensionMismatch):
        emb @ emb
    with pytest.raises(DimensionMismatch):
        MatrixLaurentSeries.identity(12) @ emb


# ---------------------------------------------------------------------------
# exact block orders in from_frames

@pytest.mark.parametrize("window,exact", [(1, False), (2, False), (3, True), (5, True)])
def test_from_frames_drops_leading_zero_frames(window, exact):
    """Two zero frames, then three nonzero ones: the order is 2, and the
    series keeps ``window`` frames from there, exact when all three fit."""
    rng = random.Random(window)
    n, k0 = 3, 2
    frames = [np.zeros((n, n), dtype=object) for _ in range(k0)]
    for _ in range(3):
        fr = np.zeros((n, n), dtype=object)
        for idx in np.ndindex(n, n):
            fr[idx] = rng.randint(-9, 9)
        frames.append(fr)
    scale = Fraction(4, 7)
    series = MatrixLaurentSeries.from_frames(frames, scale, window)
    assert (series.order, series.scale, series.exact_tail) == (k0, scale, exact)
    known = min(window, 3)
    assert len(series.coeffs) == known
    for e in range(-1, k0 + 5):
        if e < k0 or e >= k0 + 3 and exact:
            assert mat_equal(series.coefficient(e), np.zeros((n, n), dtype=object))
        elif e < k0 + known:
            assert mat_equal(series.coefficient(e), frames[e])
        else:
            with pytest.raises(_WindowExhausted):
                series.coefficient(e)


def test_from_frames_all_zero_frames():
    frames = [np.zeros((2, 2), dtype=object)] * 3
    series = MatrixLaurentSeries.from_frames(frames, Fraction(2, 3), 2)
    assert series.exact_tail and series.order == 0
    assert mat_equal(series.trimmed().coefficient(0), frames[0])


def test_frame_block_views_agree():
    # (F0 + F1 x + F2 x^2) / ((x - 1/2)(x + 3)) on legs (2, 2)
    rng = random.Random(8)
    frames = [np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                        for _ in range(4)], dtype=object) for _ in range(3)]
    mats, scale = to_int_scaled(np.array(frames))
    fb = FrameBlock(list(mats), scale, Poly((Fraction(-3, 2), Fraction(5, 2), 1)), (2, 2))
    sym = ratfunc_matrix(fb)
    for x0 in (Fraction(0), Fraction(2, 7), Fraction(-5)):
        value = fb.at(x0)
        assert value.dims == (2, 2)
        assert all(value.mat[idx] == sym[idx].eval(x0) for idx in np.ndindex(4, 4))
        ints = fb.at_ints([x0])[0]
        r, c = next(idx for idx, v in np.ndenumerate(ints) if v != 0)
        assert mat_equal(ints * (value.mat[r, c] / ints[r, c]), value.mat)
    K = 4
    for k, coeff in enumerate(fb.at_infinity(K)):
        expect = [[sym[r, c].series_at_infinity(K)[k] for c in range(4)] for r in range(4)]
        assert mat_equal(coeff.to_fractions(), np.array(expect, dtype=object))
    for pole in (Fraction(1, 2), Fraction(-3)):
        with pytest.raises(SingularParameter):
            fb.at(pole)
        with pytest.raises(SingularParameter):
            fb.at_ints([pole])[0]


@pytest.mark.parametrize("s", [0, 1, 2, -1])
@pytest.mark.parametrize("t", [Fraction(-7, 5), Fraction(0), Fraction(3),
                               Fraction(10**12 + 39, 10**18 + 9)], ids=str)
def test_substituted_is_the_numerator_at_the_affine_argument(t, s):
    # N(x) = scale * (F0 + F1 x + F2 x^2 + F3 x^3) at x = t + s*y, over den(y)
    rng = random.Random(11)
    frames = [np.array([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)], dtype=object)
              for _ in range(4)]
    scale = Fraction(3, 14)
    den = Poly((Fraction(-1, 2), 1))
    fb = FrameBlock(frames, scale, Poly.const(1), (2, 2)).substituted(t, s, den)
    assert fb.den == den and fb.dims == (2, 2)
    assert len(fb.frames) == (1 if s == 0 else 4)
    # integer-valued frames, int64 or Python ints (the int64 rule)
    assert all(fr.dtype == np.int64 or all(type(v) is int for v in fr.flat) for fr in fb.frames)
    for y in (Fraction(0), Fraction(2, 9), Fraction(-5, 3)):
        x = t + s * y
        expect = sum(fr * x**m for m, fr in enumerate(frames)) * (scale / den.eval(y))
        assert mat_equal(fb.at(y).mat, expect)


@pytest.mark.parametrize("p", [2, 3, 2097143])
@pytest.mark.parametrize("s", [0, 1, 2, -1])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(-7, 5), Fraction(3), Fraction(2, 3)], ids=str)
def test_residue_is_the_lowest_substituted_frame_mod_p(t, s, p):
    # G(x) = F x^2 (x - 3): its own lowest frame is frame 2, and at t = 3
    # frame 0 of G(t + s*y) vanishes exactly, so the residue cannot tell the
    # lowest frame and is None
    rng = random.Random(12)
    F = np.array([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)], dtype=object)
    fb = FrameBlock([0 * F, 0 * F, -3 * F, F], Fraction(3, 14), Poly.const(1), (2, 2))
    exact = fb.substituted(t, s, Poly.const(1))
    k0 = next((k for k, fr in enumerate(exact.frames) if fr.any()), None)
    (k,), (R,) = fb.lowest_frames([t], s, p)
    if k0 is None or (t != 0 or s == 0) and not (exact.frames[0] % p).any():
        assert k is None
    else:
        assert k == k0 and R.dtype == np.float64 and np.abs(R).max() < p
        assert np.array_equal(R % p, exact.frames[k0] % p)


# ---------------------------------------------------------------------------
# the int64 rule: each site works in int64 at its bound, below 2^62, and on
# Python ints one step past it, with the same exact result

_LIMIT = 1 << 62


def _ints(rows) -> np.ndarray:
    return np.array(rows, dtype=object)


def _is_exact(got, expect) -> bool:
    return got.shape == expect.shape and all(int(a) == b for a, b in zip(got.flat, expect.flat))


@pytest.mark.parametrize("y,path", [((1 << 61) - 1, np.int64), (1 << 61, object)])
def test_laurent_sum_int64_boundary(y, path):
    # coefficient 1 of (1 + t)(y + y t) sums two products of bound y each
    one = MatrixLaurentSeries(0, [_ints([[1]]), _ints([[1]])], Fraction(1), exact_tail=True)
    ys = MatrixLaurentSeries(0, [_ints([[y]]), _ints([[y]])], Fraction(1), exact_tail=True)
    coeff = (one @ ys).coeffs[1]
    assert 2 * y < _LIMIT if path is np.int64 else 2 * y >= _LIMIT
    assert coeff.dtype == path and _is_exact(coeff, _ints([[2 * y]]))


@pytest.mark.parametrize("top,path", [((_LIMIT - 1) // 3, True), ((_LIMIT - 1) // 3 + 1, False)])
def test_substituted_int64_boundary(top, path, monkeypatch):
    # D = 1 at t = 1, s = 1: the bound top * (|p| + q (1 + |s|))^D is 3 top
    fb = FrameBlock([_ints([[top], [1]]), _ints([[top], [-1]])], Fraction(1), Poly.const(1), (2,))
    seen = []
    certified = tensor_mod.certified

    def recording(A, bound):
        seen.append(bound < _LIMIT)
        return certified(A, bound)

    monkeypatch.setattr(tensor_mod, "certified", recording)
    out = fb.substituted(Fraction(1), 1, Poly.const(1))
    assert all(seen) == path
    assert _is_exact(out.frames[0], _ints([[2 * top], [0]]))
    assert _is_exact(out.frames[1], _ints([[top], [-1]]))


@pytest.mark.parametrize("top,path", [((_LIMIT - 1) // 3, np.int64), ((_LIMIT - 1) // 3 + 1, object)])
def test_horner_int64_boundary(top, path):
    # at x0 = 2 the Horner bound top * (|p| + q)^deg is 3 top
    fb = FrameBlock([_ints([[top, 1], [0, 0]]), _ints([[top, 0], [0, 0]])], Fraction(1),
                    Poly.const(1), (2,))
    got = fb.at_ints([Fraction(2)])[0]
    assert got.dtype == path and _is_exact(got, _ints([[3 * top, 1], [0, 0]]))
    value = fb.at(Fraction(2)).mat
    assert mat_equal(value, _ints([[3 * top, 1], [0, 0]])) and type(value[0, 0]) is Fraction


@pytest.mark.parametrize("top,path", [((_LIMIT - 1) // 3, np.int64), ((_LIMIT - 1) // 3 + 1, object)])
def test_at_infinity_int64_boundary(top, path):
    # 1 / (u + 2) = u^-1 (1 - 2 u^-1 + ...): to order 1 the bound is
    # top * (1 + 2); the u^-1 coefficient is F0 - 2 F1
    fb = FrameBlock([_ints([[top], [1]]), _ints([[top], [0]])], Fraction(1),
                    Poly((Fraction(2), Fraction(1))), (2,))
    c0, c1 = fb.at_infinity(1)
    assert c0.mat.dtype == c1.mat.dtype == path
    assert _is_exact(c0.mat, _ints([[top], [0]])) and _is_exact(c1.mat, _ints([[-top], [1]]))


@pytest.mark.parametrize("top,path", [((1 << 60) - 1, np.int64), (1 << 60, object)])
def test_transpose_legs_int64_boundary(top, path):
    # the cleared symplectic form on one leg of dimension 2: the bound is
    # max|A| * N^2 max|g| max|g^-1| = 4 top
    form = GForm("sp", 2, np.array([[0, 1], [-1, 0]]), np.array([[0, -1], [1, 0]]))
    A = np.arange(16).reshape(4, 4) - 8
    A[0, 3] = top
    got = transpose_legs(TensorOperator(A.astype(np.int64), (2, 2)), {1}, form).mat
    expect = transpose_legs(TensorOperator(A.astype(object), (2, 2)), {1}, form).mat
    assert got.dtype == path and _is_exact(got, expect)
    assert any(abs(v) == top for v in expect.flat)
