from fractions import Fraction

import numpy as np
import pytest

from twistfusion.diagrams import SkewDiagram, column_tableau, parse_skew, ssyt_count
from twistfusion.errors import BoxCapExceeded, ShapeTooTall, SingularParameter, SlopeCollision
from twistfusion.exactnum import RatFunc
from twistfusion import fusion, linalg, reference
from twistfusion.fusion import (
    default_slopes,
    defining_action_product,
    fusion_operator,
    verify_fusion_invariants,
)
from twistfusion.reference import embed_two_leg, intertwining_check, yang_matrices
from twistfusion.linalg import fdot, feye, mat_equal
from twistfusion.tensor import (
    Basis,
    GForm,
    TensorOperator,
    image_basis,
    structural_ops,
)

BOX = SkewDiagram((1,))
VDOM = SkewDiagram((1, 1))
HDOM = SkewDiagram((2,))


def test_single_box_is_identity():
    F = fusion_operator(BOX, 3)
    assert F.matrix == TensorOperator.identity((3,))
    assert F.dim == 3


def test_empty_diagram_is_scalar_one():
    F = fusion_operator(SkewDiagram(()), 2)
    assert F.matrix.size == 1
    assert F.matrix.mat[0, 0] == 1
    assert F.dim == 1


@pytest.mark.parametrize("N", [2, 3])
def test_vertical_domino(N):
    P, _ = structural_ops(GForm.orthogonal(N))
    F = fusion_operator(VDOM, N)
    assert F.matrix == TensorOperator.identity((N, N)) - P
    assert F.dim == N * (N - 1) // 2


@pytest.mark.parametrize("N", [2, 3])
def test_horizontal_domino(N):
    P, _ = structural_ops(GForm.orthogonal(N))
    F = fusion_operator(HDOM, N)
    assert F.matrix == TensorOperator.identity((N, N)) + P
    assert F.dim == N * (N + 1) // 2


def test_square_shape_needs_regularization():
    assert fusion_operator(SkewDiagram((2, 2)), 2).dim == 1
    assert fusion_operator(SkewDiagram((2, 2)), 3).dim == 6


@pytest.mark.parametrize(
    "dia,N",
    [
        (VDOM, 2),
        (HDOM, 2),
        (SkewDiagram((2, 2), (1,)), 2),
        (SkewDiagram((2, 1)), 3),
        (SkewDiagram((2, 1), (1,)), 3),
    ],
)
def test_invariants(dia, N):
    rep = verify_fusion_invariants(fusion_operator(dia, N))
    assert rep.passed, rep
    assert rep.dim == ssyt_count(dia, N)


def test_invariants_symplectic_t():
    rep = verify_fusion_invariants(fusion_operator(SkewDiagram((2, 1)), 2), form=GForm.symplectic(2))
    assert rep.t_invariant


def _basis_vectors_equal(b1, b2) -> bool:
    return b1.size == b2.size and all(mat_equal(u, v) for u, v in zip(b1.vectors, b2.vectors))


def test_module_basis_depends_only_on_the_image(monkeypatch):
    omega = SkewDiagram((2, 2), (1,))  # two columns, so the reversed slopes differ
    F = fusion_operator(omega, 3)
    A = F.matrix
    # an invertible G = L U with Fraction pivots mixes the columns of A
    rng = np.random.default_rng(5)
    n = A.size
    L = np.tril(rng.integers(-2, 3, (n, n)), -1).astype(object) + feye(n)
    U = np.triu(rng.integers(-3, 4, (n, n)), 1).astype(object)
    U[range(n), range(n)] = [Fraction(j % 4 + 1, 3) for j in range(n)]
    bases = [image_basis(A), image_basis(3 * A),
             image_basis(TensorOperator(fdot(A.mat, fdot(L, U)), A.dims))]
    assert bases[0].size == F.dim
    assert all(_basis_vectors_equal(bases[0], b) for b in bases[1:])
    rows = bases[0].rows
    assert mat_equal(bases[0].matrix()[rows], feye(F.dim))
    alt = tuple(reversed(range(2, omega.n_cols + 2)))
    assert alt != default_slopes(omega)
    assert _basis_vectors_equal(fusion_operator(omega, 3, slopes=alt).module_basis,
                                F.module_basis)
    # so3 3,2,1/2,1 is the whole space (C^3)^(x)3: its basis is I, and a
    # solve in it, or in its Kronecker square, reads rows and multiplies nothing
    full = fusion_operator(parse_skew("3,2,1/2,1"), 3).module_basis
    assert mat_equal(full.matrix(), feye(27))
    products, int_matmul = [], linalg.int_matmul
    monkeypatch.setattr(linalg, "int_matmul", lambda *a: products.append(a) or int_matmul(*a))
    rhs = np.arange(729 * 2, dtype=np.int64).reshape(729, 2).astype(object)
    assert mat_equal(Basis.kron(full, full).solve(rhs), rhs) and products == []


def test_module_basis_is_built_and_solved_with_one_echelon(monkeypatch):
    # the echelon that finds the image is the basis's own: solving in the
    # module basis, or in its Kronecker square, runs no second elimination
    monkeypatch.setattr(fusion, "_cache", {})
    shapes, echelon = [], linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda A: shapes.append(A.shape) or echelon(A))
    F = fusion_operator(SkewDiagram((2, 1)), 3)
    basis = F.module_basis
    rhs, _ = linalg.to_int_scaled(F.matrix.mat)  # columns in the image
    X = basis.solve(rhs)
    assert X.shape == (F.dim, 27) and mat_equal(fdot(basis.matrix(), X), rhs)
    square, pair = Basis.kron(basis, basis), np.kron(rhs[:, :2], rhs[:, 2:3])
    assert mat_equal(fdot(square.matrix(), square.solve(pair)), pair)
    assert shapes == [(27, 27)]


def test_shape_too_tall():
    with pytest.raises(ShapeTooTall):
        fusion_operator(SkewDiagram((1, 1, 1)), 2)


def test_box_cap():
    with pytest.raises(BoxCapExceeded):
        fusion_operator(SkewDiagram((4, 3)), 3, box_cap=6)


def test_slope_validation():
    with pytest.raises(SlopeCollision):
        fusion_operator(SkewDiagram((2, 2)), 2, slopes=(1, 1))
    with pytest.raises(SlopeCollision):
        fusion_operator(SkewDiagram((2, 2)), 2, slopes=(1,))
    for slopes in ((Fraction(5, 2), 1), (2.5, 1)):
        with pytest.raises(SlopeCollision):
            fusion_operator(SkewDiagram((2, 2)), 2, slopes=slopes)
    alt = fusion_operator(SkewDiagram((2, 2)), 2, slopes=(5, 2))
    assert alt.matrix == fusion_operator(SkewDiagram((2, 2)), 2).matrix


def _times_sparse(A, E):
    """A @ E for object matrices, summing over nonzero products only."""
    out = np.empty(A.shape, dtype=object)
    out[...] = RatFunc.const(0)
    for r, c in zip(*np.nonzero(E != 0)):
        rows = np.nonzero(A[:, r] != 0)[0]
        out[rows, c] = out[rows, c] + A[rows, r] * E[r, c]
    return out


def _fusion_oracle(omega, N, slopes):
    """F from the product of the embedded breve Yang matrices as RatFunc
    matrices in x, with u_p = c_p + s_col(p) * x, evaluated at x = 0 once no
    pole remains."""
    ct = column_tableau(omega)
    n = omega.size
    x = RatFunc.x()
    u = [c + slopes[j - 1] * x for c, (_, j) in zip(ct.contents, ct.boxes)]
    form = GForm.orthogonal(N)
    out = TensorOperator.identity((N,) * n).map_entries(RatFunc.coerce).mat
    for p in range(n):
        for q in range(p + 1, n):
            Rb = yang_matrices(form, u[p], u[q])[2]
            out = _times_sparse(out, embed_two_leg(Rb, p + 1, q + 1, n).mat)
    assert all(v.den.eval(0) != 0 for v in out.flat)
    return TensorOperator(np.vectorize(lambda v: v.eval(0), otypes=[object])(out), (N,) * n)


@pytest.mark.parametrize("text,N", [("2,2", 2), ("2,2", 3), ("3,3/1", 2), ("2,1", 3)])
def test_fusion_operator_matches_ratfunc_product(text, N):
    # every case but 2,1 has a pair of boxes of equal content (a pole)
    omega = parse_skew(text)
    for slopes in (default_slopes(omega), tuple(reversed(range(2, omega.n_cols + 2)))):
        F = fusion_operator(omega, N, slopes=slopes)
        assert F.matrix == _fusion_oracle(omega, N, slopes)


def test_intertwining_passes():
    assert intertwining_check(BOX, 2, Fraction(1, 3)).passed
    assert intertwining_check(VDOM, 2, Fraction(1, 3)).passed
    assert intertwining_check(SkewDiagram((2, 2)), 2, Fraction(-3, 7)).passed


def test_intertwining_detects_missing_reversal(monkeypatch):
    # with sigma_hat replaced by the identity the two actions differ
    monkeypatch.setattr(reference, "reversal_index",
                        lambda N, kept, n: np.arange(N ** (kept + n)))
    rep = intertwining_check(SkewDiagram((2, 1)), 2, Fraction(1, 3))
    assert len(rep.samples) == 5 and rep.failures == rep.samples


@pytest.mark.parametrize("params,N,u0", [
    ([Fraction(1, 3)], 2, Fraction(5, 7)),
    ([Fraction(1, 3), Fraction(-2, 3)], 2, Fraction(2)),
    ([Fraction(2, 5), Fraction(-3, 5), Fraction(7, 5)], 2, Fraction(-1, 4)),
    ([Fraction(1, 3), Fraction(4, 3)], 3, Fraction(-5, 2)),
])
def test_defining_action_product_matches_dense_chain(params, N, u0):
    # leg n's breve factor 1 - P_{0,q}/(u0 - a_q) leftmost, from the dense
    # Yang matrices
    n = len(params)
    form = GForm.orthogonal(N)
    dense = TensorOperator.identity((N,) * (n + 1))
    for q in range(n, 0, -1):
        Rb = yang_matrices(form, u0, params[q - 1])[2]
        dense = dense @ embed_two_leg(Rb, 1, q + 1, n + 1)
    assert defining_action_product(params, N).at(u0) == dense
    with pytest.raises(SingularParameter):
        defining_action_product(params, N).at(params[-1])


def test_intertwining_pole_sample():
    # u equal to a box parameter z + c_q is a pole of that factor
    with pytest.raises(SingularParameter):
        intertwining_check(VDOM, 2, Fraction(2), u_samples=[Fraction(2)])
