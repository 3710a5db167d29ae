"""Fusion operators from skew diagrams.

F is the value at 0 of the ordered product of breve Yang factors
1 - P_{pq}/(v_p - v_q) over lexicographic pairs p < q, with v_p approaching
the content line along a univariate path v_p = c_p + s_{col(p)} * eps using
distinct integer slopes per column.  With d = c_p - c_q and s the slope
difference, each factor is ((d + s*eps) - P_{pq}) / (d + s*eps).  The ordered
chain of numerators is applied to the integer identity by
tensor.apply_factor_chain, giving frames in eps.  If m pairs have equal
content (the poles), frames 0..m-1 must vanish (else LimitSingular) and

    F = frame[m] / c0,   c0 = prod of s over the poles * prod of d otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import SkewDiagram, column_tableau, sharp, ssyt_count
from .errors import (
    BoxCapExceeded,
    LimitSingular,
    ShapeTooTall,
    SlopeCollision,
)
from .exactnum import Poly
from .linalg import is_zero_matrix
from .tensor import (
    Basis,
    FrameBlock,
    GForm,
    TensorOperator,
    apply_factor_chain,
    image_basis,
    minus_flip_entries,
    reversal_index,
    transpose_legs,
)


@dataclass(frozen=True)
class FusionOperator:
    diagram: SkewDiagram
    N: int
    matrix: TensorOperator
    module_basis: Basis
    slopes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.module_basis.size


_cache: dict = {}


def default_slopes(omega: SkewDiagram) -> tuple[int, ...]:
    return tuple(range(1, omega.n_cols + 1))


def fusion_operator(
    omega: SkewDiagram,
    N: int,
    slopes=None,
    box_cap: int = 6,
) -> FusionOperator:
    """Regularized ordered product of breve factors, with its image basis."""
    if not omega.fits(N):
        raise ShapeTooTall(f"{omega} has a column taller than N={N}")
    n = omega.size
    if n > box_cap:
        raise BoxCapExceeded(f"{n} boxes exceed cap {box_cap}")
    if slopes is None:
        slopes = default_slopes(omega)
    else:
        slopes = tuple(slopes)
        if any(Fraction(s).denominator != 1 for s in slopes):
            raise SlopeCollision(f"slopes must be integers, got {slopes}")
        slopes = tuple(int(s) for s in slopes)
        if len(slopes) != omega.n_cols or any(s <= 0 for s in slopes):
            raise SlopeCollision(f"need {omega.n_cols} positive slopes, got {slopes}")
        if len(set(slopes)) != len(slopes):
            raise SlopeCollision(f"slopes not distinct: {slopes}")
    key = (omega, N, slopes)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    ct = column_tableau(omega)
    cols = [j for (_, j) in ct.boxes]
    cont = ct.contents
    dims = (N,) * n
    minus_p = minus_flip_entries(N)

    # numerators (d + s*eps) - P_pq of the factors, in lexicographic order
    chain = []
    n_poles = 0
    c0 = 1
    for p in range(n):
        for q in range(p + 1, n):
            d = cont[p] - cont[q]
            s = slopes[cols[p] - 1] - slopes[cols[q] - 1]
            if d == 0:
                if s == 0:
                    raise SlopeCollision(
                        f"boxes {p+1},{q+1} of {omega} collide: equal content and slope"
                    )
                n_poles += 1
            c0 *= s if d == 0 else d
            chain.append((p, q, d, s, minus_p))

    identity = np.eye(N**n, dtype=int).astype(object)
    # without factors (at most one box) the kernel is skipped: it cannot
    # index the legs of the empty diagram
    frames, scale = apply_factor_chain(identity, dims, chain) if chain else ([identity], 1)
    for t in range(n_poles):
        if not is_zero_matrix(frames[t]):
            raise LimitSingular(
                f"pole of order {n_poles - t} in the fusion limit of {omega}"
            )
    F = TensorOperator(frames[n_poles] * Fraction(scale, c0), dims)
    result = FusionOperator(omega, N, F, image_basis(F), slopes)
    _cache[key] = result
    return result


@dataclass
class FusionInvariantReport:
    diagram: SkewDiagram
    N: int
    dim: int
    ssyt: int
    t_invariant: bool
    sharp_conjugation: bool
    slope_independent: bool
    dimension_matches: bool

    @property
    def passed(self) -> bool:
        return (
            self.t_invariant
            and self.sharp_conjugation
            and self.slope_independent
            and self.dimension_matches
        )


def verify_fusion_invariants(F: FusionOperator, form: GForm | None = None) -> FusionInvariantReport:
    """t-invariance, conjugation to the rotated diagram, slope independence,
    and the semistandard-tableau dimension count."""
    omega, N, n = F.diagram, F.N, F.diagram.size
    form = form or GForm.orthogonal(N)
    if n > 0:
        t_ok = transpose_legs(F.matrix, range(1, n + 1), form) == F.matrix
        sh, _ = sharp(omega)
        # s_hat F s_hat for the leg reversal s_hat: F on reversed tensor indices
        rev = reversal_index(N, 0, n)
        conj = TensorOperator(F.matrix.mat[np.ix_(rev, rev)], F.matrix.dims)
        sharp_ok = conj == fusion_operator(sh, N).matrix
        alt = tuple(reversed(range(2, omega.n_cols + 2)))
        alt_ok = fusion_operator(omega, N, slopes=alt).matrix == F.matrix
    else:
        t_ok = sharp_ok = alt_ok = True
    cnt = ssyt_count(omega, N)
    return FusionInvariantReport(
        diagram=omega,
        N=N,
        dim=F.dim,
        ssyt=cnt,
        t_invariant=t_ok,
        sharp_conjugation=sharp_ok,
        slope_independent=alt_ok,
        dimension_matches=(F.dim == cnt),
    )


def defining_action_product(params, N: int) -> FrameBlock:
    """The tautological action prod_q (1 - P_{0,q}/(u - a_q)) on legs (0, q)
    of an (n+1)-leg space, leg 0 auxiliary, leg n's factor leftmost: the
    product of the numerators (u - a_q) - P_{0,q} over prod_q (u - a_q).

    This is the action on the opposite-coproduct tensor product; the
    transported module action (leg 1 leftmost, the one satisfying RTT) is
    its conjugate sigma_hat . (reversed params) . sigma_hat."""
    n = len(params)
    minus_p = minus_flip_entries(N)
    chain = [(0, q, -params[q - 1], 1, minus_p) for q in range(n, 0, -1)]
    den = Poly.const(1)
    for a_q in params:
        den = den * Poly((-a_q, 1))
    dims = (N,) * (n + 1)
    identity = np.eye(N ** (n + 1), dtype=int).astype(object)
    return FrameBlock(*apply_factor_chain(identity, dims, chain), den, dims)
