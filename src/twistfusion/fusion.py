"""Fusion operators from skew diagrams.

F is the value at 0 of the ordered product of breve Yang factors
1 - P_{pq}/(v_p - v_q) over lexicographic pairs p < q, with v_p approaching
the content line along a univariate path v_p = c_p + s_{col(p)} * eps using
distinct integer slopes per column.  The theory guarantees the limit exists;
a surviving pole raises LimitSingular.
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
    SingularParameter,
    SlopeCollision,
)
from .exactnum import RatFunc
from .linalg import feye, fzeros, mat_equal
from .tensor import (
    Basis,
    GForm,
    TensorOperator,
    apply_factor_chain,
    image_basis,
    reversal_op,
    transpose_legs,
)

_F0 = Fraction(0)


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


def _swap_index(dims, p: int, q: int) -> np.ndarray:
    """Column index map for right-multiplication by the flip on slots p, q."""
    D = int(np.prod(dims)) if dims else 1
    digits = list(np.unravel_index(np.arange(D), dims))
    digits[p], digits[q] = digits[q], digits[p]
    return np.ravel_multi_index(tuple(digits), dims)


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
    D = N**n

    pairs = []
    n_poles = 0
    for p in range(n):
        for q in range(p + 1, n):
            d = Fraction(cont[p] - cont[q])
            s = slopes[cols[p] - 1] - slopes[cols[q] - 1]
            if d == 0:
                if s == 0:
                    raise SlopeCollision(
                        f"boxes {p+1},{q+1} of {omega} collide: equal content and slope"
                    )
                n_poles += 1
            pairs.append((p, q, d, s))

    # frames[t] is the exact coefficient of eps^(order + t); the window slides
    # down as pole factors multiply in, ending at [-n_poles, 2).
    width = n_poles + 2
    frames = [fzeros((D, D)) for _ in range(width)]
    frames[0] = feye(D)
    order = 0

    for (p, q, d, s) in pairs:
        if d != 0:
            beta_order = 0
            inv = -1 / d
            beta = [inv]
            for _ in range(width - 1):
                beta.append(beta[-1] * (-s) / d)
        else:
            beta_order = -1
            beta = [Fraction(-1, s)] + [_F0] * (width - 1)
        swap = _swap_index(dims, p, q)
        fo = min(0, beta_order)
        new = []
        for t in range(width):
            k_id = t + fo  # identity part: old coefficient at the same exponent
            acc = frames[k_id].copy() if 0 <= k_id < width else fzeros((D, D))
            for b, bc in enumerate(beta):
                if bc == 0:
                    continue
                k = t + fo - beta_order - b
                if 0 <= k < width:
                    acc += bc * frames[k][:, swap]
            new.append(acc)
        frames = new
        order += fo

    zero = fzeros((D, D))
    for t in range(-order):
        if not mat_equal(frames[t], zero):
            raise LimitSingular(
                f"pole of order {-(order + t)} in the fusion limit of {omega}"
            )
    F = TensorOperator(frames[-order], dims if n else ())
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
        s_hat = reversal_op(n, N)
        sharp_ok = (s_hat @ F.matrix @ s_hat) == fusion_operator(sh, N).matrix
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


def defining_action_product(u, params, N: int, ascending: bool = True) -> TensorOperator:
    """Product of breve factors on legs (0, q) of an (n+1)-leg space:
    prod_q (1 - P_{0,q}/(u - a_q)), leg 0 auxiliary.

    ascending=True puts the leg-1 factor leftmost (the transported module
    action, the one satisfying RTT); ascending=False is the tautological
    action on the opposite-coproduct tensor product.  The two are conjugate:
    sigma_hat . desc(reversed params) . sigma_hat = asc(params).

    u may be a Fraction (SingularParameter at a pole) or RatFunc.
    """
    n = len(params)
    legs = range(1, n + 1) if ascending else range(n, 0, -1)
    chain = []
    for q in legs:
        a_q = params[q - 1]
        den = u - a_q
        if isinstance(den, RatFunc):
            if den.is_zero():
                raise SingularParameter(f"factor {q} singular identically")
            beta = -1 / den
        else:
            if den == 0:
                raise SingularParameter(f"factor {q}: u = {a_q} is a pole")
            beta = Fraction(-1, 1) / den
        chain.append((0, q, 1, 0, [(a, b, b, a, beta) for a in range(N) for b in range(N)]))
    dims = (N,) * (n + 1)
    M, = apply_factor_chain(feye(N ** (n + 1)), dims, chain)
    return TensorOperator(M, dims)


@dataclass
class IntertwiningReport:
    diagram: SkewDiagram
    N: int
    z: Fraction
    samples: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures and len(self.samples) > 0


def intertwining_check(omega: SkewDiagram, N: int, z, u_samples=None) -> IntertwiningReport:
    """F intertwines the module action with the leg-reversed action:
    F h(v_1..v_n) = sigma_hat h(v_n..v_1) sigma_hat F, with v_p = z + c_p,
    h running over the coefficients of the auxiliary single-box product."""
    z = Fraction(z)
    F = fusion_operator(omega, N)
    n = omega.size
    if n == 0:
        return IntertwiningReport(omega, N, z, samples=[0], failures=[])
    cont = column_tableau(omega).contents
    a = [z + c for c in cont]
    a_rev = list(reversed(a))
    poles = set(a)
    if u_samples is None:
        u_samples = []
        k = 1
        while len(u_samples) < n + 2:
            if Fraction(k) not in poles:
                u_samples.append(Fraction(k))
            k += 1
    s_hat = reversal_op(n, N)
    F_emb = TensorOperator(np.kron(feye(N), F.matrix.mat), (N,) * (n + 1))
    s_emb = TensorOperator(np.kron(feye(N), s_hat.mat), (N,) * (n + 1))
    failures = []
    used = []
    for u0 in u_samples:
        u0 = Fraction(u0)
        if u0 in poles:
            raise SingularParameter(f"u = {u0} is a pole of a factor (v_q = {u0})")
        taut = defining_action_product(u0, a, N, ascending=False)
        rev = defining_action_product(u0, a_rev, N, ascending=False)
        lhs = F_emb @ taut
        rhs = (s_emb @ rev @ s_emb) @ F_emb
        used.append(u0)
        if lhs != rhs:
            failures.append(u0)
    return IntertwiningReport(omega, N, z, samples=used, failures=failures)
