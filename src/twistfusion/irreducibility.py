"""Irreducibility testing for fused modules.

Two independent engines:

* the leading Laurent coefficient of the deformation family S_{W,Z}(zeta)
  (W the zeta-shifted copy of Z), contracted to a map End(W) -> End(Z);
  surjectivity of that map certifies irreducibility;
* a commutant oracle: the dimension of the joint commutant of the generator
  coefficient matrices.  An irreducible module has dimension 1 (Schur's
  lemma), so a larger dimension proves reducibility; dimension 1 does not
  prove irreducibility (sp2 ``1:1/3;1:4/3`` has commutant 1 but a generated
  algebra of dimension 13 of 16, so it is reducible).

Surjectivity implies commutant dimension 1; the converse combination is the
cross-check wired into every verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExhaustedDepth, InternalInconsistency
from .exactnum import RatFunc
from .linalg import feye, is_zero_matrix, nullspace_exact, rank_exact
from .repmatrix import (
    FusedModuleSpec,
    frame_product,
    r_factorized_blocks,
    s_fused_blocks,
    s_generators,
    swz_frame_blocks,
)
from .tensor import (
    TensorOperator,
    _WindowExhausted,
    contraction_map_matrix,
    embed_operator,
)

_PRIME_DENOMS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


# ---------------------------------------------------------------------------
# the zeta-family and its leading term

def _swz_blocks(Z: FusedModuleSpec):
    """Ordered blocks of S_{W,Z}(zeta) = breve-R'_{W,Z} . S_W . breve-R_{W,Z},
    with every W parameter shifted by zeta."""
    x = RatFunc.x()
    blocks = list(r_factorized_blocks(Z, Z, "Rb'", w_shift=x))
    blocks += s_fused_blocks(Z, shift=x)
    blocks += r_factorized_blocks(Z, Z, "Rb", w_shift=x)
    return blocks


def s_WZ_family(Z: FusedModuleSpec) -> TensorOperator:
    """Exact matrix of the family on W (x) Z over RatFunc(zeta)."""
    if Z.ell == 0:
        one = np.empty((1, 1), dtype=object)
        one[0, 0] = RatFunc.const(1)
        return TensorOperator(one, ())
    dims = Z.factor_dims + Z.factor_dims
    out = TensorOperator.identity(dims).map_entries(RatFunc.coerce)
    for block, slots in _swz_blocks(Z):
        out = out @ embed_operator(block.map_entries(RatFunc.coerce), slots, dims)
    return out


@dataclass
class PhiOperator:
    """Leading Laurent coefficient of the contracted family, as a matrix of
    the map End(W) -> End(Z) (row (z1,z2), column (w',w))."""

    order: int
    matrix: np.ndarray
    dimZ: int


def phi_leading(Z: FusedModuleSpec, depth: int = 3) -> PhiOperator:
    """First nonzero trace-contraction coefficient of S_{W,Z}(zeta) at 0.

    The matrix-level leading coefficient is located exactly with truncated
    Laurent arithmetic (the window widens and retries if cancellations eat
    it); later coefficients up to `depth` are inspected should the
    contraction annihilate earlier ones.
    """
    dZ = Z.dimZ
    if Z.ell == 0:
        return PhiOperator(order=0, matrix=feye(1), dimZ=1)
    dims = Z.factor_dims + Z.factor_dims
    blocks = swz_frame_blocks(Z)
    window = depth + 4
    while window <= 256:
        try:
            prod = frame_product(blocks, dims, window)
            r = prod.order
            for t in range(depth + 1):
                coeff = prod.coefficient(r + t).to_fractions()
                phi = contraction_map_matrix(coeff, dZ, dZ)
                if not is_zero_matrix(phi):
                    return PhiOperator(order=r + t, matrix=phi, dimZ=dZ)
            raise ExhaustedDepth(
                f"no nonzero contracted coefficient within depth {depth} from order {r}"
            )
        except _WindowExhausted:
            window *= 2
    raise InternalInconsistency("Laurent window exhausted; family appears to vanish")


def surjectivity(phi: PhiOperator) -> tuple[int, bool]:
    """Exact rank of the contracted map; surjective iff rank = (dim Z)^2."""
    r = rank_exact(phi.matrix)
    return r, r == phi.dimZ**2


# ---------------------------------------------------------------------------
# commutant oracle

def commutant_dim(Z: FusedModuleSpec, K: int) -> tuple[int, bool]:
    """Dimension of the joint commutant of the generator matrices up to
    truncation K, and whether it stabilized between K-1 and K.

    Exact nullspace computation over Q; the dimension over any extension
    field is the same, so 1 here means scalars only.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    d = Z.dimZ
    if d == 1:
        return 1, True
    gens = s_generators(Z, K)
    B = feye(d * d)  # columns span the current candidate commutant
    dims_after = []
    for k in range(1, K + 1):
        b = B.shape[1]
        if b > 1:
            rows = []
            for i in range(Z.N):
                for j in range(Z.N):
                    G = gens.rho[k][i][j]
                    cols = []
                    for m in range(b):
                        X = B[:, m].reshape(d, d)
                        comm = _comm(X, G)
                        cols.append(comm.reshape(d * d))
                    rows.append(np.stack(cols, axis=1))
            system = np.concatenate(rows, axis=0)
            null = nullspace_exact(system)
            if len(null) < b:
                Y = (
                    np.stack(null, axis=1)
                    if null
                    else np.empty((b, 0), dtype=object)
                )
                B = B @ Y
        dims_after.append(B.shape[1])
    dim = dims_after[-1]
    stabilized = len(dims_after) >= 2 and dims_after[-1] == dims_after[-2]
    return dim, stabilized


def _comm(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    from .linalg import generic_dot

    return generic_dot(X, G) - generic_dot(G, X)


# ---------------------------------------------------------------------------
# walls

@dataclass(frozen=True)
class WallConstraint:
    kind: str  # "single" | "difference" | "sum"
    indices: tuple[int, ...]
    lattice: str  # "(1/2)Z" | "Z"

    def describe(self) -> str:
        if self.kind == "single":
            return f"z{self.indices[0]} in {self.lattice}"
        op = "-" if self.kind == "difference" else "+"
        i, j = self.indices
        return f"z{i}{op}z{j} in {self.lattice}"

    def violated_by(self, params) -> bool:
        if self.kind == "single":
            return (2 * params[self.indices[0] - 1]).denominator == 1
        i, j = self.indices
        zi, zj = params[i - 1], params[j - 1]
        val = zi - zj if self.kind == "difference" else zi + zj
        return val.denominator == 1


@dataclass
class WallSet:
    constraints: list[WallConstraint]

    def violated(self, params) -> list[WallConstraint]:
        return [c for c in self.constraints if c.violated_by(params)]


def walls(Z: FusedModuleSpec) -> WallSet:
    """The three hyperplane families: z_i half-integer, differences and sums
    of distinct parameters integer."""
    cs = []
    ell = Z.ell
    for i in range(1, ell + 1):
        cs.append(WallConstraint("single", (i,), "(1/2)Z"))
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            cs.append(WallConstraint("difference", (i, j), "Z"))
            cs.append(WallConstraint("sum", (i, j), "Z"))
    return WallSet(cs)


# ---------------------------------------------------------------------------
# the combined verdict

@dataclass
class IrreducibilityReport:
    spec: dict
    on_wall: list[str]
    laurent_order: int
    phi_rank: int
    phi_surjective: bool
    commutant_dim: int
    K: int
    stabilized: bool
    verdict: str

    def to_json(self) -> dict:
        return {
            "spec": dict(self.spec),
            "on_wall": list(self.on_wall),
            "laurent_order": self.laurent_order,
            "phi_rank": self.phi_rank,
            "phi_surjective": self.phi_surjective,
            "commutant_dim": self.commutant_dim,
            "K": self.K,
            "stabilized": self.stabilized,
            "verdict": self.verdict,
        }

    @staticmethod
    def from_json(data: dict) -> "IrreducibilityReport":
        return IrreducibilityReport(
            spec=dict(data["spec"]),
            on_wall=list(data["on_wall"]),
            laurent_order=int(data["laurent_order"]),
            phi_rank=int(data["phi_rank"]),
            phi_surjective=bool(data["phi_surjective"]),
            commutant_dim=int(data["commutant_dim"]),
            K=int(data["K"]),
            stabilized=bool(data["stabilized"]),
            verdict=str(data["verdict"]),
        )


def default_truncation(Z: FusedModuleSpec) -> int:
    return 2 * Z.n_total + 2


def verdict(Z: FusedModuleSpec, K: int | None = None, depth: int = 3) -> IrreducibilityReport:
    """Walls, leading-coefficient surjectivity, commutant dimension, and the
    combined verdict.  Surjectivity without commutant dimension 1 is a
    contradiction of the theory and aborts."""
    if K is None:
        K = max(2, default_truncation(Z))
    params = [z for _, z in Z.factors]
    on_wall = [c.describe() for c in walls(Z).violated(params)]
    if Z.ell == 0:
        return IrreducibilityReport(
            spec=Z.to_json(),
            on_wall=[],
            laurent_order=0,
            phi_rank=1,
            phi_surjective=True,
            commutant_dim=1,
            K=K,
            stabilized=True,
            verdict="irreducible",
        )
    phi = phi_leading(Z, depth=depth)
    rank, surj = surjectivity(phi)
    cdim, stab = commutant_dim(Z, K)
    if surj and cdim != 1:
        raise InternalInconsistency(
            f"surjective leading coefficient but commutant dimension {cdim}"
        )
    if surj or cdim == 1:
        word = "irreducible"
    elif cdim > 1 and stab:
        word = "reducible"
    else:
        word = "inconclusive"
    return IrreducibilityReport(
        spec=Z.to_json(),
        on_wall=on_wall,
        laurent_order=phi.order,
        phi_rank=rank,
        phi_surjective=surj,
        commutant_dim=cdim,
        K=K,
        stabilized=stab,
        verdict=word,
    )


def random_offwall(ell: int, rng: random.Random) -> list[Fraction]:
    """Deterministic off-wall tuples: distinct prime denominators >= 3 make
    every single, difference and sum constraint fail by construction."""
    out = []
    for i in range(ell):
        p = _PRIME_DENOMS[i % len(_PRIME_DENOMS)]
        a = rng.randrange(1, 6 * p)
        while a % p == 0:
            a = rng.randrange(1, 6 * p)
        if rng.random() < 0.5:
            a = -a
        out.append(Fraction(a, p))
    return out
