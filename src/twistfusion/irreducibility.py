"""Irreducibility testing for fused modules.

Two independent engines:

* the leading Laurent coefficient of the deformation family S_{W,Z}(zeta)
  (W the zeta-shifted copy of Z), contracted to a map End(W) -> End(Z);
  surjectivity of that map certifies irreducibility;
* a commutant oracle: the dimension of the joint commutant of the generator
  coefficient matrices, the u^-1 .. u^-K coefficients of S_Z(u).  K is
  derived from the module (default_truncation): those coefficients span
  all of them, so the commutant is proven stable at K.  An irreducible
  module has dimension 1 (Schur's lemma), so a larger dimension proves
  reducibility; dimension 1 does not prove irreducibility (sp2
  ``1:1/3;1:4/3`` has commutant 1 but a generated algebra of dimension 13
  of 16, so it is reducible).

Surjectivity implies commutant dimension 1; the converse combination is the
cross-check wired into every verdict.  A verdict takes only the module: it
has no setting that the module does not fix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import InternalInconsistency, MalformedInput
from .linalg import (
    ScaledIntMatrix,
    int_matmul,
    nullspace_exact,
    primitive_part,
    rank_exact,
    to_int_scaled,
)
from .repmatrix import (
    FusedModuleSpec,
    frame_product,
    ratfunc_product,
    s_coefficients,
    swz_frame_blocks,
)
from .tensor import TensorOperator, contraction_map_matrix

_PRIME_DENOMS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


# ---------------------------------------------------------------------------
# the zeta-family and its leading term

def s_WZ_family(Z: FusedModuleSpec) -> TensorOperator:
    """Exact matrix of the family on W (x) Z over RatFunc(zeta): the dense
    product of the frame blocks that phi_leading expands."""
    return ratfunc_product(swz_frame_blocks(Z), Z.factor_dims + Z.factor_dims)


@dataclass
class PhiOperator:
    """Leading Laurent coefficient of the contracted family, as a matrix of
    the map End(W) -> End(Z) (row (z1,z2), column (w',w)): ``coeff`` as
    frame_product yields it, ``matrix`` its Fraction view."""

    order: int
    coeff: ScaledIntMatrix
    dimZ: int

    @property
    def matrix(self) -> np.ndarray:
        return self.coeff.to_fractions()


def phi_leading(Z: FusedModuleSpec) -> PhiOperator:
    """Leading trace-contraction coefficient of S_{W,Z}(zeta) at 0.

    frame_product locates the matrix-level leading term exactly: the
    numerators of the frame blocks multiply as integer matrices and their
    scalar denominators are kept aside, so no denominator is expanded.  The
    contraction only reindexes the leading coefficient, which is nonzero, so
    phi is nonzero; a zero phi is a bug.
    """
    dZ = Z.dimZ
    order, coeff = frame_product(swz_frame_blocks(Z), Z.factor_dims + Z.factor_dims)
    phi = ScaledIntMatrix(contraction_map_matrix(coeff.mat, dZ, dZ), coeff.scale)
    if phi.is_zero():
        raise InternalInconsistency(f"zero contracted coefficient at order {order}")
    return PhiOperator(order=order, coeff=phi, dimZ=dZ)


def surjectivity(phi: PhiOperator) -> tuple[int, bool]:
    """Exact rank of the contracted map; surjective iff rank = (dim Z)^2.
    The integer matrix has the rank of the map: its scale is nonzero."""
    r = rank_exact(phi.coeff.mat)
    return r, r == phi.dimZ**2


# ---------------------------------------------------------------------------
# commutant oracle

def check_truncation(K: int) -> None:
    """MalformedInput unless K is a usable generator truncation order."""
    if K < 2:
        raise MalformedInput(f"K must be >= 2, got {K}")


def commutant_dim(Z: FusedModuleSpec, K: int) -> tuple[int, bool]:
    """Dimension of the joint commutant of the generator matrices up to
    truncation K, and whether it stabilized between K-1 and K.

    Exact nullspace computation over Q; the dimension over any extension
    field is the same, so 1 here means scalars only.  Everything runs on
    integers: XG = GX is homogeneous in G, so each generator is the primitive
    part of its block of the integer S_k, and the columns of the candidate
    basis B (vec(X), row-major) are kept primitive integer vectors.  The k-th
    system stacks vec(XG - GX) over the N^2 generators of order k, formed by
    two products of the stacked generators with the stacked candidates X;
    its nullspace gives the candidates that commute with them.  S_k is built
    only while more than one candidate remains.
    """
    check_truncation(K)
    N, d = Z.N, Z.dimZ
    coeffs = islice(s_coefficients(Z, K), 1, None)
    B = np.eye(d * d, dtype=np.int64).astype(object)  # columns span the candidates
    dims_after = []
    for _ in range(K):
        b = B.shape[1]
        if b > 1:
            S4 = next(coeffs).mat.reshape(N, d, N, d)
            G = np.stack([primitive_part(S4[i, :, j, :]) for i, j in np.ndindex(N, N)])
            X = B.T.reshape(b, d, d)
            # XG and GX for every generator and candidate, as rows (G, a, c)
            # and columns X: row block G is vec(XG - GX) for each X
            XG = int_matmul(X.reshape(b * d, d), G.transpose(1, 0, 2).reshape(d, N * N * d))
            GX = int_matmul(G.reshape(N * N * d, d), X.transpose(1, 0, 2).reshape(d, b * d))
            XG = XG.reshape(b, d, N * N, d).transpose(2, 1, 3, 0)
            GX = GX.reshape(N * N, d, b, d).transpose(0, 1, 3, 2)
            null = nullspace_exact((XG - GX).reshape(N * N * d * d, b))
            if len(null) < b:
                Y = _primitive_columns(null, b)
                B = _primitive_columns(int_matmul(B, Y).T, d * d)
        dims_after.append(B.shape[1])
    dim = dims_after[-1]
    stabilized = len(dims_after) >= 2 and dims_after[-1] == dims_after[-2]
    return dim, stabilized


def _primitive_columns(vectors, length: int) -> np.ndarray:
    """The rational vectors as the columns of an integer matrix, each cleared
    to a primitive integer vector (the same line)."""
    cols = [primitive_part(to_int_scaled(np.asarray(v))[0]) for v in vectors]
    if not cols:
        return np.empty((length, 0), dtype=object)
    return np.stack(cols, axis=1)


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
    """The generator truncation order K = 2n + 2 of a module with n boxes.

    S_Z(u) = F^t(-u) F(u) / (den(-u) den(u)) with a denominator q of degree
    2n, so q(u) S_Z(u) is a polynomial and its u^-m coefficient vanishes for
    m >= 1: sum_i q_i S_(m+i) = 0.  Each S_k with k > 2n is therefore a fixed
    combination of the 2n coefficients before it, and S_1 .. S_2n span all of
    them.  The commutant at K is the commutant of every coefficient, and it
    is already reached at K - 1."""
    return 2 * Z.n_total + 2


def verdict(Z: FusedModuleSpec) -> IrreducibilityReport:
    """Walls, leading-coefficient surjectivity, commutant dimension at
    K = default_truncation(Z), and the combined verdict.  Surjectivity
    without commutant dimension 1, or a commutant still shrinking at K,
    contradicts the theory and aborts."""
    K = default_truncation(Z)
    params = [z for _, z in Z.factors]
    on_wall = [c.describe() for c in walls(Z).violated(params)]
    phi = phi_leading(Z)
    rank, surj = surjectivity(phi)
    cdim, stab = commutant_dim(Z, K)
    if not stab:
        raise InternalInconsistency(f"commutant dimension {cdim} not stabilized at K = {K}")
    if surj and cdim != 1:
        raise InternalInconsistency(
            f"surjective leading coefficient but commutant dimension {cdim}"
        )
    return IrreducibilityReport(
        spec=Z.to_json(),
        on_wall=on_wall,
        laurent_order=phi.order,
        phi_rank=rank,
        phi_surjective=surj,
        commutant_dim=cdim,
        K=K,
        stabilized=stab,
        verdict="irreducible" if surj or cdim == 1 else "reducible",
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
