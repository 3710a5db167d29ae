"""Irreducibility testing for fused modules.

A verdict is a two-step decision about A_Z, the algebra generated by the
S_Z(u) coefficient blocks in End(Z), with Z of dimension d.  By Burnside's
theorem Z is irreducible over C exactly when A_Z = End(Z), that is when
dim A_Z = d^2; dim A_Z is the rank of a system of rational vectors, so it
is the same over Q and over C.

1. The leading Laurent coefficient of the deformation family S_{W,Z}(zeta)
   (W the zeta-shifted copy of Z), contracted to a map phi: End(W) ->
   End(Z), has its image in A_Z.  If phi is surjective, A_Z = End(Z): the
   module is irreducible, algebra_dim is d^2 and nothing else runs.  This is
   the witness of the main theorem, and every off-wall point has it.
   It is read from one residue (phi_witness): the product of each block's
   lowest nonzero frame mod one prime p is the family's coefficient at
   order o = sum of frame orders minus the denominators' valuations.  What
   that needs per shape (the frames mod p, the leg permutations and the
   certified blocks of the contraction) is a WitnessPlan, built once per
   shape and cached; per point it takes the terms' arguments, one product
   for every lowest frame, the leg contractions and one blocked rank.  A
   nonzero residue proves the order o; rank cannot rise mod p, so rank d^2
   mod p proves phi surjective, and the exact frame product and rank do
   not run.  Any other residue (zero where a block residue cannot tell its
   lowest frame) takes the exact path.  A scan takes the witnesses of all
   its points in one batch (phi_witnesses, one residue stack and one rank
   stack per slice of modules) and hands each to its verdict.
2. Otherwise Burnside growth decides: words in the residues modulo a prime
   below 2^21 of the integer blocks of S(u0) at 2n + 1 non-poles (n boxes;
   default_truncation shows that they generate A_Z), the leftmost
   independent ones, are grown from the identity in mod_matmul.  d^2 words
   independent mod p are independent over Q, so A_Z = End(Z).  Fewer words
   span A_Z exactly when, on the exact blocks, their span is closed under
   the blocks grown from and holds every other block, which one exact
   echelon proves; a prime whose span fails that proof is skipped.

The image of phi lies in A_Z, so rank(phi) > dim A_Z contradicts the theory
and aborts.  commutant_dim (the joint commutant of the generators) stays as
an independent quantity; no verdict reads it: commutant dimension 1 does not
prove irreducibility (sp2 ``1:1/3;1:4/3`` has commutant 1 but dim A_Z = 13
of 16).  A verdict takes only the module: it has no setting that the module
does not fix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import InternalInconsistency, MalformedInput, SizeLimit
from .linalg import (
    _PRIMES,
    ScaledIntMatrix,
    _free_columns,
    _modp_rref,
    echelon,
    int_matmul,
    mod_matmul,
    nullspace_exact,
    primitive_part,
    rank_exact,
    reduce_mod,
    relation_holds,
    to_int_scaled,
)
from .repmatrix import (
    FusedModuleSpec,
    _sample_grid,
    frame_product,
    s_coefficients,
    s_samples,
    swz_frame_blocks,
    witness_plan,
)
from .tensor import contraction_map_matrix

_PRIME_DENOMS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# The phi witness and Burnside growth run modulo the first of linalg's
# primes, the largest below 2^21: one mod_matmul chunk there spans 2048
# inner terms, a whole slot product and Burnside product for d^2 <= 2048.
_WITNESS_PRIME = _PRIMES[0]
_BURNSIDE_PRIMES = _PRIMES[:3]


# ---------------------------------------------------------------------------
# the zeta-family and its leading term

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


def phi_leading(Z: FusedModuleSpec, *, window: int = 1) -> PhiOperator:
    """Leading trace-contraction coefficient of S_{W,Z}(zeta) at 0.

    frame_product locates the matrix-level leading term exactly: the
    numerators of the frame blocks multiply as integer matrices and their
    scalar denominators are kept aside, so no denominator is expanded.  The
    contraction only reindexes the leading coefficient, which is nonzero, so
    phi is nonzero; a zero phi is a bug.  ``window`` is where frame_product
    starts its window, which changes only the work.
    """
    dZ = Z.dimZ
    order, coeff = frame_product(swz_frame_blocks(Z), Z.factor_dims + Z.factor_dims, window)
    phi = ScaledIntMatrix(contraction_map_matrix(coeff.mat, dZ, dZ), coeff.scale)
    if phi.is_zero():
        raise InternalInconsistency(f"zero contracted coefficient at order {order}")
    return PhiOperator(order=order, coeff=phi, dimZ=dZ)


def surjectivity(phi: PhiOperator) -> tuple[int, bool]:
    """Exact rank of the contracted map; surjective iff rank = (dim Z)^2.
    The integer matrix has the rank of the map: its scale is nonzero."""
    r = rank_exact(phi.coeff.mat)
    return r, r == phi.dimZ**2


# The residue witnesses of a batch are formed in slices whose residue
# stacks hold at most this many entries, P D^2 for P modules of D = d^2 (the
# dimension of W (x) Z); a module whose D^2 alone passes it goes alone.
_WITNESS_BATCH = 2**20


def phi_witnesses(Zs) -> list[tuple[int, int]]:
    """phi_witness of each module of ``Zs``, all of one shape (form and
    diagrams), in slices of _WITNESS_BATCH entries: each slice takes one
    residue stack and one rank stack from the shape's WitnessPlan."""
    if not Zs:
        return []
    plan, p = witness_plan(Zs[0]), _WITNESS_PRIME
    step = max(1, _WITNESS_BATCH // plan.D**2)
    out = []
    for lo in range(0, len(Zs), step):
        orders, R = plan.residues([plan.arguments(Z) for Z in Zs[lo:lo + step]], p)
        out += zip(orders, plan.ranks(R, p))
    return out


def phi_witness(Z: FusedModuleSpec) -> tuple[int, int]:
    """(o, r) from one residue modulo _WITNESS_PRIME p: o the Laurent order
    of the family if its coefficient there is nonzero (WitnessPlan.residues),
    r the rank mod p of that coefficient's contraction (WitnessPlan.ranks).

    r > 0 proves that the order is o.  Rank cannot rise under reduction mod
    p, so r = (dim Z)^2 proves that phi is surjective: then (o, r) is
    exactly what phi_leading and surjectivity give.  The one-module call of
    phi_witnesses."""
    return phi_witnesses([Z])[0]


# ---------------------------------------------------------------------------
# commutant oracle

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
    if K < 2:
        raise MalformedInput(f"K must be >= 2, got {K}")
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
# Burnside: the algebra generated by the S(u) values

@dataclass
class AlgebraSpan:
    """A basis of A_Z: the words, as index sequences into G[generators], G
    from algebra_generators, whose products span it.  ``prime`` grew them,
    ``rejected`` lists the primes before it whose span failed the closure
    proof, and ``closure_proved`` says whether the exact proof ran."""

    dim: int
    words: list[tuple[int, ...]]
    prime: int
    rejected: list[int]
    closure_proved: bool
    generators: list[int] = field(default_factory=list)


def algebra_generators(Z: FusedModuleSpec) -> np.ndarray:
    """The N^2 blocks of S(u0) (s_samples) at the 2n + 1 non-poles of
    _sample_grid, which generate A_Z (default_truncation): a ((2n + 1) N^2,
    d, d) stack of primitive integer blocks, (i, j) of point k at k N^2 + i N + j."""
    N, d = Z.N, Z.dimZ
    S = s_samples(Z, _sample_grid(2 * Z.n_total + 1, Z.poles()))[1]
    return primitive_part(S.reshape(-1, N, d, N, d).transpose(0, 1, 3, 2, 4).reshape(-1, d, d))


# Burnside growth multiplies a slice of words by all generators at once;
# the slice is cut so that its products hold at most this many residues.
_GROWTH_BATCH = 2**12


def _grow_mod_p(G: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Burnside growth modulo p by the residues G, breadth first from the
    identity: the words as (parent word, generator) pairs, the identity as
    (-1, -1).

    Residues are float64 in (-p, p) (reduce_mod).  A slice of words is
    multiplied by all g generators in one mod_matmul with [G_1 ... G_g], and
    the products are reduced against the reduced echelon rows E of the span
    in one pass, X - X[:, pivots] @ E.  The first product left nonzero is a
    new word: its normalized row is eliminated from the later products and
    from the slice's earlier new rows N, and the search goes on after it.
    At the end of the slice one product eliminates the new pivots from E,
    E - E[:, new pivots] @ N.  Candidates are taken in the order (word,
    generator), so the words are those of growing one word at a time."""
    g, d, _ = G.shape
    D = d * d
    Gcat = G.transpose(1, 0, 2).reshape(d, g * d)
    W = np.zeros((D, d, d))  # the words mod p
    W[0] = np.eye(d)
    E = np.zeros((D, D))
    E[0] = W[0].ravel()
    pivots, words = [0], [(-1, -1)]
    step = max(1, _GROWTH_BATCH // max(g * D, 1))
    lo = 0
    while lo < len(words) < D:
        hi = min(len(words), lo + step)
        X = mod_matmul(W[lo:hi].reshape(-1, d), Gcat, p)
        X = X.reshape(hi - lo, d, g, d).transpose(0, 2, 1, 3).reshape((hi - lo) * g, D)
        r0 = r = len(words)
        R = reduce_mod(X - mod_matmul(X[:, pivots], E[:r0], p), p)
        t = -1
        while r < D:
            live = np.flatnonzero(R[t + 1:].any(axis=1))
            if not live.size:
                break
            t += 1 + int(live[0])
            c = int(np.flatnonzero(R[t])[0])
            row = reduce_mod(R[t] * pow(int(R[t, c]), -1, p), p)
            R[t + 1:] = reduce_mod(R[t + 1:] - R[t + 1:, c:c + 1] * row, p)
            E[r0:r] = reduce_mod(E[r0:r] - E[r0:r, c:c + 1] * row, p)
            E[r], W[r] = row, X[t].reshape(d, d)
            pivots.append(c)
            words.append((lo + t // g, t % g))
            r += 1
        if r > r0:
            E[:r0] = reduce_mod(E[:r0] - mod_matmul(E[:r0, pivots[r0:]], E[r0:r], p), p)
        lo = hi
    return words


def _lift_words(G: np.ndarray, words: list[tuple[int, int]]) -> np.ndarray:
    """The integer words along their (parent, generator) pairs, each the
    primitive part of its product (the same line as the word mod p, since
    that word is nonzero), int64 where int_matmul certifies them.  Children
    of one parent are consecutive, so each parent takes one product with
    [G_1 ... G_g]."""
    g, d, _ = G.shape
    Gcat = G.transpose(1, 0, 2).reshape(d, g * d)
    out = [np.eye(d, dtype=np.int64)]
    parent, prods = None, None
    for i, j in words[1:]:
        if i != parent:
            parent, prods = i, int_matmul(out[i], Gcat).reshape(d, g, d)
        out.append(primitive_part(prods[:, j, :]))
    return np.array(out)


# The closure proof forms the word x generator products of as many
# generators at once as keep them within this many entries: all of them
# unless the module is large.
_PROOF_BATCH = 2**20


def _span_closed(G: np.ndarray, chosen: list[int], grown: list[tuple[int, int]]) -> bool:
    """Whether the words grown from G[chosen] span A_Z, the algebra G
    generates, exactly: one echelon of the r x d^2 word matrix (of full row
    rank, or the growth was wrong) checks x[free] = x[pivots] @ C for the
    generators not chosen and the r * g word x chosen generator products.
    The span holds 1 and is closed under G[chosen], so it is the algebra
    they generate, and it holds every other generator, so it is A_Z."""
    Wint = _lift_words(G[chosen], grown)
    r, d, _ = Wint.shape
    pivots, C = echelon(Wint.reshape(r, d * d))
    if len(pivots) != r:
        raise InternalInconsistency(f"{r} words independent mod p have rank {len(pivots)}")
    free = _free_columns(pivots, d * d)
    X = np.delete(G, chosen, axis=0).reshape(-1, d * d)  # checked with the first batch
    step = max(1, _PROOF_BATCH // (r * d * d))
    for lo in range(0, max(len(chosen), 1), step):
        Gs = G[chosen[lo:lo + step]]
        g = Gs.shape[0]
        P = int_matmul(Wint.reshape(r * d, d), Gs.transpose(1, 0, 2).reshape(d, g * d))
        P = P.reshape(r, d, g, d).transpose(0, 2, 1, 3).reshape(r * g, d * d)
        if not relation_holds(np.concatenate([X, P]), pivots, free, C):
            return False
        X = X[:0]
    return True


def _index_sequences(grown: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The (parent, generator) pairs of the growth as index sequences."""
    seqs: list[tuple[int, ...]] = []
    for i, j in grown:
        seqs.append(() if i < 0 else seqs[i] + (j,))
    return seqs


def burnside(Z: FusedModuleSpec) -> AlgebraSpan:
    """dim A_Z, the algebra generated by the S(u) values, by Burnside
    growth modulo a prime and an exact closure proof.

    Growth mod p starts from the leftmost generators G (algebra_generators)
    independent mod p; its words are independent over Q, and d^2 of them
    span End(Z).  Fewer span A_Z exactly when _span_closed proves it on G;
    a prime that gave too small a span fails that proof and the next one
    is tried."""
    d = Z.dimZ
    G, rejected = algebra_generators(Z), []
    for p in _BURNSIDE_PRIMES:
        R = (G % p).astype(np.float64)
        chosen = _modp_rref(R.reshape(len(R), d * d).T.copy(), p)[0]
        grown = _grow_mod_p(R[chosen], p)
        words = _index_sequences(grown)
        if len(grown) == d * d:
            return AlgebraSpan(d * d, words, p, rejected, False, chosen)
        if _span_closed(G, chosen, grown):
            return AlgebraSpan(len(grown), words, p, rejected, True, chosen)
        rejected.append(p)
    raise InternalInconsistency(f"no prime of {_BURNSIDE_PRIMES} gave a closed span")


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
    algebra_dim: int
    verdict: str

    def to_json(self) -> dict:
        return {
            "spec": dict(self.spec),
            "on_wall": list(self.on_wall),
            "laurent_order": self.laurent_order,
            "phi_rank": self.phi_rank,
            "phi_surjective": self.phi_surjective,
            "algebra_dim": self.algebra_dim,
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
            algebra_dim=int(data["algebra_dim"]),
            verdict=str(data["verdict"]),
        )


def default_truncation(Z: FusedModuleSpec) -> int:
    """The generator truncation order K = 2n + 2 of a module with n boxes.

    S_Z(u) = F^t(-u) F(u) / q(u), q(u) = den(-u) den(u) of degree 2n, so
    P = q S_Z is a matrix polynomial of degree <= 2n whose coefficients span
    what S_0 = I, S_1, ..., S_2n span, which holds every S_k (P = q S and
    S = P / q, term by term at infinity).  P's values at 2n + 1 distinct
    points are its coefficients times an invertible Vandermonde matrix, and
    q != 0 at non-poles: so the blocks of S(u_i) there span I and the blocks
    of S_1 .. S_2n and generate A_Z (algebra_generators).  commutant_dim at
    K > 2n sees every coefficient; no verdict reads K."""
    return 2 * Z.n_total + 2


def verdict(Z: FusedModuleSpec, witness: tuple[int, int] | None = None) -> IrreducibilityReport:
    """Walls, leading-coefficient surjectivity and, only where phi is not
    surjective, Burnside growth of A_Z; irreducible exactly when
    dim A_Z = d^2.  ``witness`` is the module's phi_witness, as
    phi_witnesses gives it for a batch, and is taken here when not given.
    A witness of rank d^2 proves surjectivity and gives the exact report;
    any other takes the exact path.  A witness of rank 0, where the
    product of the lowest frames cancelled modulo its prime or a block's
    residue vanished, starts frame_product at window 2, past the window 1
    that such points use up; that changes only the work.  A phi of rank
    above dim A_Z contradicts the theory (its image lies in A_Z) and
    aborts.  A MemoryError is raised as SizeLimit, naming Z and dim Z."""
    params = [z for _, z in Z.factors]
    on_wall = [c.describe() for c in walls(Z).violated(params)]
    full = Z.dimZ**2
    try:
        order, rank = phi_witness(Z) if witness is None else witness
        if rank == full:
            surj, dim = True, full
        else:
            phi = phi_leading(Z, window=2 if rank == 0 else 1)
            rank, surj = surjectivity(phi)
            order = phi.order
            dim = full if surj else burnside(Z).dim
    except MemoryError as exc:
        raise SizeLimit(f"{Z.form.kind}{Z.N} {Z.spec_string()} (dim Z = {Z.dimZ}) "
                        f"does not fit in memory") from exc
    if rank > dim:
        raise InternalInconsistency(f"phi of rank {rank} into an algebra of dimension {dim}")
    return IrreducibilityReport(
        spec=Z.to_json(),
        on_wall=on_wall,
        laurent_order=order,
        phi_rank=rank,
        phi_surjective=surj,
        algebra_dim=dim,
        verdict="irreducible" if dim == full else "reducible",
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
