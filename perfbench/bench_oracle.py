"""Burnside ground truth for irreducibility verdicts.

By Burnside's theorem a module Z is irreducible exactly when the algebra
spanned by words in its generator matrices is all of End(Z), i.e. has
dimension (dim Z)^2.  The algebra here is spanned by words in the
coefficient matrices of S_Z(u) up to order K = default_truncation(Z), the
truncation the package uses for its own verdicts.

The span is grown modulo a prime (fast), and the result is then proved over
Q with the package's ``rank_exact``: the chosen words are independent mod p,
hence over Q, and the span they give is closed exactly when the rank of the
words together with every word times every generator equals their number.
That closed span contains the identity and every generator, so it is the
algebra.  A prime that gave a too-small span fails the proof and the next
prime is tried.
"""

from __future__ import annotations

import math

import numpy as np


def _primes_below(bound: int, count: int) -> list[int]:
    out = []
    n = bound - 1
    while len(out) < count:
        if n % 2 and all(n % f for f in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
        n -= 1
    return out


# Below 2^28, so a dot product of up to 64 residues stays inside int64.
_PRIMES = _primes_below(1 << 28, 3)


def _content_free(mat: np.ndarray) -> np.ndarray:
    g = 0
    for v in mat.flat:
        g = math.gcd(g, int(v))
    return mat if g in (0, 1) else mat // g


class _EchelonModP:
    """Row echelon basis of a growing span of vectors modulo p."""

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple[int, np.ndarray]] = []

    def add(self, vec: np.ndarray) -> bool:
        p = self.p
        v = vec % p
        for c, row in self.rows:
            if v[c]:
                v = (v - v[c] * row) % p
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        c = int(nz[0])
        self.rows.append((c, v * pow(int(v[c]), p - 2, p) % p))
        return True


def _vec_mod(mat: np.ndarray, p: int) -> np.ndarray:
    return np.array([int(v) % p for v in mat.flat], dtype=np.int64)


def algebra_dim(api, Z) -> int:
    """Exact dimension of the algebra generated by the S_Z(u) coefficients."""
    d = Z.dimZ
    if d == 1:
        return 1
    K = api.irreducibility.default_truncation(Z)
    gens = api.repmatrix.s_generators(Z, K)
    mats = []
    for k in range(K + 1):
        for i in range(Z.N):
            for j in range(Z.N):
                m, _ = api.linalg.to_int_scaled(gens.rho[k][i][j])
                if any(v != 0 for v in m.flat):
                    mats.append(_content_free(m))
    identity = np.zeros((d, d), dtype=object)
    for i in range(d):
        identity[i, i] = 1
    for p in _PRIMES:
        span = _EchelonModP(p)
        gen_basis = [G for G in mats if span.add(_vec_mod(G, p))]
        span = _EchelonModP(p)
        words = [identity]
        span.add(_vec_mod(identity, p))
        i = 0
        while i < len(words) and len(words) < d * d:
            W = words[i]
            i += 1
            for G in gen_basis:
                Y = _content_free(W @ G)
                if span.add(_vec_mod(Y, p)):
                    words.append(Y)
        r = len(words)
        if r == d * d:
            return r  # independent mod p, so independent over Q: all of End(Z)
        rows = [W.reshape(-1) for W in words]
        rows += [(W @ G).reshape(-1) for W in words for G in mats]
        if api.linalg.rank_exact(np.stack(rows)) == r:
            return r
    raise RuntimeError("Burnside oracle: no prime gave a closed span")


def ground_truth(api, Z) -> str:
    """'irreducible' or 'reducible', by Burnside's theorem."""
    return "irreducible" if algebra_dim(api, Z) == Z.dimZ ** 2 else "reducible"
