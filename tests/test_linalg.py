from fractions import Fraction

import numpy as np

from twistfusion import linalg


def _thirds_of_rank_60() -> np.ndarray:
    """A 66 x 66 matrix of thirds: rows [I | X] / 3, then 6 sums of them."""
    rng = np.random.default_rng(7)
    top = np.concatenate([np.eye(60, dtype=int), rng.integers(-4, 5, (60, 6))], axis=1)
    low = rng.integers(-2, 3, (6, 60)) @ top
    return np.vectorize(lambda v: Fraction(int(v), 3), otypes=[object])(np.vstack([top, low]))


def test_rank_exact_when_every_prime_divides_a_denominator(monkeypatch):
    A = _thirds_of_rank_60()
    assert max(A.shape) > linalg._SMALL
    monkeypatch.setattr(linalg, "_PRIMES", (3,))
    assert linalg.rank_exact(A) == 60
    assert linalg.rank_exact(A.T.copy()) == 60
