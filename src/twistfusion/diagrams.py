"""Skew Young diagram combinatorics.

A skew diagram is a pair of weakly decreasing non-negative sequences
lambda/mu with mu <= lambda componentwise, kept canonical by stripping
trailing zeros.  Boxes live at 1-indexed lattice positions (row i, column j)
with mu_i < j <= lambda_i.  The distinguished filling is the column-standard
tableau: columns left to right, each column top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedShape, SharpInconsistent


def _canonical(seq) -> tuple[int, ...]:
    out = [int(x) for x in seq]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class SkewDiagram:
    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __init__(self, lam, mu=()):
        lam = _canonical(lam)
        mu = _canonical(mu)
        for name, seq in (("lambda", lam), ("mu", mu)):
            if any(x < 0 for x in seq):
                raise MalformedShape(f"{name} has a negative part: {seq}")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise MalformedShape(f"{name} is not weakly decreasing: {seq}")
        if len(mu) > len(lam):
            raise MalformedShape(f"mu has more parts than lambda: {lam}/{mu}")
        for i, m in enumerate(mu):
            if m > lam[i]:
                raise MalformedShape(f"mu_{i+1}={m} exceeds lambda_{i+1}={lam[i]}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    # -- geometry ------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self.lam)

    @property
    def n_cols(self) -> int:
        return self.lam[0] if self.lam else 0

    def mu_padded(self) -> tuple[int, ...]:
        return self.mu + (0,) * (len(self.lam) - len(self.mu))

    @property
    def size(self) -> int:
        return sum(self.lam) - sum(self.mu)

    def row_span(self, i: int) -> range:
        """Columns occupied in row i (1-indexed)."""
        mu = self.mu_padded()
        return range(mu[i - 1] + 1, self.lam[i - 1] + 1)

    def boxes(self) -> list[tuple[int, int]]:
        """All boxes in row-major order."""
        return [(i, j) for i in range(1, self.n_rows + 1) for j in self.row_span(i)]

    def column_height(self, j: int) -> int:
        """Boxes in column j: the rows with lambda_i >= j less those with
        mu_i >= j (both sequences decrease, and mu <= lambda)."""
        return sum(x >= j for x in self.lam) - sum(x >= j for x in self.mu)

    def max_column_height(self) -> int:
        return max((self.column_height(j) for j in range(1, self.n_cols + 1)), default=0)

    def fits(self, N: int) -> bool:
        return self.max_column_height() <= N

    # -- text / JSON -----------------------------------------------------
    def __str__(self) -> str:
        lam = ",".join(str(x) for x in self.lam) or "0"
        if not self.mu:
            return lam
        return lam + "/" + ",".join(str(x) for x in self.mu)

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "mu": list(self.mu)}


def parse_skew(text: str) -> SkewDiagram:
    """Parse 'l1,l2,.../m1,m2,...' (mu part optional)."""
    text = text.strip()
    if not text:
        raise MalformedShape("empty diagram text")
    parts = text.split("/")
    if len(parts) > 2:
        raise MalformedShape(f"too many '/' in {text!r}")

    def ints(chunk: str, what: str):
        if chunk.strip() == "":
            return ()
        try:
            return tuple(int(x) for x in chunk.split(","))
        except ValueError as exc:
            raise MalformedShape(f"bad {what} in {text!r}") from exc

    lam = ints(parts[0], "lambda")
    mu = ints(parts[1], "mu") if len(parts) == 2 else ()
    return SkewDiagram(lam, mu)


@dataclass(frozen=True)
class ColumnTableau:
    boxes: tuple[tuple[int, int], ...]
    contents: tuple[int, ...]


def column_tableau(omega: SkewDiagram) -> ColumnTableau:
    """The column-standard filling: columns left to right, top to bottom."""
    boxes = sorted(omega.boxes(), key=lambda ij: (ij[1], ij[0]))
    contents = tuple(j - i for (i, j) in boxes)
    return ColumnTableau(tuple(boxes), contents)


def sharp(omega: SkewDiagram) -> tuple[SkewDiagram, int]:
    """180-degree rotation within the lambda bounding box, and the parameter
    shift constant c with z -> -z - c.

    c = c_p + c'_{sigma(p)} is verified to be independent of p before
    returning; a failure is SharpInconsistent (a bug, never valid input).
    """
    if omega.size == 0:
        return SkewDiagram(()), 0
    r = omega.n_rows
    width = omega.n_cols
    mu = omega.mu_padded()
    lam_s = tuple(width - mu[r - i] for i in range(1, r + 1))
    mu_s = tuple(width - omega.lam[r - i] for i in range(1, r + 1))
    rotated = SkewDiagram(lam_s, mu_s)

    c_orig = column_tableau(omega).contents
    c_rot = column_tableau(rotated).contents
    n = omega.size
    if rotated.size != n:
        raise SharpInconsistent(f"box count changed under rotation of {omega}")
    consts = {c_orig[p] + c_rot[n - 1 - p] for p in range(n)}
    if len(consts) != 1:
        raise SharpInconsistent(f"shift constant not constant for {omega}: {sorted(consts)}")
    return rotated, consts.pop()


def ssyt_count(omega: SkewDiagram, N: int) -> int:
    """Number of semistandard fillings with entries in 1..N, by backtracking.

    Rows weakly increase left to right, columns strictly increase downwards.
    """
    boxes = omega.boxes()  # row-major: left and top neighbours already placed
    filled: dict[tuple[int, int], int] = {}

    def place(k: int) -> int:
        if k == len(boxes):
            return 1
        i, j = boxes[k]
        lo = 1
        left = filled.get((i, j - 1))
        if left is not None:
            lo = max(lo, left)
        top = filled.get((i - 1, j))
        if top is not None:
            lo = max(lo, top + 1)
        total = 0
        for v in range(lo, N + 1):
            filled[(i, j)] = v
            total += place(k + 1)
        filled.pop((i, j), None)
        return total

    return place(0)
