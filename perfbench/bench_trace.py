"""In-memory span tracer that rebinds twistfusion names at run time.

The tracer never edits the package: it replaces attributes on the imported
modules and classes with thin wrappers that record a span (name, start, end,
parent) and, for a few kernels, operation counters.  ``uninstall`` puts every
original object back.  Spans stay in memory until the run ends.

A function imported by name into several modules (``from .linalg import
rank_exact``) is rebound in every twistfusion module that holds it, so every
call site that looks the name up at call time is seen.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

_INT64_SAFE = 1 << 62

# MatrixLaurentSeries methods whose spans make up the tensor.laurent layer.
_LAURENT_METHODS = ("from_frames", "embedded", "__matmul__", "trimmed", "coefficient")
LAURENT_OPS = tuple("tensor.laurent." + m.strip("_") for m in _LAURENT_METHODS)


def _max_abs(mat: np.ndarray) -> int:
    return max((abs(int(v)) for v in mat.flat), default=0)


class Tracer:
    """Records spans from wrapped callables; one thread, one process."""

    def __init__(self):
        # each span: [name, start, end, parent index, counters dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, fn, name: str, before=None, after=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``before(args, kwargs)`` runs before the call (inside the span) and its
        result is handed to ``after(state, args, kwargs, result)``, which
        returns the span's counters."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                state = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    rec[4] = after(state, args, kwargs, result)
                return result
            except BaseException as exc:
                rec[4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                rec[2] = clock()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- rebinding --------------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind_function(self, fn, name: str, before=None, after=None):
        """Replace ``fn`` wherever a twistfusion module holds it."""
        wrapper = self.wrap(fn, name, before, after)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "twistfusion" or modname.startswith("twistfusion.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{name}: function not found in any twistfusion module")

    def rebind_method(self, cls, attr: str, name: str, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, before, after)))
        else:
            self._set(cls, attr, self.wrap(raw, name, before, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def rebound(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    # -- output -----------------------------------------------------------
    def write(self, path: str):
        """Write every span as one JSON line: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                row = {"name": name, "start": round(start - t0, 9), "end": round(end - t0, 9),
                       "parent": parent}
                if info:
                    row["counters"] = info
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# the benchmark's instrumentation of twistfusion

def _matmul_counters(_state, args, _kwargs, _result):
    a, b = args[0].mat, args[1].mat
    rows, inner = a.shape
    cols = b.shape[1]
    ma, mb = _max_abs(a), _max_abs(b)
    return {
        "mults": rows * inner * cols,
        "max_bits": max(ma.bit_length(), mb.bit_length()),
        "int64_safe": ma * mb * inner < _INT64_SAFE,
    }


def _relation_counters(_state, args, _kwargs, _result):
    """Counters for a relation check, which multiplies every block of its
    first sample by every block of its second one, in both orders."""
    left, right = args[0], args[1]
    ml = [_max_abs(b) for row in left for b in row]
    mr = [_max_abs(b) for row in right for b in row]
    d = left[0][0].shape[0]
    products = 2 * len(ml) * len(mr)
    safe = sum(2 for x in ml for y in mr if x * y * d < _INT64_SAFE)
    return {
        "products": products,
        "mults": products * d ** 3,
        "max_bits": max(m.bit_length() for m in ml + mr),
        "int64_safe": safe,
    }


def install(api, tracer: Tracer):
    """Rebind the traced names of a freshly imported twistfusion ``api``."""
    fusion, repmatrix, tensor, linalg = api.fusion, api.repmatrix, api.tensor, api.linalg
    irr, exactnum = api.irreducibility, api.exactnum

    def fusion_before(args, kwargs):
        omega, N = args[0], args[1]
        slopes = kwargs.get("slopes", args[2] if len(args) > 2 else None)
        if slopes is None:
            slopes = fusion.default_slopes(omega)
        return (omega, N, tuple(int(s) for s in slopes)) in fusion._cache

    tracer.rebind_function(fusion.fusion_operator, "fusion.fusion_operator",
                           before=fusion_before,
                           after=lambda hit, a, k, r: {"miss": not hit})
    tracer.rebind_function(
        repmatrix.swz_frame_blocks, "repmatrix.swz_frame_blocks",
        after=lambda s, a, k, blocks: {
            "blocks": len(blocks),
            "frame_entries": sum(len(fb.frames) * fb.frames[0].shape[0] * fb.frames[0].shape[1]
                                 for fb, _ in blocks),
        })
    tracer.rebind_function(repmatrix.s_generators, "repmatrix.s_generators")
    tracer.rebind_function(
        repmatrix.check_defining_relations, "repmatrix.check_defining_relations",
        after=lambda s, a, k, rep: {"samples": rep.rtt_checked + rep.reflection_checked})
    tracer.rebind_function(repmatrix._rtt_holds, "repmatrix.relation_products",
                           after=_relation_counters)
    tracer.rebind_function(repmatrix._reflection_holds, "repmatrix.relation_products",
                           after=_relation_counters)
    for attr, label in zip(_LAURENT_METHODS, LAURENT_OPS):
        tracer.rebind_method(tensor.MatrixLaurentSeries, attr, label)
    tracer.rebind_function(tensor.transpose_legs, "tensor.transpose_legs")
    tracer.rebind_function(linalg.to_int_scaled, "linalg.to_int_scaled")
    tracer.rebind_method(linalg.ScaledIntMatrix, "__matmul__", "linalg.scaled_matmul",
                         after=_matmul_counters)
    tracer.rebind_function(
        linalg.rank_exact, "linalg.rank_exact",
        after=lambda s, a, k, r: {"deficient": r < min(a[0].shape)})
    tracer.rebind_function(
        linalg.nullspace_exact, "linalg.nullspace_exact",
        after=lambda s, a, k, r: {"cols": a[0].shape[1]})
    tracer.rebind_function(irr.verdict, "irreducibility.verdict")
    tracer.rebind_function(irr.phi_leading, "irreducibility.phi_leading")
    tracer.rebind_function(irr.commutant_dim, "irreducibility.commutant_dim")
    tracer.rebind_method(exactnum.RatFunc, "series_at_infinity", "exactnum.series_at_infinity")
    tracer.rebind_method(exactnum.RatFunc, "laurent_at", "exactnum.laurent_at")


# ---------------------------------------------------------------------------
# span aggregation

class SpanIndex:
    """Self and busy times of span groups, computed from parent links."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.child_time = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def _members(self, names, within=None):
        names = set(names)
        for i, rec in enumerate(self.spans):
            if rec[0] in names and (within is None or self._under(i, within)):
                yield i, rec

    def _under(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def busy(self, names) -> float:
        """Wall time covered by spans of ``names``; nested members count once."""
        names = set(names)
        return sum(rec[2] - rec[1] for i, rec in self._members(names)
                   if not self._under(i, names))

    def self_time(self, names, within=None) -> float:
        return sum(rec[2] - rec[1] - self.child_time[i] for i, rec in self._members(names, within))

    def count(self, names) -> int:
        return sum(1 for _ in self._members(names))

    def counters(self, names, key):
        for _, rec in self._members(names):
            if rec[4] and key in rec[4]:
                yield rec[4][key]

    def names_under(self, root: str) -> set[str]:
        return {rec[0] for i, rec in enumerate(self.spans) if self._under(i, {root})}
