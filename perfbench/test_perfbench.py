"""Checks of the benchmark's own instrumentation.

    python3 -m pytest perfbench

The tracer must not change what the program prints, and must leave every
name it rebinds as it found it.
"""

import importlib
import io
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
try:
    import twistfusion  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_trace  # noqa: E402
from run import MODULES  # noqa: E402

SCAN = ["scan", "--n", "2", "--form", "sp", "--modules", "1;1",
        "--grid=-1/3,2/7;4/3,1/3", "--jobs", "1", "--json"]


def _api():
    mods = {m: importlib.import_module("twistfusion." + m) for m in MODULES}
    return SimpleNamespace(pkg=importlib.import_module("twistfusion"), **mods)


def _scan_stdout(api):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert api.cli.main(SCAN) == 0
    return buf.getvalue()


def _bindings(api):
    """Every attribute of the package's modules and traced classes."""
    owners = [getattr(api, m) for m in MODULES] + [
        api.pkg, api.tensor.MatrixLaurentSeries, api.linalg.ScaledIntMatrix, api.exactnum.RatFunc,
    ]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_scan_stdout_identical_with_tracer():
    api = _api()
    plain = _scan_stdout(api)
    tracer = bench_trace.Tracer()
    bench_trace.install(api, tracer)
    try:
        traced = _scan_stdout(api)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert any(rec[0] == "irreducibility.verdict" for rec in tracer.spans)


def test_every_rebound_name_is_restored():
    api = _api()
    before = _bindings(api)
    tracer = bench_trace.Tracer()
    bench_trace.install(api, tracer)
    try:
        assert api.cli.verdict is not before[(id(api.cli), "verdict")]
        rebound = {(id(owner), attr) for owner, attr, _ in tracer.rebound()}
        _scan_stdout(api)
        form = api.tensor.GForm.symplectic(2)
        spec = api.repmatrix.FusedModuleSpec(form, [(api.diagrams.parse_skew("1"), Fraction(1, 3))])
        assert api.repmatrix.check_defining_relations(spec).passed
    finally:
        tracer.uninstall()
    after = _bindings(api)
    assert rebound <= set(before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.rebound() == []
