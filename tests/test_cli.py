import io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import twistfusion
from twistfusion.cli import main


def _src_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(twistfusion.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_check_ybe():
    code, out = run_cli(["check-ybe", "--n", "2", "--samples", "5"])
    assert code == 0
    assert "pass" in out


def test_check_ybe_json():
    code, out = run_cli(["check-ybe", "--n", "3", "--samples", "2", "--seed", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["samples"]) == 2


def test_check_relations():
    code, out = run_cli(["check-relations", "--n", "2", "--form", "so", "--modules", "1,1:1/3"])
    assert code == 0
    assert "pass" in out


def test_fusion_command():
    code, out = run_cli(["fusion", "--diagram", "2,2", "--n", "2"])
    assert code == 0
    assert "dim 1" in out


def test_duality_command():
    code, out = run_cli(["duality", "--diagram", "1,1", "--n", "2", "--form", "sp", "--z", "1/3"])
    assert code == 0
    assert "pass" in out


def test_irreducible_json():
    code, out = run_cli([
        "irreducible", "--n", "2", "--form", "sp",
        "--modules", "1:1/3;1:7/5", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "irreducible"
    assert data["phi_surjective"] is True
    assert data["algebra_dim"] == 16
    assert set(data) == {
        "spec", "on_wall", "laurent_order", "phi_rank", "phi_surjective",
        "algebra_dim", "K", "verdict",
    }


def test_scan_wall_flags():
    code, out = run_cli([
        "scan", "--n", "2", "--form", "sp", "--modules", "1",
        "--grid", "1/3,1/2,2/3,1", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 4
    walls = {p["z"][0]: p["report"]["on_wall"] for p in data["points"]}
    assert walls["1/3"] == [] and walls["2/3"] == []
    assert walls["1/2"] == ["z1 in (1/2)Z"]
    assert walls["1"] == ["z1 in (1/2)Z"]
    assert data["summary"]["errors"] == 0
    assert set(data["summary"]) == {"irreducible", "reducible", "errors"}


def test_scan_empty_grid():
    code, out = run_cli([
        "scan", "--n", "2", "--form", "so", "--modules", "1",
        "--grid", "", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["points"] == []
    assert data["summary"]["errors"] == 0


def test_scan_per_point_error_recorded():
    # a diagram too tall for N errors per point; the scan continues
    code, out = run_cli([
        "scan", "--n", "2", "--form", "so", "--modules", "1,1,1",
        "--grid", "1/3,2/3", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["errors"] == 2
    assert all("error" in p for p in data["points"])


def test_scan_unexpected_exception_stays_at_its_point(monkeypatch):
    from twistfusion import cli

    real_verdict = cli.verdict

    def flaky(spec, **kwargs):
        if spec.z(0) == Fraction(2, 3):
            raise ZeroDivisionError("boom")
        return real_verdict(spec, **kwargs)

    monkeypatch.setattr(cli, "verdict", flaky)
    code, out = run_cli([
        "scan", "--n", "2", "--form", "sp", "--modules", "1",
        "--grid", "1/3,2/3,2/5", "--jobs", "1", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert [p["z"] for p in data["points"]] == [["1/3"], ["2/3"], ["2/5"]]
    assert data["points"][1]["error"] == "ZeroDivisionError: boom"
    assert all("report" in data["points"][i] for i in (0, 2))
    assert data["summary"]["errors"] == 1


def test_determinism_byte_identical():
    args = ["irreducible", "--n", "2", "--form", "sp", "--modules", "1:1/3", "--json"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    args = ["check-ybe", "--n", "2", "--samples", "3", "--seed", "9", "--json"]
    _, o1 = run_cli(args)
    _, o2 = run_cli(args)
    assert o1 == o2


@pytest.fixture
def fresh_pool():
    """No scan workers before or after the test, so workers forked during it
    carry its monkeypatches and none outlives it."""
    from twistfusion import cli

    cli._shutdown_pool()
    yield
    cli._shutdown_pool()


def test_scan_parallel_matches_sequential(fresh_pool):
    from twistfusion import cli

    # the second grid runs through the reducible wall point 1/3;4/3, where
    # Burnside decides inside a worker
    for grid in ("1/3,2/3;7/5", "1/3;4/3,-1/3"):
        args = ["scan", "--n", "2", "--form", "sp", "--modules", "1;1",
                "--grid", grid, "--json"]
        _, seq = run_cli(args)
        _, par = run_cli(args + ["--jobs", "2"])
        pool = cli._pool
        _, again = run_cli(args + ["--jobs", "2"])
        # jobs flag is not part of the report; outputs must be identical
        assert seq == par == again
        assert cli._pool is pool is not None


def test_scan_pool_capped_at_point_count(monkeypatch, fresh_pool):
    from twistfusion import cli

    seen, shut = [], []

    class InProcessPool:
        """Records max_workers, checks that workers would be forked and maps in
        this process: starts no process."""

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            seen.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, wait):
            shut.append(wait)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    args = ["scan", "--n", "2", "--form", "sp", "--modules", "1",
            "--grid", "1/3,2/5", "--json"]
    _, seq = run_cli(args + ["--jobs", "1"])
    assert seen == []
    _, par = run_cli(args + ["--jobs", "8"])
    assert seen == [2]
    assert par == seq
    # a second scan with the same worker count reuses the pool
    assert run_cli(args + ["--jobs", "2"]) == (0, seq)
    assert seen == [2] and shut == []
    # one point, or none, runs in this process whatever --jobs asks
    run_cli(["scan", "--n", "2", "--form", "sp", "--modules", "1", "--grid", "1/3",
             "--jobs", "500", "--json"])
    run_cli(["scan", "--n", "2", "--form", "sp", "--modules", "1", "--grid", "",
             "--jobs", "2", "--json"])
    assert seen == [2]
    # three workers: the two-worker pool is shut down before a new one starts
    args = ["scan", "--n", "2", "--form", "sp", "--modules", "1",
            "--grid", "1/3,2/5,2/7", "--json"]
    _, seq = run_cli(args + ["--jobs", "1"])
    assert run_cli(args + ["--jobs", "3"]) == (0, seq)
    assert seen == [2, 3] and shut == [True]


def test_scan_lost_worker_is_a_typed_failure(monkeypatch, fresh_pool, capsys):
    from twistfusion import cli

    real_verdict = cli.verdict

    def dying(spec, **kwargs):
        if spec.z(0) == Fraction(2, 3):
            os._exit(3)
        return real_verdict(spec, **kwargs)

    # patched before the pool is made, so the forked workers call it
    monkeypatch.setattr(cli, "verdict", dying)
    args = ["scan", "--n", "2", "--form", "sp", "--modules", "1",
            "--grid", "1/3,2/3,2/5", "--json"]
    assert run_cli(args + ["--jobs", "2"]) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("FAILED: WorkerLost:") and "Traceback" not in err
    assert cli._pool is None
    monkeypatch.undo()
    _, seq = run_cli(args + ["--jobs", "1"])
    assert run_cli(args + ["--jobs", "2"]) == (0, seq)


def test_scan_workers_exit_with_the_interpreter():
    code = textwrap.dedent("""
        import io, multiprocessing
        from contextlib import redirect_stdout
        from twistfusion.cli import main
        args = ["scan", "--n", "2", "--form", "sp", "--modules", "1",
                "--grid", "1/3,2/5", "--jobs", "2"]
        with redirect_stdout(io.StringIO()):
            assert main(args) == 0 and main(args) == 0
        print(*(p.pid for p in multiprocessing.active_children()))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["irreducible"])  # missing --modules
    assert exc.value.code == 2


def test_scan_two_factor_grid_broadcast():
    code, out = run_cli([
        "scan", "--n", "2", "--form", "sp", "--modules", "1;1",
        "--grid", "1/3,7/5", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 4  # 2x2 cartesian product
    offwall = [p for p in data["points"] if not p["report"]["on_wall"]]
    for p in offwall:
        assert p["report"]["verdict"] == "irreducible"


@pytest.mark.parametrize("argv,flag,value", [
    (["scan", "--n", "2", "--form", "sp", "--modules", "1", "--json"], "--grid", "-1/3,1/3"),
    (["duality", "--diagram", "1,1", "--n", "2", "--form", "sp"], "--z", "-2/5"),
])
def test_negative_rational_flag_values(argv, flag, value):
    code, spaced = run_cli(argv + [flag, value])
    assert code == 0
    assert run_cli(argv + [f"{flag}={value}"]) == (code, spaced)


def test_scan_g_file_matches_default_form(tmp_path):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps([["0", "1"], ["-1", "0"]]))
    args = ["scan", "--n", "2", "--form", "sp", "--modules", "1;1",
            "--grid", "1/3,7/5", "--json"]
    _, plain = run_cli(args)
    code, custom = run_cli(args + ["--g-file", str(gfile)])
    assert code == 0
    assert json.loads(custom) == json.loads(plain)


@pytest.mark.parametrize("argv,bad", [
    (["check-relations", "--modules", "1:x"], "'x'"),
    (["scan", "--modules", "1", "--grid", "1/3", "--n", "0"], "got 0"),
    (["irreducible", "--modules", "1:abc"], "'abc'"),
    (["irreducible", "--modules", "1"], "'1'"),
    (["duality", "--diagram", "1", "--z", "1/0"], "'1/0'"),
    (["scan", "--modules", "1", "--grid", "1/3,abc"], "'abc'"),
    (["check-ybe", "--n", "0"], "got 0"),
    (["check-ybe", "--samples", "0"], "got 0"),
    (["irreducible", "--n", "-2", "--modules", ""], "got -2"),
    (["scan", "--modules", "1", "--grid", "1/3", "--jobs", "0"], "got 0"),
    (["irreducible", "--modules", "1:1/3", "--g-file", "no-such-dir/g.json"], "no-such-dir"),
    (["scan", "--modules", "1;1", "--grid", "1/3;", "--form", "sp", "--n", "2"], "factor 2"),
    (["scan", "--modules", "1;1", "--grid", ";", "--form", "sp", "--n", "2"], "factor 1"),
])
def test_malformed_input_fails_without_traceback(argv, bad):
    # a fresh interpreter, so stderr shows exactly what a user would see
    proc = subprocess.run([sys.executable, "-m", "twistfusion.cli", *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "MalformedInput" in proc.stderr and bad in proc.stderr


@pytest.mark.parametrize("content", ["[[1, 0], [0, 1]", "[1,2]", "[[1, 0], [0]]"])
def test_bad_g_file_is_malformed_input(content, tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(content)
    assert main(["irreducible", "--modules", "1:1/3", "--g-file", str(gfile)]) == 1
    err = capsys.readouterr().err
    assert err.count("FAILED:") == 1 and "MalformedInput" in err and "g.json" in err
