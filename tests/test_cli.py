import io
import json
from contextlib import redirect_stdout

import pytest

from twistfusion.cli import main


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
        "--modules", "1:1/3;1:7/5", "--k", "6", "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "irreducible"
    assert data["phi_surjective"] is True
    assert data["commutant_dim"] == 1
    assert set(data) == {
        "spec", "on_wall", "laurent_order", "phi_rank", "phi_surjective",
        "commutant_dim", "K", "stabilized", "verdict",
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


def test_determinism_byte_identical():
    args = ["irreducible", "--n", "2", "--form", "sp", "--modules", "1:1/3", "--json"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    args = ["check-ybe", "--n", "2", "--samples", "3", "--seed", "9", "--json"]
    _, o1 = run_cli(args)
    _, o2 = run_cli(args)
    assert o1 == o2


def test_scan_parallel_matches_sequential():
    args = ["scan", "--n", "2", "--form", "sp", "--modules", "1;1",
            "--grid", "1/3,2/3;7/5", "--json"]
    _, seq = run_cli(args)
    _, par = run_cli(args + ["--jobs", "2"])
    # jobs flag is not part of the report; outputs must be identical
    assert seq == par


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
