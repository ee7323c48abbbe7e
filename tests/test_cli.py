import csv
import json
import math

import pytest

from qrspaces.cli import COMMANDS, build_map, main, parse_scale
from qrspaces.errors import (
    HypothesisViolationError,
    InvalidParameterError,
    PoleError,
    SingularityError,
)
from qrspaces.spaces import Fpqs, Morrey, Qnpa


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_parse_scale():
    s = parse_scale("Q(1,2,0.5)")
    assert isinstance(s, Qnpa) and s.n == 1 and s.alpha == 0.5
    assert isinstance(parse_scale("Fh(2,0,1)"), Fpqs)
    assert isinstance(parse_scale("morrey(0.5)"), Morrey)
    with pytest.raises(InvalidParameterError):
        parse_scale("nonsense")
    with pytest.raises(InvalidParameterError):
        parse_scale("Q(1,2)")
    with pytest.raises(InvalidParameterError):
        parse_scale("F(2,0,-1)")


def test_build_map_families():
    f = build_map("affine:k=0.5;sign=-1")
    assert f(0.5) == pytest.approx(0.25)
    g = build_map("hpoly:h=0,1;g=0,0.5")
    assert g(1j * 0.4) == pytest.approx(0.4j - 0.2j)
    assert build_map("identity")(0.3) == pytest.approx(0.3)
    assert build_map("fold")(0.2 + 0.1j) == pytest.approx(0.4)
    with pytest.raises(InvalidParameterError):
        build_map("unknown-map")
    with pytest.raises(InvalidParameterError):
        build_map("affine:wrong")


def test_norm_command_identity(tmp_path, capsys):
    out = tmp_path / "norm.jsonl"
    code = main(["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                 "--out", str(out)])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["raw_sup"] == pytest.approx(math.pi, rel=1e-12)
    assert rec["value"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert rec["config"]["map_spec"] == "identity"


def test_norm_trivial_warning(tmp_path, capsys):
    out = tmp_path / "norm.jsonl"
    code = main(["norm", "--map", "identity", "--scale", "Q(1,3,0.5)",
                 "--out", str(out), "--search-max-j", "3"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["warnings"]
    assert "trivial" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--scale", "XX(1)"],
    ["--angular", "100"],  # not a divisor of the master grid's 2048 angles
    ["--angular", "0"],
    ["--radial", "0"],
    ["--radial", "1"],
    ["--search-max-j", "-1"],
    ["--search-angles", "0"],
    ["--scale", "F(2,0,1)", "--weight-form", "green", "--radial", "0"],
    ["--scale", "F(2,0,1)", "--weight-form", "green", "--angular", "0"],
], ids=["malformed-scale", "angular-100", "angular-0", "radial-0", "radial-1",
        "search-max-j-negative", "search-angles-0", "green-radial-0",
        "green-angular-0"])
def test_norm_malformed_scale_exit_2(tmp_path, capsys, args):
    assert main(["norm", "--map", "identity", *args,
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [PoleError, SingularityError,
                                   HypothesisViolationError])
def test_package_errors_exit_2(monkeypatch, capsys, error):
    def fail(cfg):
        raise error("bad input")

    monkeypatch.setitem(COMMANDS, "norm", fail)
    assert main(["norm", "--map", "identity"]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_unwritable_out_exit_4(tmp_path):
    assert main(["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                 "--out", "/nonexistent-dir/x.jsonl"]) == 4


def test_constants_command(tmp_path):
    out = tmp_path / "c.jsonl"
    code = main(["constants", "--constant", "qs:s=1", "--out", str(out)])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["value"] == pytest.approx(math.pi / 2, rel=1e-8)
    assert rec["sup_rho"] <= 1e-3


def test_constants_missing_parameter_exit_2(tmp_path, capsys):
    assert main(["constants", "--constant", "overlap:q=0",
                 "--out", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == "error: missing parameter 's'\n"


def test_verify_command_pass_and_fields(tmp_path):
    out = tmp_path / "v.jsonl"
    code = main(["verify", "--theorem", "3.1", "--map", "affine:k=0.5;sign=-1",
                 "--scale", "Q(1,1.5,0)", "--K", "3", "--out", str(out),
                 "--search-max-j", "4"])
    assert code == 0
    rec = read_jsonl(out)[0]
    for key in ("theorem", "map", "scale", "K", "Kprime", "lhs", "rhs",
                "margin", "pass", "tol", "grid_radial", "grid_angular"):
        assert key in rec
    assert rec["pass"] is True
    assert abs(rec["margin"]) <= 1e-6 * rec["rhs"]


def test_verify_unknown_theorem_exit_2(tmp_path):
    assert main(["verify", "--theorem", "9.9", "--map", "identity",
                 "--scale", "Q(1,1.5,0)", "--out", str(tmp_path / "v.jsonl")]) == 2


def test_verify_estimates_K_when_omitted(tmp_path):
    out = tmp_path / "v.jsonl"
    code = main(["verify", "--theorem", "3.2", "--map", "affine:k=0.2;sign=-1",
                 "--scale", "F(2,0,1)", "--out", str(out),
                 "--search-max-j", "4"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["K"] == pytest.approx(1.2 / 0.8, rel=1e-6)


@pytest.mark.parametrize("args", [
    ["--theorem", "3.1", "--scale", "Q(1,1.5,0)"],
    ["--theorem", "3.1", "--scale", "Q(1,1.5,0)", "--K", "inf"],
    ["--theorem", "4.1", "--scale", "M(0.8,0,1)"],
], ids=["3.1-estimated-K", "3.1-K-inf", "4.1-estimated-K"])
def test_verify_sense_reversing_map_exit_2(tmp_path, capsys, args):
    # z - 2 conj(z): |G'| = 3 |F'|, J < 0 everywhere, so no finite K bounds it
    assert main(["verify", "--map", "hpoly:h=0,1;g=0,-2", *args,
                 "--out", str(tmp_path / "v.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--theorem", "3.1",
                 "--maps", "affine:k=0.2;sign=-1", "affine:k=0.5;sign=-1",
                 "--cells", "Q(1,1.5,0)", "Q(1,2.5,1)",
                 "--out", str(out), "--search-max-j", "3"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["pass"] == "True" for r in rows)
    # deterministic: re-run produces identical bytes
    out2 = tmp_path / "sweep2.csv"
    main(["sweep", "--theorem", "3.1",
          "--maps", "affine:k=0.2;sign=-1", "affine:k=0.5;sign=-1",
          "--cells", "Q(1,1.5,0)", "Q(1,2.5,1)",
          "--out", str(out2), "--search-max-j", "3"])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_records_cell_errors_and_continues(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--theorem", "3.1",
                 "--maps", "affine:k=0.2;sign=-1",
                 "--cells", "Q(1,5.0,0)", "Q(1,1.5,0)",
                 "--out", str(out), "--search-max-j", "3"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert "InvalidParameterError" in rows[0]["error"]
    assert rows[1]["pass"] == "True"


def test_sweep_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--theorem", "3.1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows == []


def test_sweep_threads_deterministic(tmp_path):
    args = ["sweep", "--theorem", "3.2",
            "--maps", "affine:k=0.2;sign=-1", "affine:k=0.8;sign=-1",
            "--cells", "F(2,0,1)", "--search-max-j", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_growth_command(tmp_path):
    out = tmp_path / "g.jsonl"
    code = main(["growth", "--map", "koebe", "--which", "hprime",
                 "--out", str(out), "--gnuplot"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["beta"] == pytest.approx(3.0, abs=0.05)
    assert (tmp_path / "g.jsonl.dat").exists()
    assert (tmp_path / "g.jsonl.gp").exists()


def test_config_round_trip(tmp_path):
    out1 = tmp_path / "r1.jsonl"
    assert main(["norm", "--map", "poly:coeffs=0,0,1", "--scale", "Q(1,2,0.5)",
                 "--out", str(out1), "--search-max-j", "4"]) == 0
    rec1 = read_jsonl(out1)[0]
    cfg_path = tmp_path / "cfg.json"
    embedded = dict(rec1["config"])
    embedded["out"] = str(tmp_path / "r2.jsonl")
    cfg_path.write_text(json.dumps(embedded))
    assert main(["norm", "--config", str(cfg_path)]) == 0
    rec2 = read_jsonl(tmp_path / "r2.jsonl")[0]
    assert rec2["value"] == rec1["value"]
    assert rec2["trace"] == rec1["trace"]


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QRSPACES_RADIAL", "64")
    out = tmp_path / "n.jsonl"
    assert main(["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                 "--out", str(out), "--search-max-j", "3"]) == 0
    rec = read_jsonl(out)[0]
    assert rec["config"]["radial"] == 64
    # explicit flag wins over the environment
    out2 = tmp_path / "n2.jsonl"
    assert main(["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                 "--radial", "96", "--out", str(out2), "--search-max-j", "3"]) == 0
    assert read_jsonl(out2)[0]["config"]["radial"] == 96


def test_verify_membership_via_cli(tmp_path):
    out = tmp_path / "m.jsonl"
    cfg = {"command": "verify", "theorem": "4.1", "map_spec": "koebe",
           "scale_spec": "M(0.5,0,1)", "K": 1.0,
           "out": str(out)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(cfg_path)])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["theorem"] == "4.1"
    assert rec["in_range"] is True


def test_verify_inhomogeneous_fold_via_cli(tmp_path):
    out = tmp_path / "fold.jsonl"
    code = main(["verify", "--theorem", "3.5", "--map", "fold",
                 "--scale", "Q(1,1.5,0)", "--K", "1", "--Kprime", "4",
                 "--out", str(out), "--search-max-j", "4"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["pass"] is True
    assert rec["lhs"] == pytest.approx(0.0, abs=1e-12)
    # without --K the distortion estimate fails on the degenerate fold
    assert main(["verify", "--theorem", "3.5", "--map", "fold",
                 "--scale", "Q(1,1.5,0)", "--Kprime", "4",
                 "--out", str(out)]) == 2


def test_sweep_membership_threshold(tmp_path):
    out = tmp_path / "range.csv"
    code = main(["sweep", "--theorem", "4.1", "--maps", "koebe",
                 "--cells", "M(0.8,0,1)", "M(1.2,0,1)",
                 "--K", "1", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pass"] for r in rows] == ["True", "True"]
    assert float(rows[0]["lhs"]) < 1e-3   # stabilized below threshold
    assert float(rows[1]["lhs"]) > 1e-3   # divergent side
