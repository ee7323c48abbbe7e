import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrspaces import cli
from qrspaces.analytic import power_series
from qrspaces.cli import (
    COMMANDS,
    MAX_RADIAL,
    RunConfig,
    build_map,
    build_parser,
    main,
    parse_scale,
)
from qrspaces.errors import (
    AccuracyError,
    HypothesisViolationError,
    InvalidParameterError,
    PoleError,
    SingularityError,
)
from qrspaces.harmonic import analytic_as_harmonic
from qrspaces.quadrature import angular_count_for
from qrspaces.spaces import (
    Fpqs,
    Morrey,
    Qnpa,
    SupSearchSpec,
    WeightedSupProblem,
    _finish_norm,
    _pow_tabulator,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import pools  # noqa: E402


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


CHEAP = ["--radial", "8", "--search-max-j", "1"]


def cheap(argv):
    """``argv`` and the cheap settings its run reads: --radial 8 and
    --search-max-j 1, only the first for ``constants``, neither for
    ``growth`` or a membership check."""
    if argv[0] == "growth" or "4.1" in argv or "4.2" in argv:
        return argv
    return argv + (CHEAP[:2] if argv[0] == "constants" else CHEAP)


# The shared flags each subcommand takes, besides --config and --out.
SHARED_FLAGS = {
    "norm": ("--radial", "--angular", "--search-max-j", "--search-angles"),
    "constants": ("--radial", "--angular"),
    "verify": ("--radial", "--angular", "--search-max-j", "--search-angles",
               "--tol", "--truncation-max-j"),
    "sweep": ("--radial", "--angular", "--search-max-j", "--search-angles",
              "--tol", "--truncation-max-j"),
    "growth": (),
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
def test_each_command_takes_only_the_shared_flags_it_reads(tmp_path, capsys,
                                                           command):
    # a shared flag a command does not read is a usage error, not ignored;
    # --seed and --threads are no flag of any command
    every = {flag for flags in SHARED_FLAGS.values() for flag in flags}
    for flag in sorted(every | {"--seed", "--threads"}):
        argv = [command, flag, "3"]
        if flag in SHARED_FLAGS[command]:
            build_parser().parse_args(argv)  # no usage error
            continue
        assert main([*argv, "--out", str(tmp_path / "x.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {flag}" in err
        assert not (tmp_path / "x.out").exists()


def test_flag_count_over_the_subcommands():
    # --config and --out everywhere, the shared flags each command reads,
    # and its own: 9 + 5 + 15 + 15 + 5
    counts = {name: sum(1 for a in p._actions if a.option_strings
                        and not isinstance(a, argparse._HelpAction))
              for name, p in _subparsers().items()}
    assert counts == {"norm": 9, "constants": 5, "verify": 15, "sweep": 15,
                      "growth": 5}
    assert sum(counts.values()) == 49


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


def test_parser_is_built_once_and_keeps_no_state():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["norm", "--radial", "8"])
    second = parser.parse_args(["norm"])
    assert first.radial == 8
    assert not hasattr(second, "radial")


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


def fresh_python(code, cwd):
    """Run ``code`` in a fresh interpreter on this checkout's package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    run = fresh_python("import sys, qrspaces.cli; "
                       "print([m for m in sys.modules if m.startswith('scipy')])",
                       tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_a_verify_runs_where_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every import of the package fail
    argv = ["verify", "--theorem", "3.2", "--map", "cayley-shear:k=0.5",
            "--scale", "F(2,0,1)", "--K", "3"]
    run = fresh_python("import sys; sys.modules['scipy'] = None; "
                       "from qrspaces.cli import main; "
                       f"sys.exit(main({argv!r}))", tmp_path)
    assert run.returncode == 0, run.stderr


def test_norm_command_identity(tmp_path, capsys):
    out = tmp_path / "norm.jsonl"
    code = main(["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                 "--out", str(out)])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["raw_sup"] == pytest.approx(math.pi, rel=1e-12)
    assert rec["value"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert rec["config"]["map_spec"] == "identity"


def test_m_scale_norm_tabulates_half_the_circle(tmp_path):
    # every CLI map has real coefficients, so the M-scale's tables hold
    # rows x (count/2 + 1) points: the 8 x 2048 master grid and the node
    # doubling at the argmax; the value is within 1e-13 of the full circle
    out = tmp_path / "m.jsonl"
    assert main(["norm", "--map", "koebe-shear:k=0.3", "--scale", "M(1,0,1)",
                 "--radial", "8", "--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    count = angular_count_for(math.hypot(*rec["sup_a"]), 1.0)
    assert rec["grid"]["table_work"]["points"] == 8 * 1025 + 16 * (count + 1)
    f = build_map("koebe-shear:k=0.3")
    full = _finish_norm(WeightedSupProblem(_pow_tabulator(lambda z: f(z), 1.0),
                                           0.0, 1.0, radial=8),
                        SupSearchSpec(), 1.0)
    assert full.grid["table_work"]["points"] == 8 * 2048 + 16 * 2 * count
    assert rec["value"] == pytest.approx(abs(f(0.0)) + full.value, rel=1e-13)


def test_norm_trivial_warning(tmp_path, capsys):
    out = tmp_path / "norm.jsonl"
    code = main(["norm", "--map", "poly:coeffs=0,1,0.5", "--scale", "Q(1,3,0.5)",
                 "--out", str(out), "--search-max-j", "3"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["warnings"]
    assert "trivial" in capsys.readouterr().err


def test_affine_norm_past_the_trivial_range_is_infinite(tmp_path, capsys):
    # p > alpha + 2 gives s_eff < 0: the affine map's derivative base is a
    # nonzero constant, whose sup over a is infinite, not a value on the cap
    out = tmp_path / "norm.jsonl"
    assert main(["norm", "--map", "affine:k=0.5;sign=-1", "--scale",
                 "Q(1,2.5,0)", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("accuracy error: ") and err.count("\n") == 1
    assert "infinite" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["norm", "--map", "affine:k=0.5;sign=-1", "--scale", "Q(1,1.5,0)"],
    ["norm", "--map", "affine:k=0.5;sign=1", "--scale", "F(2,0,1)"],
    ["norm", "--map", "identity", "--scale", "Q(1,2,0)"],
    ["norm", "--map", "hpoly:h=0,1;g=0,0.5", "--scale", "Qs(1)"],
    ["norm", "--map", "affine:k=0.2;sign=-1", "--scale", "Morrey(0.5)"],
    ["norm", "--map", "poly:coeffs=2", "--scale", "BergmanMorrey(2,0.5)"],
    ["verify", "--theorem", "3.1", "--map", "affine:k=0.5;sign=-1",
     "--scale", "Q(1,1.5,0)", "--K", "3"],
    ["verify", "--theorem", "3.2", "--map", "affine:k=0.5;sign=1",
     "--scale", "F(0.8,0.8,1)", "--K", "3"],
    ["verify", "--theorem", "cor3.3", "--map", "affine:k=0.8;sign=-1",
     "--scale", "Qs(1)", "--K", "9"],
], ids=["norm-Q", "norm-F", "norm-identity", "norm-Qs", "norm-Morrey",
        "norm-BergmanMorrey", "verify-3.1", "verify-3.2", "verify-cor3.3"])
def test_constant_base_records_carry_the_closed_form(tmp_path, monkeypatch,
                                                    argv):
    # a map with constant derivative bases builds no engine problem, so it
    # costs no table and no kernel run
    def no_problem(*args, **kwargs):
        raise AssertionError("an engine problem was built")

    monkeypatch.setattr(WeightedSupProblem, "__init__", no_problem)
    out = tmp_path / "r.jsonl"
    assert main(argv + ["--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    counts = rec["grid"] if argv[0] == "norm" else rec
    assert counts["closed_form"] is True
    assert set(counts["kernel_evaluations"].values()) == {0}
    assert set(counts["table_work"].values()) == {0}


def test_engine_records_say_they_are_not_closed_form(tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["norm", "--map", "koebe", "--scale", "F(2,0,1)",
                 "--search-max-j", "2", "--out", str(out)]) == 0
    grid = read_jsonl(out)[0]["grid"]
    assert grid["closed_form"] is False
    assert grid["kernel_evaluations"]["direct"] > 0


@pytest.mark.parametrize("args", [
    ["--scale", "XX(1)"],
    ["--angular", "100"],  # not a rung of the angular ladder
    ["--angular", "0"],
    ["--radial", "0"],
    ["--radial", "1"],
    ["--search-max-j", "-1"],
    ["--search-angles", "0"],
    ["--scale", "F(2,0,1)", "--weight-form", "green", "--radial", "0"],
    ["--scale", "F(2,0,1)", "--weight-form", "green", "--angular", "0"],
    ["--scale", "Q(1.5,2,0)"],  # a jet order must be an integer
    ["--scale", "Q(2.7,1,3)"],
    # past the top rung, 2048, each lattice angle is a direct kernel call
    ["--scale", "Q(1,1.5,0)", "--search-max-j", "1", "--search-angles", "2049",
     "--radial", "8"],
], ids=["malformed-scale", "angular-100", "angular-0", "radial-0", "radial-1",
        "search-max-j-negative", "search-angles-0", "green-radial-0",
        "green-angular-0", "jet-order-1.5", "jet-order-2.7",
        "search-angles-2049"])
def test_norm_malformed_scale_exit_2(tmp_path, capsys, args):
    assert main(["norm", "--map", "identity", *args,
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["norm", "--map", "cayley-shear:k=0.3;kk=2", "--scale", "Q(1,2,0)"],
    ["norm", "--map", "identity:k=0.3", "--scale", "Q(1,2,0)"],
    ["norm", "--map", "poly:coeffs=0,1;h=3", "--scale", "Q(1,2,0)"],
    ["norm", "--map", "fold:k=0.2", "--scale", "Q(1,2,0)"],
    ["norm", "--map", "affine:k=0.5;sign=-1.5", "--scale", "Q(1,2,0)"],
    ["constants", "--constant", "qs:s=1;x=2"],
    ["constants", "--constant", "sigma-deriv:p=2;alpha=0.5;beta=1"],
], ids=["cayley-shear-kk", "identity-k", "poly-h", "fold-k", "affine-sign-1.5",
        "qs-x", "sigma-deriv-beta"])
def test_unknown_parameter_or_bad_sign_exit_2(tmp_path, capsys, args):
    # a key the map family or constant kind does not take is rejected, not
    # ignored, and so is an affine sign other than +-1
    out = tmp_path / "x.jsonl"
    assert main([*args, "--radial", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("takes only" in err or "takes no" in err or "sign" in err)
    assert not out.exists()


AFFINE_31 = ["--theorem", "3.1", "--map", "affine:k=0.5;sign=-1",
             "--scale", "Q(1,1.5,0)", "--K", "3"]


@pytest.mark.parametrize("args, config", [
    (["norm", "--scale", "Morrey(0.5)", "--weight-form", "green"], None),
    (["norm", "--scale", "Q(1,2,0)"], {"weight_form": "green"}),
    (["verify", *AFFINE_31, "--Kprime", "4"], None),
    (["verify", "--theorem", "cor3.1", "--map", "fold", "--K", "1",
      "--Kprime", "4", "--scale", "Morrey(0.5)"], None),
    (["verify", *AFFINE_31, "--target", "fz"], None),
    (["verify", "--theorem", "3.5", "--map", "fold", "--K", "1",
      "--scale", "Q(1,1.5,0)", "--alpha-K", "2"], None),
    (["verify", *AFFINE_31], {"weight_form": "green"}),
    (["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)",
      "--K", "1"], {"Kprime": 2}),
    (["sweep", "--theorem", "3.2", "--Kprime", "2", "--maps", "identity",
      "--cells", "F(2,0,1)"], None),
    (["sweep", "--theorem", "cor3.4", "--maps", "fold", "--cells", "Qs(1)",
      "--K", "1", "--Kprime", "4"], {"alpha_K": 1.5}),
    (["norm", "--map", "identity", "--scale", "Q(1,2,0)"],
     {"Kprime": 4, "theorem": "9.9", "target": "x"}),
    (["norm", "--map", "identity", "--scale", "Q(1,2,0)"], {"alpha_K": 1.5}),
    (["constants", "--constant", "qs:s=1"], {"theorem": "3.1"}),
    (["constants", "--constant", "qs:s=1"], {"weight_form": "green"}),
    (["growth", "--map", "koebe"], {"Kprime": 4}),
    (["growth", "--map", "koebe"], {"target": "fz"}),
    (["verify", *AFFINE_31, "--truncation-max-j", "5"], None),
    (["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)",
      "--K", "1", "--search-max-j", "2"], None),
    (["verify", "--theorem", "4.2", "--map", "koebe", "--scale", "F(2,0,1)",
      "--K", "1", "--search-angles", "4"], None),
    (["sweep", "--theorem", "4.1", "--maps", "koebe", "--cells", "M(0.8,0,1)",
      "--K", "1"], {"search_max_j": 2}),
    (["constants", "--constant", "qs:s=1"], {"search_max_j": 2}),
    (["growth", "--map", "koebe"], {"truncation_max_j": 5}),
    (["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)",
      "--K", "1", "--truncation-max-j", "4", "--radial", "8"], None),
    (["sweep", "--theorem", "4.2", "--maps", "koebe", "--cells", "F(2,0,1)",
      "--K", "1"], {"radial": 8}),
    (["growth", "--map", "koebe"], {"radial": 8}),
    (["norm", "--map", "identity", "--scale", "Q(1,2,0)"],
     {"tol": 0.5, "K": 3.0, "growth_target": "f_itself"}),
    (["constants", "--constant", "qs:s=1"], {"map_spec": "koebe"}),
    (["verify", *AFFINE_31], {"gnuplot": True}),
    (["growth", "--map", "koebe"], {"cells": ["Q(1,2,0)"]}),
], ids=["norm-green-morrey", "norm-green-config", "3.1-kprime",
        "cor3.1-kprime", "3.1-target", "3.5-alpha-k", "verify-green-config",
        "4.1-kprime-config", "sweep-3.2-kprime", "sweep-cor3.4-alpha-k-config",
        "norm-check-fields-config", "norm-alpha-k-config",
        "constants-theorem-config", "constants-green-config",
        "growth-kprime-config", "growth-target-config", "3.1-truncation-max-j",
        "4.1-search-max-j", "4.2-search-angles", "sweep-4.1-search-config",
        "constants-search-config", "growth-truncation-config", "4.1-radial",
        "sweep-4.2-radial-config", "growth-radial-config",
        "norm-unread-config", "constants-map-config", "verify-threads-config",
        "growth-cells-config"])
def test_flag_the_norm_or_theorem_cannot_honour_exit_2(tmp_path, capsys, args,
                                                       config):
    # a flag that the chosen norm or theorem would ignore is rejected, not
    # echoed in the config of a record whose value never used it
    out = tmp_path / "x.out"
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg_path)]
    assert main([*cheap(args), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "takes no" in err or "takes an F(p,q,s)" in err
    assert not out.exists()


@pytest.mark.parametrize("map_spec", ["koebe", "cayley-shear:k=0.5"])
def test_unresolved_green_integral_exit_3(tmp_path, capsys, map_spec):
    # the Green-weight items the benchmark pools exclude: the integral at
    # a = 0 already moves under node doubling, so the norm is not reported
    out = tmp_path / "g.jsonl"
    assert main(["norm", "--map", map_spec, "--scale", "F(2,0,1)",
                 "--weight-form", "green", "--search-max-j", "3",
                 "--search-angles", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("accuracy error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["norm", "--scale", "F(2,0,inf)"],
    ["norm", "--scale", "Q(1,nan,0)"],
    ["norm", "--scale", "Qs(inf)"],
    ["norm", "--scale", "M(1,0,nan)"],
    ["norm", "--scale", "F(nan,0,1)"],
    ["norm", "--scale", "Bloch(inf)"],
    ["norm", "--map", "affine:k=nan"],
    ["norm", "--map", "affine:k=abc"],
    ["constants", "--constant", "overlap:q=nan;s=1"],
    ["constants", "--constant", "sigma-deriv:p=2;alpha=inf"],
    ["verify", "--theorem", "3.5", "--map", "fold", "--Kprime", "nan"],
    ["verify", "--K", "-1"],
    ["verify", "--K", "nan"],
    ["verify", "--Kprime", "-1"],
    ["verify", "--alpha-K", "-1"],
    ["verify", "--tol", "-1"],
    ["verify", "--tol", "inf"],
    ["sweep", "--K", "nan", "--maps", "identity", "--cells", "Q(1,1.5,0)"],
    ["sweep", "--tol", "nan"],
    ["sweep", "--alpha-K", "-3", "--maps", "identity", "--cells", "Q(1,1.5,0)"],
    ["norm", "--map", "cayley-shear:k=0.5", "--scale", "F(2,0,1)",
     "--search-max-j", "11"],
    ["norm", "--map", "cayley-shear:k=0.5", "--scale", "F(2,0,1)",
     "--search-max-j", "40"],
    ["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)",
     "--truncation-max-j", "60"],
    ["verify", "--theorem", "3.5", "--map", "fold", "--K", "0.5", "--Kprime",
     "4", "--scale", "Q(1,1.5,0)"],
    ["verify", "--theorem", "3.5", "--map", "fold", "--K", "0.01", "--Kprime",
     "4", "--scale", "Q(1,1.5,0)"],
])
def test_non_finite_or_negative_numbers_exit_2(tmp_path, capsys, args):
    # scale, map and constant numbers must be well-formed and finite; K, K',
    # the growth order and tol finite and >= 0 (K = 0 still means: estimate,
    # and a given K is >= 1); the search depth at most the radius cap's 10,
    # the truncation depth at most 53 (1 - 2^-54 rounds to 1)
    assert main([*args, "--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sup_on_cap_flags_a_maximizer_on_the_radius_cap(tmp_path):
    # koebe's F(2,0,1) integral grows without bound in |a|, so the search
    # ends on the cap; an affine map's peaks at a = 0
    flags = {}
    for spec in ("koebe", "affine:k=0.5;sign=-1"):
        out = tmp_path / "n.jsonl"
        assert main(["norm", "--map", spec, "--scale", "F(2,0,1)",
                     "--out", str(out)]) == 0
        flags[spec] = read_jsonl(out)[0]["sup_on_cap"]
    assert flags == {"koebe": True, "affine:k=0.5;sign=-1": False}


@pytest.mark.parametrize("map_spec, on_cap", [
    ("koebe-dilatation:k=0.5", True),   # argmax on a lattice ring
    ("affine:k=0.5;sign=-1", False),    # argmax at a = 0, a direct call
])
def test_conjugate_record_round_trips_through_json(tmp_path, map_spec, on_cap):
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--theorem", "3.2", "--map", map_spec,
                 "--scale", "F(2,0,1)", "--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    assert json.loads(json.dumps(rec)) == rec
    for side in ("u", "v"):
        sup_a = rec[f"sup_a_{side}"]
        assert isinstance(sup_a, list) and len(sup_a) == 2
        assert all(isinstance(x, float) for x in sup_a)
        assert rec[f"sup_on_cap_{side}"] is on_cap


@pytest.mark.parametrize("angular", ["4", "100", "4096"])
@pytest.mark.parametrize("args", [
    ["norm", "--map", "identity", "--scale", "Q(1,1.5,0)"],
    ["norm", "--map", "identity", "--scale", "Q(2,1,1)"],
    ["norm", "--map", "identity", "--scale", "F(2,0,1)",
     "--weight-form", "green"],
    ["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)"],
    ["constants", "--constant", "qs:s=1"],
    ["sweep", "--theorem", "3.1", "--maps", "identity", "--cells", "Q(1,1.5,0)"],
    ["growth", "--map", "koebe"],
], ids=["engine", "composition", "green", "membership", "constants", "sweep",
        "growth"])
def test_angular_off_ladder_exit_2(tmp_path, monkeypatch, capsys, args,
                                  angular):
    # every a != 0 gets at least the first rung (256 angles), so a count off
    # the ladder would only reach a = 0 while the record claimed it; the
    # count is checked once, for every subcommand, growth included, which
    # takes no --angular but reads the environment
    if args[0] == "growth":
        monkeypatch.setenv("QRSPACES_ANGULAR", angular)
    else:
        args = [*args, "--angular", angular]
    assert main([*args, "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(256, 512, 1024, 2048)" in err


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


@pytest.mark.parametrize("args", [
    ["constants", "--constant", "qs:s=1"],
    ["sweep", "--theorem", "3.1", "--maps", "identity", "--cells", "Q(1,1.5,0)"],
    ["growth", "--map", "koebe"],
], ids=["constants", "sweep", "growth"])
def test_radial_below_two_exit_2(tmp_path, monkeypatch, capsys, args):
    # growth takes no --radial; the environment sets it for every command
    if args[0] == "growth":
        monkeypatch.setenv("QRSPACES_RADIAL", "1")
    else:
        args = [*args, "--radial", "1"]
    assert main([*args, "--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err == "error: --radial must be >= 2, got 1\n"


@pytest.mark.parametrize("args", [
    ["norm", "--map", "identity", "--scale", "Q(1,2,0)"],
    ["verify", "--theorem", "3.1", "--map", "identity", "--scale",
     "Q(1,1.5,0)", "--K", "1"],
    ["constants", "--constant", "qs:s=1"],
], ids=["norm", "verify", "constants"])
@pytest.mark.parametrize("radial", [MAX_RADIAL + 1, 10 ** 6])
def test_radial_above_the_cap_exit_2_before_any_grid(tmp_path, capsys, args,
                                                      radial):
    # a 2049 x 2048 complex master grid alone would take 67 MB, and
    # 10^6 radial nodes 32 GB; the check runs first, so no grid is built
    tracemalloc.start()
    try:
        code = main([*args, "--radial", str(radial),
                     "--out", str(tmp_path / "x.out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --radial must be at most {MAX_RADIAL}, got {radial}\n")
    assert peak < 1_000_000
    assert not (tmp_path / "x.out").exists()


def test_base_error_on_one_row_block_keeps_its_exit_code(tmp_path, monkeypatch,
                                                         capsys):
    # a power series of radius of convergence 1/2 raises AccuracyError on
    # the first row block that reaches |z| > 1/2; it leaves the tabulation
    # with its type and exits 3
    series = power_series([2.0 ** m for m in range(40)], 39)
    monkeypatch.setattr(cli, "build_map",
                        lambda spec: analytic_as_harmonic(series))
    assert main(["norm", "--map", "series", "--scale", "Q(1,2,0)",
                 "--out", str(tmp_path / "x.jsonl")]) == 3
    assert capsys.readouterr().err.startswith(
        "accuracy error: power series tail is not decreasing")


def test_constants_record_is_the_closed_form_with_an_engine_check(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["constants", "--constant", "morrey:lam=0.3",
                 "--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    assert rec["value"] == math.pi / 2.0 and rec["sup_rho"] == 0.0
    assert rec["trace"] == [[0.0, rec["value"]]]
    check = rec["engine_check"]
    assert check["rel_dev"] <= 1e-12
    assert (check["q_eff"], check["s_eff"]) == (0.7, 0.3)
    assert check["kernel_evaluations"]["direct"] == 1


@pytest.mark.parametrize("spec", ["sigma-deriv:p=2.6;alpha=0.5",
                                  "sigma-deriv:p=2.2;alpha=0"])
def test_infinite_constant_exit_3(tmp_path, capsys, spec):
    # p > alpha + 2, however slightly: the constant is infinite
    out = tmp_path / "c.jsonl"
    assert main(["constants", "--constant", spec, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("accuracy error: ") and err.count("\n") == 1
    assert "infinite" in err and not out.exists()


@pytest.mark.parametrize("args", [
    ["norm", "--map", "identity", "--scale", "M(1e-300,0,1)",
     "--search-max-j", "2"],
    ["verify", "--theorem", "4.1", "--map", "koebe", "--K", "1", "--scale",
     "M(1e-300,0,1)", "--truncation-max-j", "4"],
    ["verify", "--theorem", "3.1", "--map", "affine:k=0.5;sign=-1", "--K",
     "3", "--scale", "Q(1,0.001,-0.9995)", "--search-max-j", "2"],
    ["norm", "--map", "poly:coeffs=0,1e200", "--scale", "Q(1,2,0)"],
    ["verify", "--theorem", "3.2", "--map", "poly:coeffs=0,1e200", "--K", "1",
     "--scale", "F(2,0,1)", "--search-max-j", "2"],
], ids=["norm-root", "membership-root", "conjugate-root", "norm-base",
        "conjugate-base"])
def test_overflow_or_non_finite_result_exit_3(tmp_path, capsys, args):
    # a 1/p root past the float range, or a base that overflows: one
    # accuracy line, no traceback, no warning and no record
    out = tmp_path / "x.jsonl"
    assert main([*args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("accuracy error: ") and err.count("\n") == 1
    assert not out.exists()


def test_records_with_a_non_finite_number_are_not_written(tmp_path):
    out = tmp_path / "x.jsonl"
    with pytest.raises(AccuracyError, match="non-finite"):
        cli.write_records(str(out), [{"value": math.inf}])
    assert list(tmp_path.iterdir()) == []


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


# The scale form each theorem id takes, and one example of every scale kind.
THEOREM_FORMS = {"3.1": "Q(1,p,alpha)", "3.2": "F(p,q,s)", "3.5": "Q(1,p,alpha)",
                 "3.6": "F(p,q,s)", "cor3.1": "Morrey(lam)",
                 "cor3.2": "BergmanMorrey(p,lam)", "cor3.3": "Qs(s)",
                 "cor3.4": "Morrey(lam)", "cor3.5": "BergmanMorrey(p,lam)",
                 "cor3.6": "Qs(s)", "4.1": "M(p,q,s)", "4.2": "F(p,q,s)"}
SCALE_EXAMPLES = {"Q(1,p,alpha)": "Q(1,1.5,0)", "F(p,q,s)": "F(2,0,1)",
                  "M(p,q,s)": "M(0.8,0,1)", "Morrey(lam)": "Morrey(0.5)",
                  "BergmanMorrey(p,lam)": "BergmanMorrey(1.5,0.5)",
                  "Qs(s)": "Qs(1)", "Bloch(alpha)": "Bloch(1)",
                  "Q(n,p,alpha)": "Q(2,1,1)"}


@pytest.mark.parametrize("theorem, scale", [
    (theorem, example) for theorem, form in THEOREM_FORMS.items()
    for kind, example in SCALE_EXAMPLES.items() if kind != form
] + [("cor3.1", "Morrey(1)"), ("cor3.4", "Morrey(1)")])
def test_verify_wrong_scale_kind_exit_2(tmp_path, capsys, theorem, scale):
    # every theorem id takes one scale kind; any other kind (and Morrey(1) for
    # the Morrey corollaries) exits 2 naming the theorem and the form it takes
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--theorem", theorem, "--map", "affine:k=0.5;sign=-1",
                 "--K", "3", "--scale", scale, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {theorem} " in err and THEOREM_FORMS[theorem] in err
    assert not out.exists()


def test_verify_unknown_theorem_exit_2(tmp_path):
    assert main(["verify", "--theorem", "9.9", "--map", "identity",
                 "--scale", "Q(1,1.5,0)", "--out", str(tmp_path / "v.jsonl")]) == 2


def test_sweep_unknown_theorem_exit_2_before_any_cell(tmp_path, capsys,
                                                      monkeypatch):
    # a run-level parameter: one error line, not the same error in every row
    def no_cell(cfg):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_verification", no_cell)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--theorem", "9.9", "--maps", "identity",
                 "--cells", "Q(1,1.5,0)", "F(2,0,1)", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown theorem id '9.9'")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_sweep_overflow_is_a_cell_error(tmp_path):
    # a base past the float range: each cell records the overflow in its
    # error column, the sweep goes on and exits 0, with no RuntimeWarning
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--theorem", "3.2", "--maps",
                     "poly:coeffs=0,1e200", "--cells", "F(2,0,1)", "--K", "1",
                     "--search-max-j", "2", "--out", str(out)]) == 0
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["error"].startswith("FloatingPointError: overflow")
    assert row["lhs"] == row["rhs"] == row["margin"] == ""


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


def without_out(rec):
    return {**rec, "config": {k: v for k, v in rec["config"].items()
                              if k != "out"}}


def replay(rec, tmp_path):
    """The exit code and record of a run of ``rec``'s own ``config``, fed
    back through --config with a fresh --out, without ``config.out``."""
    cfg_path, out = tmp_path / "replay.json", tmp_path / "replay.jsonl"
    cfg_path.write_text(json.dumps(rec["config"]))
    code = main([rec["config"]["command"], "--config", str(cfg_path),
                 "--out", str(out)])
    (again,) = read_jsonl(out)
    return code, without_out(again)


def test_every_pool_record_re_runs_from_its_config(tmp_path):
    # every benchmark pool item that writes a JSON record (a sweep's CSV
    # embeds no config) re-runs from that record to the same exit code and
    # an identical record
    items = [argv for argv in pools.all_items() if argv[0] != "sweep"]
    assert len(items) > 100
    for i, argv in enumerate(items):
        out = tmp_path / f"item-{i}.jsonl"
        code = main([*argv, "--out", str(out)])
        (rec,) = read_jsonl(out)
        assert replay(rec, tmp_path) == (code, without_out(rec)), argv


@pytest.mark.parametrize("name, value, argv, code", [
    ("THREADS", "2", ["norm", "--map", "identity", "--scale", "Q(1,2,0)",
                      "--search-max-j", "3"], 0),
    ("RADIAL", "64", ["growth", "--map", "koebe"], 0),
    ("TOL", "0.001", ["constants", "--constant", "qs:s=1"], 0),
    ("RADIAL", "8", ["verify", "--theorem", "4.1", "--map", "koebe",
                     "--scale", "M(0.8,0,1)", "--K", "1",
                     "--truncation-max-j", "4"], 1),
], ids=["threads-norm", "radial-growth", "tol-constants", "radial-4.1"])
def test_a_record_re_runs_whatever_the_environment_set(tmp_path, monkeypatch,
                                                       name, value, argv,
                                                       code):
    # the environment may set what a run does not read (QRSPACES_THREADS
    # is no variable at all); the record holds only what it read, so it
    # re-runs from itself with the environment gone
    monkeypatch.setenv("QRSPACES_" + name, value)
    out = tmp_path / "first.jsonl"
    assert main([*argv, "--out", str(out)]) == code
    (rec,) = read_jsonl(out)
    monkeypatch.delenv("QRSPACES_" + name)
    assert replay(rec, tmp_path) == (code, without_out(rec))


def test_env_override(tmp_path, monkeypatch):
    # precedence: flags given > config file > environment > defaults
    out = tmp_path / "n.jsonl"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"radial": 32}))
    base = ["norm", "--map", "identity", "--scale", "Q(1,2,0)",
            "--out", str(out), "--search-max-j", "3"]

    def radial(*flags):
        assert main([*base, *flags]) == 0
        return read_jsonl(out)[0]["config"]["radial"]

    assert radial() == 128
    monkeypatch.setenv("QRSPACES_RADIAL", "64")
    assert radial() == 64
    assert radial("--radial", "96") == 96
    assert radial("--config", str(cfg_path)) == 32
    monkeypatch.setenv("QRSPACES_CONFIG", str(cfg_path))
    assert radial() == 32
    # every spelling argparse accepts counts as the flag, a prefix included
    for flag in (["--radial", "64"], ["--rad", "64"], ["--radial=64"]):
        assert radial(*flag) == 64


def test_environment_radial_reaches_a_membership_check(tmp_path, monkeypatch):
    # QRSPACES_RADIAL sets the radial count of every run, so a 4.x check
    # accepts it from there, though its truncation rules never read it; so
    # its record does not carry it, and re-runs from itself
    monkeypatch.setenv("QRSPACES_RADIAL", "8")
    out = tmp_path / "v.jsonl"
    code = main(["verify", "--theorem", "4.1", "--map", "koebe", "--scale",
                 "M(0.8,0,1)", "--K", "1", "--truncation-max-j", "4",
                 "--out", str(out)])
    assert code in (0, 1)
    (rec,) = read_jsonl(out)
    assert "radial" not in rec["config"]
    assert replay(rec, tmp_path) == (code, without_out(rec))


@pytest.mark.parametrize("content, command", [
    pytest.param({"radial": "64"}, "norm", id="str-for-int"),
    pytest.param({"search_max_j": 2.5}, "norm", id="float-for-int"),
    pytest.param({"maps": "identity", "cells": ["Q(1,1.5,0)"]}, "sweep",
                 id="str-for-list"),
    pytest.param({"maps": ["identity", 5], "cells": ["Q(1,1.5,0)"]}, "sweep",
                 id="int-in-list"),
    pytest.param({"gnuplot": "no"}, "growth", id="str-for-bool"),
    # threads is no RunConfig field: an unknown key
    pytest.param({"threads": 0}, "sweep", id="zero-threads"),
    pytest.param(5, "norm", id="scalar"),
    pytest.param([], "norm", id="array"),
    pytest.param('{"radial": ', "norm", id="malformed"),
    pytest.param("", "norm", id="empty"),
])
def test_bad_config_file_exit_2(tmp_path, capsys, content, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, value", [
    ("RADIAL", "abc"), ("ANGULAR", "1.5"), ("TOL", "x"),
])
def test_bad_environment_exit_2(tmp_path, monkeypatch, capsys, name, value):
    monkeypatch.setenv("QRSPACES_" + name, value)
    assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_exit_2(tmp_path, capsys, source):
    # every check is deterministic, so no run takes a seed: neither the
    # flag nor the config key exists
    argv = ["verify", "--theorem", "4.1", "--map", "koebe",
            "--scale", "M(0.8,0,1)", "--K", "1", "--target", "ftheta",
            "--truncation-max-j", "4", "--out", str(tmp_path / "v.jsonl")]
    if source == "flag":
        argv += ["--seed", "1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0}))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert err.startswith("usage: " if source == "flag" else "error: ")
    assert not (tmp_path / "v.jsonl").exists()


# JSON kinds a config value can take, and the kinds each field type accepts
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=8),
    "list": st.lists(st.text(max_size=4), max_size=3),
    "int-list": st.lists(st.integers(), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
ACCEPTED_KINDS = {str: {"str"}, int: {"int"}, float: {"int", "float"},
                  bool: {"bool"}, list: {"list"}}


@st.composite
def wrongly_typed_config(draw):
    name, default = draw(st.sampled_from(sorted(dataclasses.asdict(RunConfig()).items())))
    kinds = sorted(set(JSON_KINDS) - ACCEPTED_KINDS[type(default)])
    value = draw(JSON_KINDS[draw(st.sampled_from(kinds))])
    return {name: value}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cfg=wrongly_typed_config(),
       command=st.sampled_from(["norm", "constants", "verify", "sweep", "growth"]))
def test_wrong_json_type_exit_2(tmp_path_factory, cfg, command):
    cfg_path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(cfg_path),
                     "--out", str(cfg_path.with_suffix(".out"))])
    assert code == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# cheap runs of every subcommand, the flags each takes, and small, edge or
# malformed values for them (no large valid ones, such as --radial 2048 or
# --truncation-max-j 53, which only cost time)
NUMBERS = ["-1", "0", "1", "2", "3", "0.5", "nan", "inf", "1e308", "abc"]
SETTING_VALUES = {flag: NUMBERS for flag in (
    "--radial", "--tol", "--search-max-j", "--search-angles",
    "--truncation-max-j")}
SETTING_VALUES["--angular"] = [*NUMBERS, "4", "100", "256", "4096"]
MAPS = ["koebe", "fold", "affine:k=2", "affine:k=0.5;sign=1",
        "hpoly:h=0,1;g=0,2", "poly:coeffs=", "cayley-shear:k=1", "identity:",
        ":", ""]
SCALES = ["Q(1,2,0)", "Q(3,1,1)", "Q(1,0.5,-0.9)", "F(2,0,-1)", "F(2,0,1)",
          "M(1,0,1)", "Bloch(1)", "Morrey(1)", "Qs(0)", "Q()", "(", ""]
CHECK_FLAGS = {"--K": NUMBERS, "--Kprime": NUMBERS, "--alpha-K": NUMBERS,
               "--theorem": ["3.1", "3.6", "cor3.2", "4.2", "9.9", ""],
               "--target": ["f", "fz", "bfb", "x", ""]}
CHEAP_COMMANDS = [
    (["norm", "--map", "identity", "--scale", "Q(1,2,0)"],
     {"--map": MAPS, "--scale": SCALES, "--weight-form": ["green", "x"]}),
    (["norm", "--map", "koebe", "--scale", "F(2,0,1)", "--weight-form",
      "green"],  # exits 3: the Green integral is not resolved
     {"--map": MAPS, "--scale": SCALES, "--weight-form": ["mobius", "x"]}),
    (["constants", "--constant", "qs:s=1"],
     {"--constant": ["overlap:q=0;s=-1", "morrey:", "qs:s=nan", ""]}),
    (["constants", "--constant", "sigma-deriv:p=9;alpha=0"],  # infinite: 3
     {"--constant": ["overlap:q=0;s=-1", "morrey:", "qs:s=nan", ""]}),
    (["verify", *AFFINE_31], {**CHECK_FLAGS, "--map": MAPS, "--scale": SCALES}),
    (["verify", "--theorem", "3.5", "--map", "fold", "--K", "1",
      "--Kprime", "4", "--scale", "Q(1,1.5,0)"],
     {**CHECK_FLAGS, "--map": MAPS, "--scale": SCALES}),
    (["verify", "--theorem", "4.1", "--map", "koebe", "--scale", "M(0.8,0,1)",
      "--K", "1", "--truncation-max-j", "4"],
     {**CHECK_FLAGS, "--map": MAPS, "--scale": SCALES}),
    (["sweep", "--theorem", "3.1", "--maps", "identity", "--cells",
      "Q(1,1.5,0)"], {**CHECK_FLAGS, "--maps": MAPS, "--cells": SCALES}),
    (["growth", "--map", "koebe"], {"--map": MAPS, "--which": ["hprime", "x"]}),
]
MAIN_ERRORS = ("error: ", "accuracy error: ", "i/o error: ")


@st.composite
def cheap_argv(draw):
    command, flags = draw(st.sampled_from(CHEAP_COMMANDS))
    flags = {"--out": ["no-such-dir/x.out"], **flags,
             **{flag: SETTING_VALUES[flag] for flag in SHARED_FLAGS[command[0]]}}
    drawn = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                          max_size=3))
    return [command[0], "--out", "x.out", *cheap(command)[1:],
            *(part for flag in drawn
              for part in (flag, draw(st.sampled_from(flags[flag]))))]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=cheap_argv())
def test_cli_exit_codes_property(tmp_path_factory, argv):
    # whatever the flags, an exit code of the CLI's own, no traceback, and
    # each of main's own errors on one stderr line
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [str(tmp / arg) if arg.endswith(".out") else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = err.getvalue()
    assert code in range(5)
    assert "Traceback" not in err
    if err.startswith(MAIN_ERRORS):
        assert err.count("\n") == 1
    assert code in (0, 1) or err.startswith(MAIN_ERRORS) or (
        code == 2 and err.startswith("usage: "))


@pytest.mark.parametrize("max_j", ["2", "3"])
def test_verify_short_truncation_ladder_exit_2(tmp_path, capsys, max_j):
    # j <= 3 leaves fewer than two radii, so no relative change exists
    assert main(["verify", "--theorem", "4.1", "--map", "koebe",
                 "--scale", "M(0.8,0,1)", "--K", "1",
                 "--truncation-max-j", max_j,
                 "--out", str(tmp_path / "v.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    trace = rec["truncation_trace"]
    assert len(trace) == 10  # the default ladder j = 3..12
    assert [e["candidates"] for e in trace] == [1 + 8 * j for j in range(3, 13)]
    assert trace[-1]["angular"] == 8192


def test_verify_membership_of_a_shear_via_cli(tmp_path):
    # the shear's own values are closed forms, so Theorem 4.1 runs the
    # default ladder on a K > 1 map (K = (1+k)/(1-k) at k = 0.3)
    out = tmp_path / "shear.jsonl"
    assert main(["verify", "--theorem", "4.1", "--map", "koebe-shear:k=0.3",
                 "--scale", "M(0.8,0,1)", "--K", "1.857142857142857",
                 "--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    assert len(rec["truncation_trace"]) == 10  # j = 3..12
    assert rec["in_range"] is True and rec["pass"] is True


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
