"""Command-line front end.

Subcommands: ``norm``, ``constants``, ``verify``, ``sweep``, ``growth``.
Reports are line-delimited JSON records (one per line) that embed the run
settings their run read (``run_fields``), so feeding a record's ``config``
back through ``--config`` re-runs it to an identical record; sweeps are CSV
tables with a fixed column set.  Output files are written to a temporary
name and renamed, so failures leave no partial files.

Exit codes: 0 success (for ``verify``: all checks passed), 1 a check failed,
2 invalid parameters, 3 quadrature/accuracy failure, 4 I/O failure.

Precedence: flags (a prefix argparse accepts counts) > the ``--config`` JSON
file, whose values must have their fields' JSON types > the environment
(``QRSPACES_`` + CONFIG, OUT, RADIAL, ANGULAR, TOL) > defaults.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .analytic import cayley_half, derivative, identity, koebe, poly
from .errors import (
    AccuracyError,
    HypothesisViolationError,
    InfiniteConstantError,
    InvalidParameterError,
    NonQuasiregularError,
    PoleError,
    QrspacesError,
    SingularityError,
)
from .families import (
    GROWTH_TARGETS,
    OrderModel,
    affine_extremal,
    cayley_shear,
    from_dilatation,
    growth_exponent,
    kkprime_example,
    koebe_shear,
)
from .harmonic import HarmonicMap, analytic_as_harmonic, estimate_quasiregularity
from .quadrature import ANGULAR_LADDER, DEFAULT_ANGULAR, DEFAULT_RADIAL
from .spaces import (
    KERNEL_ROUTES,
    RADIUS_CAP_J,
    BergmanMorrey,
    BlochAlpha,
    Fpqs,
    Morrey,
    Mpqs,
    Qnpa,
    Qs,
    SupSearchSpec,
    WeightedSupProblem,
    fh_pqs_norm,
    m_pqs_norm,
    morrey_constant,
    qh_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    specialized_norm,
    weight_overlap_constant,
)
from .verify import (
    COROLLARY_SCALES,
    DEFAULT_TRUNCATION_MAX_J,
    DEFAULT_VERIFY_TOL,
    TRUNCATION_MAX_J,
    check_conjugate_bound_fh,
    check_conjugate_bound_qh,
    check_inhomogeneous_bound_fh,
    check_inhomogeneous_bound_qh,
    verify_corollary,
    verify_membership,
)

ENV_PREFIX = "QRSPACES_"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_ACCURACY = 3
EXIT_IO = 4

SWEEP_COLUMNS = ["theorem", "map", "scale", "K", "Kprime", "lhs", "rhs",
                 "margin", "pass", "tol", "grid_radial", "grid_angular",
                 "error"]


@dataclass
class RunConfig:
    """Everything a run needs; a record embeds the fields its run reads."""

    command: str = ""
    map_spec: str = ""
    scale_spec: str = ""
    theorem: str = ""
    constant: str = ""
    K: float = 0.0  # 0 means: estimate from the map
    Kprime: float = 0.0
    target: str = "f"
    alpha_K: float = 0.0  # 0 means: conjectured default for K
    weight_form: str = "mobius"
    growth_target: str = "hprime"
    radial: int = DEFAULT_RADIAL
    angular: int = DEFAULT_ANGULAR
    tol: float = DEFAULT_VERIFY_TOL
    out: str = ""
    search_max_j: int = RADIUS_CAP_J
    search_angles: int = SupSearchSpec.angles_per_radius
    truncation_max_j: int = DEFAULT_TRUNCATION_MAX_J
    gnuplot: bool = False
    maps: list = field(default_factory=list)
    cells: list = field(default_factory=list)

    def record(self) -> dict:
        """The fields this run reads (``run_fields``): a record's ``config``."""
        return {name: getattr(self, name)
                for name in run_fields(self.command, self.theorem)}


# --- map and scale parsing -----------------------------------------------------


def _parse_values(text: str):
    try:
        vals = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"malformed parameter values {text!r}") from exc
    if not all(cmath.isfinite(v) for v in vals):
        raise InvalidParameterError(f"parameter values must be finite, got {text!r}")
    return vals[0] if len(vals) == 1 else vals


def _parse_params(text: str, keys: tuple, owner: str) -> dict:
    """The ``key=values;...`` parameters of ``owner``, which takes ``keys``."""
    out = {}
    if not text:
        return out
    for item in text.split(";"):
        if "=" not in item:
            raise InvalidParameterError(f"malformed parameter {item!r} of {owner}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in keys:
            takes = f"takes only {', '.join(keys)}" if keys else "takes no parameters"
            raise InvalidParameterError(f"{owner} {takes}, got {key!r}")
        out[key] = _parse_values(val)
    return out


def _real(params, key, default=None):
    if key not in params:
        if default is None:
            raise InvalidParameterError(f"missing parameter {key!r}")
        return default
    val = params[key]
    if isinstance(val, list) or abs(complex(val).imag) > 0:
        raise InvalidParameterError(f"map parameter {key!r} must be real")
    return complex(val).real


def _coeffs(params, key, default):
    val = params.get(key, default)
    return val if isinstance(val, list) else [val]


# map family -> (the parameter keys it takes, its builder from those parameters)
MAP_FAMILIES = {
    "identity": ((), lambda p: analytic_as_harmonic(identity())),
    "koebe": ((), lambda p: analytic_as_harmonic(koebe())),
    "cayley": ((), lambda p: analytic_as_harmonic(cayley_half())),
    "poly": (("coeffs",), lambda p: analytic_as_harmonic(
        poly(_coeffs(p, "coeffs", [0.0, 1.0])))),
    "hpoly": (("h", "g"), lambda p: HarmonicMap(
        poly(_coeffs(p, "h", [0.0, 1.0])), poly(_coeffs(p, "g", [0.0])))),
    "affine": (("k", "sign"), lambda p: affine_extremal(
        _real(p, "k"), _real(p, "sign", -1.0))),
    "fold": ((), lambda p: kkprime_example()),
    "koebe-shear": (("k",), lambda p: koebe_shear(_real(p, "k"))),
    "cayley-shear": (("k",), lambda p: cayley_shear(_real(p, "k"))),
    "koebe-dilatation": (("k",), lambda p: from_dilatation(
        derivative(koebe()), poly([0.0, _real(p, "k")]))),
}


def build_map(spec: str):
    """Build a map from its textual family spec.

    Returns a :class:`HarmonicMap`; analytic families are wrapped with g = 0.
    Examples: ``identity``, ``koebe``, ``poly:coeffs=0,1``,
    ``affine:k=0.5;sign=-1``, ``fold``, ``koebe-shear:k=0.2``,
    ``cayley-shear:k=0.5``, ``koebe-dilatation:k=0.5``,
    ``hpoly:h=0,1;g=0,0.5``.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in MAP_FAMILIES:
        raise InvalidParameterError(f"unknown map family {name!r}")
    keys, build = MAP_FAMILIES[name]
    return build(_parse_params(rest, keys, f"map family {name!r}"))


# scale name -> its class, whose fields are the spec's numbers in order
SCALES = {"q": Qnpa, "qh": Qnpa, "f": Fpqs, "fh": Fpqs, "m": Mpqs, "mh": Mpqs,
          "morrey": Morrey, "bergmanmorrey": BergmanMorrey, "qs": Qs,
          "bloch": BlochAlpha}


def parse_scale(spec: str):
    """Parse a scale spec like Q(1,2,0.5), Fh(2,0,1), Morrey(0.5)."""
    text = spec.strip()
    if "(" not in text or not text.endswith(")"):
        raise InvalidParameterError(f"malformed scale spec {spec!r}")
    name, args_text = text[:-1].split("(", 1)
    name = name.strip().lower()
    try:
        args = [float(x) for x in args_text.split(",")] if args_text else []
    except ValueError as exc:
        raise InvalidParameterError(f"malformed scale numbers in {spec!r}") from exc
    if not all(math.isfinite(x) for x in args):
        raise InvalidParameterError(f"scale numbers must be finite in {spec!r}")

    if name not in SCALES:
        raise InvalidParameterError(f"unknown scale {name!r}")
    kind = SCALES[name]
    count = len(dataclasses.fields(kind))
    if len(args) != count:
        raise InvalidParameterError(
            f"scale {name!r} takes {count} parameters, got {len(args)}"
        )
    if kind is Qnpa:
        if not args[0].is_integer():
            raise InvalidParameterError(
                f"jet order n must be an integer, got {args[0]:g} in {spec!r}")
        args[0] = int(args[0])
    scale = kind(*args)
    scale.validate()
    return scale


def _estimate_K(f: HarmonicMap) -> float:
    K = estimate_quasiregularity(f).K_est
    if not math.isfinite(K):
        raise NonQuasiregularError(
            "distortion is unbounded on the sample grid, so no K can be estimated"
        )
    return K


# --- output helpers -------------------------------------------------------------


def _atomic_write(path: str, write_fn):
    d = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(d):
        raise OSError(f"output directory does not exist: {d}")
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qrspaces-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_records(path: str, records):
    """Strict JSON lines: a non-finite number raises AccuracyError, no file."""
    try:
        lines = [json.dumps(rec, default=_json_default, allow_nan=False)
                 for rec in records]
    except ValueError as exc:
        raise AccuracyError(f"non-finite number in a record: {exc}") from None
    _atomic_write(path, lambda fh: fh.writelines(f"{line}\n" for line in lines))


def _norm_record(cfg: RunConfig, res, scale_label: str) -> dict:
    return {
        "command": "norm",
        "map": cfg.map_spec,
        "scale": scale_label,
        "value": res.value,
        "raw_sup": res.raw_sup,
        "value_at_zero": res.value_at_zero,
        "sup_a": [res.sup_a.real, res.sup_a.imag],
        "sup_on_cap": res.sup_on_cap,
        "error_estimate": res.error_estimate,
        "warnings": list(res.warnings),
        "grid": res.grid,
        "trace": [[a.real, a.imag, v] for a, v in res.trace],
        "config": cfg.record(),
    }


# --- subcommand implementations ---------------------------------------------------


def compute_norm(cfg: RunConfig):
    f = build_map(cfg.map_spec)
    scale = parse_scale(cfg.scale_spec)
    if cfg.weight_form != "mobius" and not isinstance(scale, Fpqs):
        raise InvalidParameterError(
            f"--weight-form {cfg.weight_form} takes an F(p,q,s) or Fh(p,q,s) "
            f"scale, got {scale.label()}")
    kw = dict(search=SupSearchSpec(cfg.search_max_j, cfg.search_angles),
              radial=cfg.radial, angular=cfg.angular)
    if isinstance(scale, Qnpa):
        res = qh_npa_norm(f, scale, **kw)
    elif isinstance(scale, Fpqs):
        res = fh_pqs_norm(f, scale, weight_form=cfg.weight_form, **kw)
    elif isinstance(scale, Mpqs):
        res = m_pqs_norm(f, scale, **kw)
    else:
        res = specialized_norm(f, scale, **kw)
    return res, scale


def cmd_norm(cfg: RunConfig) -> int:
    res, scale = compute_norm(cfg)
    rec = _norm_record(cfg, res, scale.label())
    write_records(cfg.out, [rec])
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{scale.label()} of {cfg.map_spec}: {res.value:.12g}")
    return EXIT_OK


# constant kind -> (its parameters, in the order its function takes them,
# and a call of that function by its module name, so a wrapper set on the
# name, as by a tracer, is what runs)
CONSTANTS = {"sigma-deriv": (("p", "alpha"), lambda *x: sigma_deriv_constant(*x)),
             "overlap": (("q", "s"), lambda *x: weight_overlap_constant(*x)),
             "morrey": (("lam",), lambda *x: morrey_constant(*x)),
             "qs": (("s",), lambda *x: qs_constant(*x))}


def compute_constant(cfg: RunConfig):
    name, _, rest = cfg.constant.partition(":")
    name = name.strip().lower()
    if name not in CONSTANTS:
        raise InvalidParameterError(
            f"unknown constant kind {name!r}; choose from {tuple(CONSTANTS)}"
        )
    keys, constant = CONSTANTS[name]
    params = _parse_params(rest, keys, f"constant {name!r}")
    return constant(*(_real(params, key) for key in keys))


def _engine_check(cfg: RunConfig, res) -> dict:
    """The engine integral of base 1 at the constant's maximizer on the run's
    grid, and its relative deviation from the closed form: one kernel
    evaluation that judges the engine against the formula on every run."""
    pr = WeightedSupProblem(lambda z: (np.ones(z.shape),), res.grid["q_eff"],
                            res.grid["s_eff"], cfg.radial, cfg.angular)
    (value,) = pr.integral_at(res.sup_a)
    return {"value": value, "rel_dev": abs(value / res.value - 1.0),
            **pr.grid_metadata(),
            "kernel_evaluations": dict(dict.fromkeys(KERNEL_ROUTES, 0), direct=1)}


def cmd_constants(cfg: RunConfig) -> int:
    res = compute_constant(cfg)
    rec = {
        "command": "constants",
        "constant": cfg.constant,
        "value": res.value,
        "sup_rho": abs(res.sup_a),
        "sup_on_cap": res.sup_on_cap,
        "error_estimate": res.error_estimate,
        "trace": [[a.real, v] for a, v in res.trace],
        "engine_check": _engine_check(cfg, res),
        "config": cfg.record(),
    }
    write_records(cfg.out, [rec])
    print(f"{cfg.constant}: {res.value:.12g} (maximizer rho = {abs(res.sup_a):.6g})")
    return EXIT_OK


# The scale kind each theorem id takes, and its form for messages.
SCALE_FORMS = {Qnpa: "a Q(1,p,alpha)", Fpqs: "an F(p,q,s)", Mpqs: "an M(p,q,s)",
               Morrey: "a Morrey(lam)", BergmanMorrey: "a BergmanMorrey(p,lam)",
               Qs: "a Qs(s)"}
THEOREM_SCALES = {"3.1": Qnpa, "3.2": Fpqs, "3.5": Qnpa, "3.6": Fpqs,
                  **COROLLARY_SCALES, "4.1": Mpqs, "4.2": Fpqs}
THEOREM_IDS = tuple(THEOREM_SCALES)
MEMBERSHIP_IDS = ("4.1", "4.2")
SEARCHED_IDS = tuple(t for t in THEOREM_IDS if t not in MEMBERSHIP_IDS)
# The run fields only some theorems honour, with the theorems that do: the
# theorem itself every one, K' the (K, K') forms, the target, growth order
# and truncation depth the membership checks, the radial count and the sup
# search the others (a membership check's truncation rules fix their own
# radial nodes).  Set off its default by a flag or the config file for any
# other theorem, such a field is an error, not ignored, as is a config-file
# key that is no flag of the command (``run_fields``).  The environment may
# set the radial count for any run.
THEOREM_FIELDS = {"theorem": THEOREM_IDS,
                  "Kprime": ("3.5", "3.6", "cor3.4", "cor3.5", "cor3.6"),
                  "target": MEMBERSHIP_IDS, "alpha_K": MEMBERSHIP_IDS,
                  "truncation_max_j": MEMBERSHIP_IDS, "radial": SEARCHED_IDS,
                  "search_max_j": SEARCHED_IDS, "search_angles": SEARCHED_IDS}


def run_verification(cfg: RunConfig):
    """The report of the check ``cfg`` names; its theorem id is one of
    ``THEOREM_IDS`` (``resolve_config`` rejects any other)."""
    tid = cfg.theorem
    f = build_map(cfg.map_spec)
    K = cfg.K if cfg.K > 0 else _estimate_K(f)
    scale = parse_scale(cfg.scale_spec)
    kind = THEOREM_SCALES[tid]
    if not isinstance(scale, kind) or (kind is Qnpa and scale.n != 1):
        raise InvalidParameterError(
            f"theorem {tid} takes {SCALE_FORMS[kind]} scale")
    if tid in MEMBERSHIP_IDS:  # alpha_K = 0: the model's default order
        return verify_membership(f, OrderModel(K, cfg.alpha_K or None), scale,
                                 target=cfg.target,
                                 truncation_max_j=cfg.truncation_max_j,
                                 tol=cfg.tol, angular=cfg.angular)
    kw = dict(search=SupSearchSpec(cfg.search_max_j, cfg.search_angles),
              tol=cfg.tol, radial=cfg.radial, angular=cfg.angular)
    if tid == "3.1":
        return check_conjugate_bound_qh(f, K, scale.p, scale.alpha, **kw)
    if tid == "3.5":
        return check_inhomogeneous_bound_qh(f, K, cfg.Kprime, scale.p,
                                            scale.alpha, **kw)
    if tid == "3.2":
        return check_conjugate_bound_fh(f, K, scale, **kw)
    if tid == "3.6":
        return check_inhomogeneous_bound_fh(f, K, cfg.Kprime, scale, **kw)
    return verify_corollary(f, tid, scale, K, cfg.Kprime, **kw)


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(cfg)
    rec = report.to_record()
    rec["config"] = cfg.record()
    write_records(cfg.out, [rec])
    status = "pass" if report.passed else "FAIL"
    print(f"[{report.theorem_id}] {report.map_description} in "
          f"{report.scale_label}: margin = {report.margin:.6g} ({status})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sweep_cell(cfg: RunConfig, map_spec: str, cell) -> dict:
    """One sweep row; a cell's error, an overflow included (``main`` makes
    overflows raise), goes into its ``error`` column.  Every row gives the
    map spec and the cell as given, so it re-runs as ``verify --theorem T
    --map M --scale S`` with the sweep's other flags."""
    row = {c: "" for c in SWEEP_COLUMNS}
    try:
        cell_cfg = dataclasses.replace(cfg, map_spec=map_spec, scale_spec=cell)
        rec = run_verification(cell_cfg).to_record()
        for col in SWEEP_COLUMNS:
            if col in rec and rec[col] is not None:
                row[col] = rec[col]
    except (QrspacesError, OverflowError, FloatingPointError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    row.update({"theorem": cfg.theorem, "map": map_spec, "scale": cell})
    return row


def cmd_sweep(cfg: RunConfig) -> int:
    rows = [_sweep_cell(cfg, m, c) for m in cfg.maps for c in cfg.cells]

    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _atomic_write(cfg.out, emit)
    n_fail = sum(1 for r in rows if r["pass"] is False or r["error"])
    print(f"sweep: {len(rows)} cells, {n_fail} failures -> {cfg.out}")
    return EXIT_OK


def cmd_growth(cfg: RunConfig) -> int:
    f = build_map(cfg.map_spec)
    fit = growth_exponent(f, cfg.growth_target)
    rec = {
        "command": "growth",
        "map": cfg.map_spec,
        "which": cfg.growth_target,
        "beta": fit.beta,
        "residual": fit.residual,
        "monotone_warning": fit.monotone_warning,
        "radii": list(fit.radii),
        "values": list(fit.values),
        "config": cfg.record(),
    }
    write_records(cfg.out, [rec])
    if cfg.gnuplot:
        dat = cfg.out + ".dat"
        _atomic_write(dat, lambda fh: fh.writelines(
            f"{r:.12g} {v:.12g}\n" for r, v in zip(fit.radii, fit.values)
        ))
        gp = cfg.out + ".gp"
        _atomic_write(gp, lambda fh: fh.write(
            "set logscale y\n"
            f"set title 'growth of {cfg.growth_target} ({cfg.map_spec})'\n"
            f"plot '{os.path.basename(dat)}' using "
            "(-log(1-$1*$1)):(log($2)) with linespoints title "
            f"'beta={fit.beta:.3f}'\n"
        ))
    print(f"growth({cfg.growth_target}) of {cfg.map_spec}: "
          f"beta = {fit.beta:.4f} (residual {fit.residual:.2e})")
    return EXIT_OK


# --- argument handling -------------------------------------------------------------

# Defaults that differ between subcommands; every other default is RunConfig's.
COMMAND_DEFAULTS = {
    "norm": {"map_spec": "identity", "scale_spec": "Q(1,2,0)"},
    "constants": {"constant": "qs:s=1"},
    "verify": {"theorem": "3.1", "map_spec": "affine:k=0.5;sign=-1",
               "scale_spec": "Q(1,1.5,0)"},
    "sweep": {"theorem": "3.1"},
    "growth": {"map_spec": "koebe"},
}
ENV_FIELDS = ("out", "radial", "angular", "tol")
# The run settings each subcommand reads, each a flag of it, as are --config
# and --out of every subcommand.
GRID_SETTINGS = ("radial", "angular")
SEARCH_SETTINGS = (*GRID_SETTINGS, "search_max_j", "search_angles")
VERIFY_SETTINGS = (*SEARCH_SETTINGS, "tol", "truncation_max_j")
COMMAND_SETTINGS = {"norm": SEARCH_SETTINGS, "constants": GRID_SETTINGS,
                    "verify": VERIFY_SETTINGS, "sweep": VERIFY_SETTINGS,
                    "growth": ()}
SETTING_HELP = {"truncation_max_j": "deepest truncation radius 1 - 2^-j (4.x)"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: it reads no environment, and parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qrspaces",
        description="Disk function-space norms and harmonic quasiregular checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON run configuration (flags override)")
        p.add_argument("--out", help="output path (reports: JSON lines)")
        for setting in COMMAND_SETTINGS[name]:
            p.add_argument("--" + setting.replace("_", "-"),
                           type=type(getattr(RunConfig, setting)),
                           help=SETTING_HELP.get(setting))
        return p

    def checks(p):
        p.add_argument("--theorem", help=f"one of {THEOREM_IDS}")
        p.add_argument("--K", type=float,
                       help="claimed distortion bound (0: estimate from the map)")
        p.add_argument("--Kprime", type=float)
        p.add_argument("--target", help="membership target for 4.1/4.2 "
                                        "(f, fz, fzbar, ftheta, bfb)")
        p.add_argument("--alpha-K", type=float,
                       help="growth order override (0: conjectured default)")

    p = command("norm", "compute a norm of a map")
    p.add_argument("--map", dest="map_spec")
    p.add_argument("--scale", dest="scale_spec")
    p.add_argument("--weight-form", choices=("mobius", "green"))

    p = command("constants", "compute a sup-type constant")
    p.add_argument("--constant",
                   help="e.g. sigma-deriv:p=2;alpha=0.5 | overlap:q=0;s=1 "
                        "| morrey:lam=0.5 | qs:s=1")

    p = command("verify", "check one stability or membership bound")
    checks(p)
    p.add_argument("--map", dest="map_spec")
    p.add_argument("--scale", dest="scale_spec")

    p = command("sweep", "verify a grid of (map, scale) cells")
    checks(p)
    p.add_argument("--maps", nargs="*",
                   help="map specs (cross product with --cells)")
    p.add_argument("--cells", nargs="*", help="scale specs, e.g. 'Q(1,1.5,0)'")

    p = command("growth", "fit a boundary growth exponent")
    p.add_argument("--map", dest="map_spec")
    p.add_argument("--which", dest="growth_target", choices=GROWTH_TARGETS)
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a data file and gnuplot script")

    return parser


def _read_config_file(path: str, defaults: dict) -> dict:
    """The --config file's fields, the one layer not typed by construction:
    each value needs its field's JSON type (an int passes for a float, a bool
    not for an int, a list holds strings)."""
    with open(path) as fh:
        try:
            file_cfg = json.load(fh)
        except ValueError as exc:
            raise InvalidParameterError(
                f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise InvalidParameterError(f"config file {path} must hold a JSON object")
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
    for name, value in file_cfg.items():
        default = defaults[name]
        if isinstance(default, float) and type(value) is int:
            value = file_cfg[name] = float(value)
        if type(value) is not type(default) or (
                isinstance(value, list) and not all(isinstance(v, str) for v in value)):
            kind = "list of strings" if isinstance(default, list) else type(default).__name__
            raise InvalidParameterError(
                f"config value {name!r} must have type {kind}, got {value!r}")
    return file_cfg


# The most radial nodes a run may ask for, and the largest radial rule a run
# builds: the error estimate's tables have half and a quarter of the master's
# rows.  At 2048 radial nodes the master table (2048 x 2048 nodes, two
# 32 MB planes) and its rung copies set the peak: `norm --map
# cayley-shear:k=0.5 --scale "Qs(1)" --radial 2048` peaks at 137 MB and takes
# 0.65 s (2-vCPU Xeon), 308 MB and 2.1 s when the estimate doubled the grid.
# Without a cap --radial 1000000 would ask for a 32 GB master grid before
# any check runs.
MAX_RADIAL = 2048


def _check_run_numbers(cfg: RunConfig):
    """K, K', the growth order and tol are finite and >= 0 (0 for K and the
    growth order means: estimate / use the default), and a given K is >= 1,
    as quasiregularity defines it; the grid has 2..MAX_RADIAL radial nodes
    and an angular count on the ladder.  The search depth is at most
    RADIUS_CAP_J, whose ring is the radius cap, the truncation depth at most
    TRUNCATION_MAX_J, since deeper radii 1 - 2^-j round to 1, and the
    lattice angles per radius at most the top rung of the angular ladder,
    past which each angle is a direct kernel call."""
    for name in ("K", "Kprime", "alpha_K", "tol"):
        value = getattr(cfg, name)
        if not math.isfinite(value) or value < 0:
            raise InvalidParameterError(
                f"--{name.replace('_', '-')} must be a finite number >= 0, "
                f"got {value!r}")
    if 0.0 < cfg.K < 1.0:
        raise InvalidParameterError(
            f"--K must be 0 (estimate) or >= 1, got {cfg.K!r}")
    if cfg.radial < 2:
        raise InvalidParameterError(f"--radial must be >= 2, got {cfg.radial}")
    if cfg.angular not in ANGULAR_LADDER:
        raise InvalidParameterError(
            f"--angular must be one of {ANGULAR_LADDER}, got {cfg.angular}")
    for name, most in (("radial", MAX_RADIAL), ("search_max_j", RADIUS_CAP_J),
                       ("truncation_max_j", TRUNCATION_MAX_J),
                       ("search_angles", ANGULAR_LADDER[-1])):
        if getattr(cfg, name) > most:
            raise InvalidParameterError(
                f"--{name.replace('_', '-')} must be at most {most}, "
                f"got {getattr(cfg, name)}")


def run_fields(command: str, theorem: str) -> tuple:
    """The RunConfig fields a run reads, in field order: ``command`` and the
    subcommand's flags, less the ``THEOREM_FIELDS`` its theorem does not
    take.  Records embed exactly these; ``resolve_config`` rejects any other
    field that a flag or the config file sets off its default."""
    (sub,) = (a for a in build_parser()._actions if a.dest == "command")
    flags = {"command"} | {a.dest for a in sub.choices[command]._actions}
    if "theorem" in flags:
        flags -= {name for name, takers in THEOREM_FIELDS.items()
                  if theorem not in takers}
    return tuple(f.name for f in dataclasses.fields(RunConfig) if f.name in flags)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer, lowest first: RunConfig defaults, the subcommand's defaults,
    the environment, the --config file, the flags given."""
    given = dict(vars(args))
    command = given.pop("command")
    defaults = dataclasses.asdict(RunConfig())
    merged = {**defaults, **COMMAND_DEFAULTS[command]}
    for name in ENV_FIELDS:
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                merged[name] = type(defaults[name])(raw)
            except ValueError:
                raise InvalidParameterError(
                    f"bad value for {ENV_PREFIX + name.upper()}: {raw!r}") from None
    path = given.pop("config", os.environ.get(ENV_PREFIX + "CONFIG", ""))
    file_cfg = _read_config_file(path, defaults) if path else {}
    merged.update(file_cfg)
    cfg = RunConfig(**{**merged, **given, "command": command})
    _check_run_numbers(cfg)
    if command in ("verify", "sweep") and cfg.theorem not in THEOREM_IDS:
        raise InvalidParameterError(
            f"unknown theorem id {cfg.theorem!r}; choose from {THEOREM_IDS}")
    read = run_fields(command, cfg.theorem)
    for name in {**file_cfg, **given}:
        value = getattr(cfg, name)
        if name not in read and value != defaults[name]:
            raise InvalidParameterError(
                f"theorem {cfg.theorem} takes no --{name.replace('_', '-')}, "
                f"got {value!r}" if "theorem" in read and name in THEOREM_FIELDS
                else f"{command} takes no config key {name!r}, got {value!r}")
    if not cfg.out:
        cfg.out = (f"qrspaces-{cfg.command}.jsonl"
                   if cfg.command != "sweep" else "qrspaces-sweep.csv")
    return cfg


COMMANDS = {
    "norm": cmd_norm,
    "constants": cmd_constants,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "growth": cmd_growth,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
        # an overflow, numpy's or a float power's, is an accuracy failure
        with np.errstate(over="raise"):
            return COMMANDS[cfg.command](cfg)
    except (InvalidParameterError, NonQuasiregularError, PoleError,
            SingularityError, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (AccuracyError, InfiniteConstantError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (OverflowError, FloatingPointError) as exc:
        print(f"accuracy error: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
