"""Command-line front end.

Subcommands: ``norm``, ``constants``, ``verify``, ``sweep``, ``growth``.
Reports are line-delimited JSON records (one per line) with the embedded run
configuration, so any report re-runs to identical values at fixed node
counts; sweeps are CSV tables with a fixed column set.  Output files are
written to a temporary name and renamed, so failures leave no partial files.

Exit codes: 0 success (for ``verify``: all checks passed), 1 a check failed,
2 invalid parameters, 3 quadrature/accuracy failure, 4 I/O failure.

Flags mirror environment variables with the prefix ``QRSPACES_``
(e.g. ``QRSPACES_RADIAL`` for ``--radial``); flags win over the environment.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
from .spaces import (
    BergmanMorrey,
    BlochAlpha,
    Fpqs,
    Morrey,
    Mpqs,
    Qnpa,
    Qs,
    SupSearchSpec,
    fh_pqs_norm,
    m_pqs_norm,
    morrey_constant,
    q_npa_norm,
    qh_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    specialized_norm,
    weight_overlap_constant,
)
from .verify import (
    COROLLARY_IDS,
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
    """Everything a run needs; serializable, embedded into every record."""

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
    radial: int = 128
    angular: int = 256
    tol: float = 1e-6
    seed: int = 0
    threads: int = 1
    out: str = ""
    search_max_j: int = 10
    search_angles: int = 16
    truncation_max_j: int = 12
    gnuplot: bool = False
    maps: list = field(default_factory=list)
    cells: list = field(default_factory=list)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def search(self) -> SupSearchSpec:
        radii = tuple(0.0 if j == 0 else 1.0 - 2.0 ** -j
                      for j in range(self.search_max_j + 1))
        return SupSearchSpec(radii=radii, angles_per_radius=self.search_angles)


# --- map and scale parsing -----------------------------------------------------


def _parse_values(text: str):
    vals = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    return vals[0] if len(vals) == 1 else vals


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(";"):
        if "=" not in item:
            raise InvalidParameterError(f"malformed map parameter {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = _parse_values(val)
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
    params = _parse_params(rest)
    if name == "identity":
        return analytic_as_harmonic(identity())
    if name == "koebe":
        return analytic_as_harmonic(koebe())
    if name == "cayley":
        return analytic_as_harmonic(cayley_half())
    if name == "poly":
        coeffs = params.get("coeffs", [0.0, 1.0])
        if not isinstance(coeffs, list):
            coeffs = [coeffs]
        return analytic_as_harmonic(poly(coeffs))
    if name == "hpoly":
        h = params.get("h", [0.0, 1.0])
        g = params.get("g", [0.0])
        h = h if isinstance(h, list) else [h]
        g = g if isinstance(g, list) else [g]
        return HarmonicMap(poly(h), poly(g))
    if name == "affine":
        return affine_extremal(_real(params, "k"), int(_real(params, "sign", -1.0)))
    if name == "fold":
        return kkprime_example()
    if name == "koebe-shear":
        return koebe_shear(_real(params, "k"))
    if name == "cayley-shear":
        return cayley_shear(_real(params, "k"))
    if name == "koebe-dilatation":
        k = _real(params, "k")
        return from_dilatation(derivative(koebe()), poly([0.0, k]))
    raise InvalidParameterError(f"unknown map family {name!r}")


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

    def need(n):
        if len(args) != n:
            raise InvalidParameterError(
                f"scale {name!r} takes {n} parameters, got {len(args)}"
            )

    if name in ("q", "qh"):
        need(3)
        scale = Qnpa(int(args[0]), args[1], args[2])
    elif name in ("f", "fh"):
        need(3)
        scale = Fpqs(*args)
    elif name in ("m", "mh"):
        need(3)
        scale = Mpqs(*args)
    elif name == "morrey":
        need(1)
        scale = Morrey(args[0])
    elif name == "bergmanmorrey":
        need(2)
        scale = BergmanMorrey(*args)
    elif name == "qs":
        need(1)
        scale = Qs(args[0])
    elif name == "bloch":
        need(1)
        scale = BlochAlpha(args[0])
    else:
        raise InvalidParameterError(f"unknown scale {name!r}")
    scale.validate()
    return scale


def _is_analytic(f: HarmonicMap) -> bool:
    return f.g.constant_value == 0


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
    def emit(fh):
        for rec in records:
            fh.write(json.dumps(rec, default=_json_default) + "\n")
    _atomic_write(path, emit)


def _norm_record(cfg: RunConfig, res, scale_label: str) -> dict:
    return {
        "command": "norm",
        "map": cfg.map_spec,
        "scale": scale_label,
        "value": res.value,
        "raw_sup": res.raw_sup,
        "value_at_zero": res.value_at_zero,
        "sup_a": [res.sup_a.real, res.sup_a.imag],
        "error_estimate": res.error_estimate,
        "warnings": list(res.warnings),
        "grid": res.grid,
        "trace": [[a.real, a.imag, v] for a, v in res.trace],
        "config": cfg.to_dict(),
    }


# --- subcommand implementations ---------------------------------------------------


def compute_norm(cfg: RunConfig):
    f = build_map(cfg.map_spec)
    scale = parse_scale(cfg.scale_spec)
    search = cfg.search()
    kw = dict(search=search, radial=cfg.radial, angular=cfg.angular)
    if isinstance(scale, Qnpa):
        if _is_analytic(f):
            res = q_npa_norm(f.h, scale, **kw)
        else:
            res = qh_npa_norm(f, scale, **kw)
    elif isinstance(scale, Fpqs):
        res = fh_pqs_norm(f, scale, weight_form=cfg.weight_form, **kw)
    elif isinstance(scale, Mpqs):
        res = m_pqs_norm(lambda z: f(z), f(0.0), scale, **kw)
    else:
        res = specialized_norm(f.h if _is_analytic(f) else f, scale, **kw)
    return res, scale


def cmd_norm(cfg: RunConfig) -> int:
    res, scale = compute_norm(cfg)
    rec = _norm_record(cfg, res, scale.label())
    write_records(cfg.out, [rec])
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{scale.label()} of {cfg.map_spec}: {res.value:.12g}")
    return EXIT_OK


CONSTANT_KINDS = ("sigma-deriv", "overlap", "morrey", "qs")


def compute_constant(cfg: RunConfig):
    name, _, rest = cfg.constant.partition(":")
    name = name.strip().lower()
    params = _parse_params(rest)
    kw = dict(radial=cfg.radial, angular=cfg.angular)
    if name == "sigma-deriv":
        return sigma_deriv_constant(_real(params, "p"), _real(params, "alpha"), **kw)
    if name == "overlap":
        return weight_overlap_constant(_real(params, "q"), _real(params, "s"), **kw)
    if name == "morrey":
        return morrey_constant(_real(params, "lam"), **kw)
    if name == "qs":
        return qs_constant(_real(params, "s"), **kw)
    raise InvalidParameterError(
        f"unknown constant kind {name!r}; choose from {CONSTANT_KINDS}"
    )


def cmd_constants(cfg: RunConfig) -> int:
    res = compute_constant(cfg)
    rec = {
        "command": "constants",
        "constant": cfg.constant,
        "value": res.value,
        "sup_rho": abs(res.sup_a),
        "error_estimate": res.error_estimate,
        "trace": [[a.real, v] for a, v in res.trace],
        "config": cfg.to_dict(),
    }
    write_records(cfg.out, [rec])
    print(f"{cfg.constant}: {res.value:.12g} (maximizer rho = {abs(res.sup_a):.6g})")
    return EXIT_OK


THEOREM_IDS = ("3.1", "3.2", "3.5", "3.6") + COROLLARY_IDS + ("4.1", "4.2")


def run_verification(cfg: RunConfig):
    if cfg.theorem not in THEOREM_IDS:
        raise InvalidParameterError(
            f"unknown theorem id {cfg.theorem!r}; choose from {THEOREM_IDS}"
        )
    f = build_map(cfg.map_spec)
    K = cfg.K if cfg.K > 0 else _estimate_K(f)
    search = cfg.search()
    kw = dict(search=search, tol=cfg.tol, radial=cfg.radial, angular=cfg.angular)
    tid = cfg.theorem
    if tid in ("3.1", "3.5"):
        scale = parse_scale(cfg.scale_spec)
        if not isinstance(scale, Qnpa) or scale.n != 1:
            raise InvalidParameterError(f"theorem {tid} takes a Q(1,p,alpha) scale")
        if tid == "3.1":
            return check_conjugate_bound_qh(f, K, scale.p, scale.alpha, **kw)
        return check_inhomogeneous_bound_qh(f, K, cfg.Kprime, scale.p,
                                            scale.alpha, **kw)
    if tid in ("3.2", "3.6"):
        scale = parse_scale(cfg.scale_spec)
        if not isinstance(scale, Fpqs):
            raise InvalidParameterError(f"theorem {tid} takes an F(p,q,s) scale")
        if tid == "3.2":
            return check_conjugate_bound_fh(f, K, scale, **kw)
        return check_inhomogeneous_bound_fh(f, K, cfg.Kprime, scale, **kw)
    if tid in COROLLARY_IDS:
        scale = parse_scale(cfg.scale_spec)
        ckw = {}
        if isinstance(scale, Morrey):
            ckw["lam"] = scale.lam
        elif isinstance(scale, BergmanMorrey):
            ckw["lam"] = scale.lam
            ckw["p"] = scale.p
        elif isinstance(scale, Qs):
            ckw["s"] = scale.s
        else:
            raise InvalidParameterError(
                "corollaries take Morrey/BergmanMorrey/Qs scales"
            )
        return verify_corollary(f, tid, K=K, Kprime=cfg.Kprime, **ckw, **kw)
    # 4.1 / 4.2: membership sweeps
    scale = parse_scale(cfg.scale_spec)
    if tid == "4.1" and not isinstance(scale, Mpqs):
        raise InvalidParameterError("theorem 4.1 takes an M(p,q,s) scale")
    if tid == "4.2" and not isinstance(scale, Fpqs):
        raise InvalidParameterError("theorem 4.2 takes an F(p,q,s) scale")
    model = OrderModel(K, cfg.alpha_K if cfg.alpha_K > 0 else None)
    return verify_membership(f, model, scale, target=cfg.target,
                             truncation_js=range(3, cfg.truncation_max_j + 1),
                             tol=cfg.tol, angular=cfg.angular,
                             rng_seed=cfg.seed)


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(cfg)
    rec = report.to_record()
    rec["config"] = cfg.to_dict()
    write_records(cfg.out, [rec])
    status = "pass" if report.passed else "FAIL"
    print(f"[{report.theorem_id}] {report.map_description} in "
          f"{report.scale_label}: margin = {report.margin:.6g} ({status})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sweep_cell(cfg: RunConfig, map_spec: str, cell) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update({"theorem": cfg.theorem, "map": map_spec, "scale": cell})
    try:
        cell_cfg = dataclasses.replace(cfg, map_spec=map_spec, scale_spec=cell)
        report = run_verification(cell_cfg)
        rec = report.to_record()
        for col in SWEEP_COLUMNS:
            if col in rec and rec[col] is not None:
                row[col] = rec[col]
        row["scale"] = report.scale_label
    except QrspacesError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: RunConfig) -> int:
    cells = [(m, c) for m in cfg.maps for c in cfg.cells]
    if cfg.threads > 1 and cells:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(lambda mc: _sweep_cell(cfg, *mc), cells))
    else:
        rows = [_sweep_cell(cfg, m, c) for m, c in cells]

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
    if cfg.growth_target not in GROWTH_TARGETS:
        raise InvalidParameterError(
            f"unknown growth target {cfg.growth_target!r}; "
            f"choose from {GROWTH_TARGETS}"
        )
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
        "config": cfg.to_dict(),
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


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise InvalidParameterError(
            f"bad value for {ENV_PREFIX + name.upper()}: {raw!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrspaces",
        description="Disk function-space norms and harmonic quasiregular checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=_env_default("config", str, ""),
                       help="JSON run configuration (flags override)")
        p.add_argument("--out", default=_env_default("out", str, ""),
                       help="output path (reports: JSON lines)")
        p.add_argument("--radial", type=int,
                       default=_env_default("radial", int, 128))
        p.add_argument("--angular", type=int,
                       default=_env_default("angular", int, 256))
        p.add_argument("--tol", type=float,
                       default=_env_default("tol", float, 1e-6))
        p.add_argument("--seed", type=int, default=_env_default("seed", int, 0))
        p.add_argument("--threads", type=int,
                       default=_env_default("threads", int, 1))
        p.add_argument("--search-max-j", type=int, default=10)
        p.add_argument("--search-angles", type=int, default=16)
        p.add_argument("--truncation-max-j", type=int, default=12,
                       help="deepest truncation radius 1 - 2^-j for 4.1/4.2")

    p = sub.add_parser("norm", help="compute a norm of a map")
    common(p)
    p.add_argument("--map", dest="map_spec", default="identity")
    p.add_argument("--scale", dest="scale_spec", default="Q(1,2,0)")
    p.add_argument("--weight-form", dest="weight_form", default="mobius",
                   choices=("mobius", "green"))

    p = sub.add_parser("constants", help="compute a sup-type constant")
    common(p)
    p.add_argument("--constant", default="qs:s=1",
                   help="e.g. sigma-deriv:p=2;alpha=0.5 | overlap:q=0;s=1 "
                        "| morrey:lam=0.5 | qs:s=1")

    p = sub.add_parser("verify", help="check one stability or membership bound")
    common(p)
    p.add_argument("--theorem", default="3.1", help=f"one of {THEOREM_IDS}")
    p.add_argument("--map", dest="map_spec", default="affine:k=0.5;sign=-1")
    p.add_argument("--scale", dest="scale_spec", default="Q(1,1.5,0)")
    p.add_argument("--K", type=float, default=0.0,
                   help="claimed distortion bound (0: estimate from the map)")
    p.add_argument("--Kprime", type=float, default=0.0)
    p.add_argument("--target", default="f",
                   help="membership target for 4.1/4.2 "
                        "(f, fz, fzbar, ftheta, bfb)")
    p.add_argument("--alpha-K", dest="alpha_K", type=float, default=0.0,
                   help="growth order override (0: conjectured default)")

    p = sub.add_parser("sweep", help="verify a grid of (map, scale) cells")
    common(p)
    p.add_argument("--theorem", default="3.1")
    p.add_argument("--K", type=float, default=0.0)
    p.add_argument("--Kprime", type=float, default=0.0)
    p.add_argument("--target", default="f")
    p.add_argument("--alpha-K", dest="alpha_K", type=float, default=0.0)
    p.add_argument("--maps", nargs="*", default=[],
                   help="map specs (cross product with --cells)")
    p.add_argument("--cells", nargs="*", default=[],
                   help="scale specs, e.g. 'Q(1,1.5,0)'")

    p = sub.add_parser("growth", help="fit a boundary growth exponent")
    common(p)
    p.add_argument("--map", dest="map_spec", default="koebe")
    p.add_argument("--which", dest="growth_target", default="hprime",
                   choices=GROWTH_TARGETS)
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a data file and gnuplot script")

    return parser


def _explicit_flags(argv) -> set:
    """Names of options literally present on the command line."""
    given = set()
    for token in argv:
        if token.startswith("--"):
            given.add(token[2:].split("=", 1)[0].replace("-", "_"))
    return given


def _merge_config(args: argparse.Namespace, explicit: set) -> RunConfig:
    """Precedence: explicit flags > config file > env/parser defaults."""
    file_cfg = {}
    if getattr(args, "config", ""):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        RunConfig.from_dict(file_cfg)  # validates keys
    alias = {"map": "map_spec", "scale": "scale_spec", "which": "growth_target"}
    explicit = {alias.get(name, name) for name in explicit}
    cfg = RunConfig()
    for f in dataclasses.fields(RunConfig):
        if f.name in file_cfg:
            setattr(cfg, f.name, file_cfg[f.name])
        if hasattr(args, f.name) and (f.name not in file_cfg
                                      or f.name in explicit):
            setattr(cfg, f.name, getattr(args, f.name))
    cfg.command = args.command
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _merge_config(args, _explicit_flags(argv))
        return COMMANDS[cfg.command](cfg)
    except (InvalidParameterError, NonQuasiregularError, PoleError,
            SingularityError, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (AccuracyError, InfiniteConstantError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
