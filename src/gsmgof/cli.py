"""Batch driver: run experiments from flags/config files, emit CSV or JSON.

Every subcommand resolves its settings with the same precedence — command
line flag, then config-file entry, then the GSM_GOF_SEED environment variable
(seed only), then built-in default — simulates or evaluates, and writes one
self-describing row per grid point.  Output is deterministic: identical
settings produce byte-identical files.

Exit codes: 0 success; 1 a check failed or a radius search could not bracket
its target; 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Any, Iterator, NamedTuple, Sequence

from . import __version__
from .bounds import WHICH, evaluate_bounds, rate_formula
from .errors import BracketingError, GsmGofError
from .gsm import (
    NoiseLevels,
    Signal,
    default_j_max,
    make_spike_alternative,
    simulate,
    spike_index,
)
from .montecarlo import (
    ExperimentPlan,
    _radius_bracket,
    bandwidth_escape_bound,
    check_bandwidth_containment,
    check_quadform_concentration,
    empirical_separation_radius,
    estimate_alpha,
    estimate_beta,
)
from .sequences import DecayKind, GrowthKind, RegimeSpec
from .testproc import KAPPA_DEFAULT, TestConfig, run_test

__all__ = ["main"]

_REGIMES = tuple(f"{decay.value}-{growth.value}" for decay in DecayKind for growth in GrowthKind)
_FORMATS = ("csv", "json")

_DEFAULTS = {
    "seed": 12345,
    "reps": 1000,
    "workers": None,  # resolved to os.cpu_count() at run time
    "format": "csv",
    "out": None,
    "alpha": 0.05,
    "beta": 0.5,
    "epsilon": "0.01",
    "sigma": "0.01",
    "s": 1.0,
    "t": 1.0,
    "regime": "mild-ordinary",
    "jmax": None,  # resolved per regime
    "kappa": KAPPA_DEFAULT,
    "dimension": None,
    "radii": None,
    "which": "upper",
    "r_lo": None,
    "r_hi": None,
    "tol": 0.05,
}

_CONFIG_KEYS = frozenset(_DEFAULTS)
_GRID_KEYS = frozenset({"regime", "epsilon", "sigma", "radii"})  # may hold JSON lists


# ---------------------------------------------------------------------------
# Argument parsing and setting resolution
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsm-gof",
        description="Goodness-of-fit testing experiments in Gaussian sequence "
                    "models with noisy operator coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, grids: bool) -> None:
        p.add_argument("--config", metavar="PATH",
                       help="JSON file of settings; flags override its entries")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (also settable via GSM_GOF_SEED)")
        p.add_argument("--reps", type=int, default=None, help="replications per cell")
        p.add_argument("--workers", type=int, default=None,
                       help="process pool size (default: logical CPUs)")
        p.add_argument("--format", choices=_FORMATS, default=None, dest="format")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--alpha", type=float, default=None, help="first-kind level")
        p.add_argument("--beta", type=float, default=None,
                       help="second-kind target (also the radius-search target)")
        grid_note = " (comma-separated list allowed)" if grids else ""
        p.add_argument("--epsilon", default=None, help="signal noise level" + grid_note)
        p.add_argument("--sigma", default=None, help="operator noise level" + grid_note)
        p.add_argument("--s", type=float, default=None, help="smoothness exponent")
        p.add_argument("--t", type=float, default=None, help="ill-posedness exponent")
        p.add_argument("--regime", default=None,
                       help="decay/growth regime" + grid_note + ": "
                            + ", ".join(_REGIMES))
        p.add_argument("--jmax", type=int, default=None,
                       help="horizon (default: 10000 mild, 200 severe)")
        p.add_argument("--kappa", type=float, default=None, help="envelope constant")

    p_test = sub.add_parser("test", help="one simulated test run under the null")
    add_common(p_test, grids=False)
    p_test.add_argument("--dimension", type=int, default=None,
                        help="fixed cut-off dimension (default: adaptive)")

    p_cal = sub.add_parser("calibrate", help="first-kind error over a grid")
    add_common(p_cal, grids=True)

    p_pow = sub.add_parser("power-curve",
                           help="second-kind error against spike alternatives")
    add_common(p_pow, grids=False)
    p_pow.add_argument("--radii", default=None,
                       help="comma-separated spike radii (required)")

    p_sep = sub.add_parser("sep-radius",
                           help="bisection search for the separation radius")
    add_common(p_sep, grids=False)
    p_sep.add_argument("--r-lo", type=float, default=None, dest="r_lo")
    p_sep.add_argument("--r-hi", type=float, default=None, dest="r_hi")
    p_sep.add_argument("--tol", type=float, default=None,
                       help="relative bracket width at which bisection stops")

    p_rates = sub.add_parser("rates", help="benchmark rate formulas over a grid")
    add_common(p_rates, grids=True)
    p_rates.add_argument("--which", choices=WHICH, default=None)

    p_bounds = sub.add_parser("bounds", help="separation-radius bounds over a grid")
    add_common(p_bounds, grids=True)

    p_checks = sub.add_parser(
        "checks", help="concentration checks with pass/fail flags (exit 1 on failure)")
    add_common(p_checks, grids=False)

    return parser


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if value is None and _DEFAULTS[key] is None:
            continue
        items = value if key in _GRID_KEYS and isinstance(value, list) else [value]
        if key == "out" and not isinstance(value, str):
            raise ValueError(f"config entry 'out' must be a path string, got {json.dumps(value)}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in items):
            kinds = "a number or a string" + (", or a list of them" if key in _GRID_KEYS else "")
            raise ValueError(f"config entry {key!r} must be {kinds}, got {json.dumps(value)}")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag > config > environment (seed only) > default."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    settings: dict[str, Any] = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
        elif key in config:
            settings[key] = config[key]
        elif key == "seed" and "GSM_GOF_SEED" in os.environ:
            settings[key] = int(os.environ["GSM_GOF_SEED"])
        else:
            settings[key] = default
    settings["command"] = args.command
    if settings["workers"] is None:
        settings["workers"] = os.cpu_count() or 1
    if settings["format"] not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}")
    if int(settings["seed"]) < 0:
        raise ValueError("seed must be a nonnegative integer")
    settings["seed"] = int(settings["seed"])
    return settings


def _tokens(value, field: str) -> list:
    """Items of a list setting, or of a comma-separated string; never empty."""
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{field} grid is empty")
    return items


def _float_list(value, field: str) -> list[float]:
    return [float(v) for v in _tokens(value, field)]


def _regime_list(value, field: str) -> list[str]:
    names = [str(v) for v in _tokens(value, field)]
    for name in names:
        if name not in _REGIMES:
            raise ValueError(f"unknown regime {name!r}; choose from {_REGIMES}")
    return names


class _Cell(NamedTuple):
    """One point of the regime x epsilon x sigma grid."""

    regime: str
    spec: RegimeSpec
    j_max: int
    epsilon: float
    sigma: float


def _cells(cfg: dict, grid: bool) -> Iterator[_Cell]:
    """Every cell of the settings, regime outermost and sigma innermost.

    Without grid, each of regime, epsilon and sigma must hold a single value.
    The horizon defaults per regime (see default_j_max).
    """
    axes = []
    for field, parse in (("regime", _regime_list), ("epsilon", _float_list),
                         ("sigma", _float_list)):
        values = parse(cfg[field], field)
        if not grid and len(values) != 1:
            raise ValueError(f"{field} must be a single value for this subcommand")
        axes.append(values)
    regimes, epsilons, sigmas = axes
    for regime in regimes:
        spec = RegimeSpec.from_name(regime, s=float(cfg["s"]), t=float(cfg["t"]))
        j_max = int(cfg["jmax"]) if cfg["jmax"] is not None else default_j_max(spec)
        for epsilon in epsilons:
            for sigma in sigmas:
                yield _Cell(regime, spec, j_max, epsilon, sigma)


def _noise(cell: _Cell) -> NoiseLevels:
    """Noise levels as the test procedure needs them: sigma strictly inside
    (0, 1) so the bandwidth scan and threshold are defined."""
    if not 0.0 < cell.sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {cell.sigma}")
    if cell.epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {cell.epsilon}")
    return NoiseLevels(cell.epsilon, cell.sigma)


def _test_config(cfg: dict, cell: _Cell, dimension: int | None = None) -> TestConfig:
    return TestConfig(alpha=float(cfg["alpha"]), beta=float(cfg["beta"]), j_max=cell.j_max,
                      kappa=float(cfg["kappa"]), dimension=dimension)


def _plan(cfg: dict, cell: _Cell) -> ExperimentPlan:
    """The null experiment (theta0 = 0) of one cell."""
    return ExperimentPlan(spec=cell.spec, config=_test_config(cfg, cell), noise=_noise(cell),
                          theta0=Signal.zeros(), n_reps=int(cfg["reps"]),
                          master_seed=cfg["seed"])


def _prefix(cfg: dict, cell: _Cell) -> dict:
    """The leading columns shared by the per-cell rows."""
    return {
        "regime": cell.regime, "s": float(cfg["s"]), "t": float(cfg["t"]),
        "epsilon": cell.epsilon, "sigma": cell.sigma,
        "alpha": float(cfg["alpha"]), "beta": float(cfg["beta"]),
        "jmax": cell.j_max, "kappa": float(cfg["kappa"]),
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _sanitize(value):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(rows: list[dict], cfg: dict) -> None:
    fmt = cfg["format"]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row[key]) for key in header])
        text = buffer.getvalue()
    else:
        meta = {k: v for k, v in cfg.items() if k != "out"}
        meta["artifact_version"] = __version__
        payload = {"meta": _sanitize(meta), "rows": _sanitize(rows)}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg["out"] is None:
        sys.stdout.write(text)
    else:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_test(cfg: dict) -> int:
    [cell] = _cells(cfg, grid=False)
    noise = _noise(cell)
    dimension = cfg["dimension"]
    config = _test_config(cfg, cell, None if dimension is None else int(dimension))
    theta0 = Signal.zeros()
    obs = simulate(theta0, cell.spec, noise, cfg["seed"], cell.j_max, rep=0)
    report = run_test(obs, theta0, cell.spec, noise, config)
    rows = [{
        **_prefix(cfg, cell), "seed": cfg["seed"], "dimension": dimension,
        "bandwidth": report.bandwidth, "window": report.window,
        "statistic": report.statistic, "threshold": report.threshold,
        "reject": report.reject, "degenerate": report.degenerate,
        "bandwidth_truncated": report.bandwidth_truncated,
    }]
    _emit(rows, cfg)
    return 0


def _cmd_calibrate(cfg: dict) -> int:
    rows = []
    for cell in _cells(cfg, grid=True):
        estimate = estimate_alpha(_plan(cfg, cell), workers=int(cfg["workers"]))
        rows.append({
            **_prefix(cfg, cell), "seed": cfg["seed"], "reps": estimate.n_reps,
            "alpha_hat": estimate.p_hat, "se": estimate.se,
            "n_degenerate": estimate.n_degenerate,
        })
    _emit(rows, cfg)
    return 0


def _cmd_power_curve(cfg: dict) -> int:
    if cfg["radii"] is None:
        raise ValueError("power-curve requires --radii")
    radii = _float_list(cfg["radii"], "radii")
    [cell] = _cells(cfg, grid=False)
    plan = _plan(cfg, cell)
    rows = []
    for radius in radii:
        theta = make_spike_alternative(cell.spec, plan.theta0, radius, cell.j_max)
        estimate = estimate_beta(plan, theta, workers=int(cfg["workers"]))
        rows.append({
            **_prefix(cfg, cell), "seed": cfg["seed"], "reps": estimate.n_reps,
            "radius": radius, "spike_dim": spike_index(cell.spec, radius, cell.j_max),
            "beta_hat": estimate.p_hat, "se": estimate.se,
            "n_degenerate": estimate.n_degenerate,
        })
    _emit(rows, cfg)
    return 0


def _cmd_sep_radius(cfg: dict) -> int:
    [cell] = _cells(cfg, grid=False)
    plan = _plan(cfg, cell)
    r_lo, r_hi = _radius_bracket(cell.spec, cfg["r_lo"], cfg["r_hi"])
    beta_target = float(cfg["beta"])
    radius = empirical_separation_radius(plan, beta_target, r_lo, r_hi,
                                         tol=float(cfg["tol"]),
                                         workers=int(cfg["workers"]))
    rows = [{
        **_prefix(cfg, cell), "seed": cfg["seed"], "reps": int(cfg["reps"]),
        "beta_target": beta_target, "r_lo": r_lo, "r_hi": r_hi,
        "tol": float(cfg["tol"]), "radius": radius,
    }]
    _emit(rows, cfg)
    return 0


def _cmd_rates(cfg: dict) -> int:
    rows = []
    which = cfg["which"]
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}")
    for cell in _cells(cfg, grid=True):
        rows.append({
            "regime": cell.regime, "s": float(cfg["s"]), "t": float(cfg["t"]),
            "epsilon": cell.epsilon, "sigma": cell.sigma, "which": which,
            "rate_sq": rate_formula(cell.spec, cell.epsilon, cell.sigma, which),
        })
    _emit(rows, cfg)
    return 0


def _cmd_bounds(cfg: dict) -> int:
    rows = []
    for cell in _cells(cfg, grid=True):
        report = evaluate_bounds(cell.spec, cell.epsilon, cell.sigma, float(cfg["alpha"]),
                                 float(cfg["beta"]), cell.j_max, kappa=float(cfg["kappa"]))
        rows.append({
            **_prefix(cfg, cell),
            "upper_sq": report.upper_sq,
            "upper_argmin_dim": report.upper_argmin_dim,
            "lower_sq": report.lower_sq,
            "lower_sigma_part": report.lower_components[0],
            "lower_epsilon_part": report.lower_components[1],
            "bracket_low": report.bracket_low,
            "bracket_high": report.bracket_high,
            "prior_depth": report.prior_depth,
        })
    _emit(rows, cfg)
    return 0


_QUADFORM_CASES = (
    {"d": 1, "nu": 0.0, "v": 1.0, "x": 1.0},
    {"d": 10, "nu": 0.1, "v": 0.5, "x": 2.0},
)

_CHECK_COLUMNS = ("check", "regime", "s", "t", "sigma", "alpha", "kappa", "jmax", "seed",
                  "reps", "d", "nu", "v", "x", "p_hat", "se", "bound", "passed")


def _check_row(check: str, estimate, bound: float, **columns) -> dict:
    """One checks row: the columns given, the others blank.  The check passes
    when its frequency is within three standard errors above the bound."""
    row = dict.fromkeys(_CHECK_COLUMNS)
    row.update(columns, check=check, p_hat=estimate.p_hat, se=estimate.se, bound=bound,
               passed=estimate.p_hat <= bound + 3.0 * estimate.se)
    return row


def _cmd_checks(cfg: dict) -> int:
    [cell] = _cells(cfg, grid=False)
    plan = _plan(cfg, cell)
    reps = int(cfg["reps"])
    workers = int(cfg["workers"])
    run = {"seed": cfg["seed"], "reps": reps}

    escape = check_bandwidth_containment(plan, workers=workers)
    columns = {k: v for k, v in _prefix(cfg, cell).items() if k in _CHECK_COLUMNS}
    rows = [_check_row("bandwidth-containment", escape,
                       bandwidth_escape_bound(plan.config.alpha, plan.config.kappa),
                       **columns, **run)]

    for case in _QUADFORM_CASES:
        tails = check_quadform_concentration(case["d"], case["nu"], case["v"],
                                             case["x"], reps,
                                             master_seed=cfg["seed"],
                                             workers=workers)
        for side, estimate in (("quadform-upper", tails.upper),
                               ("quadform-lower", tails.lower)):
            rows.append(_check_row(side, estimate, math.exp(-case["x"]), **case, **run))

    _emit(rows, cfg)
    return 0 if all(row["passed"] for row in rows) else 1


_HANDLERS = {
    "test": _cmd_test,
    "calibrate": _cmd_calibrate,
    "power-curve": _cmd_power_curve,
    "sep-radius": _cmd_sep_radius,
    "rates": _cmd_rates,
    "bounds": _cmd_bounds,
    "checks": _cmd_checks,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        return _HANDLERS[args.command](cfg)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except BracketingError as exc:
        print(f"gsm-gof: {exc}", file=sys.stderr)
        return 1
    except (GsmGofError, ValueError, OSError) as exc:
        print(f"gsm-gof: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
