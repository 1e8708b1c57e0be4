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
import contextlib
import csv
import io
import json
import math
import os
import sys
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from . import __version__
from .bounds import WHICH, evaluate_bounds, rate_formula
from .errors import BracketingError, GsmGofError
from .gsm import (
    NoiseLevels,
    Signal,
    _word,
    default_j_max,
    make_spike_alternative,
    simulate,
    spike_index,
)
from .montecarlo import (
    ExperimentPlan,
    _containment_job,
    _error_job,
    _quadform_job,
    _radius_bracket,
    bandwidth_escape_bound,
    empirical_separation_radius,
)
from .runner import _run_jobs, _usable_cpus
from .sequences import DecayKind, GrowthKind, RegimeSpec, _count
from .testproc import KAPPA_DEFAULT, TestConfig, _check_unit, run_test

__all__ = ["main"]

_REGIMES = tuple(f"{decay.value}-{growth.value}" for decay in DecayKind for growth in GrowthKind)
_GRID = None  # the kind of a grid setting: kept as given, parsed per cell


class _Setting(NamedTuple):
    """One setting: its default, the type a flag or config entry is read as
    (int, float, str or _GRID), its choices, and its flag's help text, where
    {grid} marks the note of a subcommand that takes grids.  `command` names
    the one subcommand that alone takes the flag; None means all do."""

    default: Any
    kind: type | None
    help: str = ""
    choices: tuple | None = None
    command: str | None = None
    metavar: str | None = None


_SETTINGS = {
    "seed": _Setting(12345, int, "master seed (also settable via GSM_GOF_SEED)"),
    "reps": _Setting(1000, int, "replications per cell"),
    # workers None is _usable_cpus() at run time; jmax None is per regime
    "workers": _Setting(None, int, "chunks per job, run in at most one process per CPU "
                                   "(default: the CPUs this process may run on)"),
    "format": _Setting("csv", str, choices=("csv", "json")),
    "out": _Setting(None, str, "output file (default: stdout)", metavar="PATH"),
    "alpha": _Setting(0.05, float, "first-kind level"),
    "beta": _Setting(0.5, float, "second-kind target (also the radius-search target)"),
    "epsilon": _Setting("0.01", _GRID, "signal noise level{grid}"),
    "sigma": _Setting("0.01", _GRID, "operator noise level{grid}"),
    "s": _Setting(1.0, float, "smoothness exponent"),
    "t": _Setting(1.0, float, "ill-posedness exponent"),
    "regime": _Setting("mild-ordinary", _GRID,
                       "decay/growth regime{grid}: " + ", ".join(_REGIMES)),
    "jmax": _Setting(None, int, "horizon (default: 10000 mild, 200 severe)"),
    "kappa": _Setting(KAPPA_DEFAULT, float, "envelope constant"),
    "dimension": _Setting(None, int, "fixed cut-off dimension (default: adaptive)",
                          command="test"),
    "radii": _Setting(None, _GRID, "comma-separated spike radii (required)",
                      command="power-curve"),
    "which": _Setting("upper", str, choices=WHICH, command="rates"),
    "r_lo": _Setting(None, float, command="sep-radius"),
    "r_hi": _Setting(None, float, command="sep-radius"),
    "tol": _Setting(0.05, float, "relative bracket width at which bisection stops",
                    command="sep-radius"),
}

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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH",
                       help="JSON file of settings; flags override its entries")
        note = " (comma-separated list allowed)" if command.grids else ""
        for key, setting in _SETTINGS.items():
            if setting.command in (None, name):
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=setting.kind,
                               choices=setting.choices, metavar=setting.metavar,
                               help=setting.help.format(grid=note))
    return parser


_KINDS = {int: "an integer", float: "a number", str: "a string",
          _GRID: "a number or a string, or a list of them"}


def _read(key: str, value: Any, source: str) -> Any:
    """A config entry or environment value as its setting's type, else a
    ValueError naming `source`.  An integer setting takes an integral number
    or a string int() parses, so nothing is truncated; a grid stays as given."""
    setting = _SETTINGS[key]
    kind = setting.kind
    if value is None and setting.default is None:
        return None
    items = value if kind is _GRID and isinstance(value, list) else [value]
    if all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in items):
        if kind is _GRID:
            return value
        if kind is str:  # a string, and one of the choices if there are any
            if isinstance(value, str) and value in (setting.choices or [value]):
                return value
        elif kind is int and isinstance(value, float):  # 150.0 is 150; 150.9 is refused
            if value.is_integer():
                return int(value)
        else:  # a number, or a string that int() or float() parses
            with contextlib.suppress(ValueError, OverflowError):
                return kind(value)
    what = f"one of {setting.choices}" if setting.choices else _KINDS[kind]
    raise ValueError(f"{source} must be {what}, got {json.dumps(value)}")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {key: _read(key, value, f"config entry {key!r}") for key, value in data.items()}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag > config > environment (seed only) > default."""
    config = _load_config(args.config) if args.config else {}
    settings: dict[str, Any] = {}
    for key, setting in _SETTINGS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
        elif key in config:
            settings[key] = config[key]
        elif key == "seed" and "GSM_GOF_SEED" in os.environ:
            settings[key] = _read(key, os.environ["GSM_GOF_SEED"], "GSM_GOF_SEED")
        else:
            settings[key] = setting.default
    settings["command"] = args.command
    if settings["workers"] is None:
        settings["workers"] = _usable_cpus()
    _word("seed", settings["seed"], 128)
    _count("workers", settings["workers"])
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


def _cells(cfg: dict) -> Iterator[_Cell]:
    """Every cell of the settings, regime outermost and sigma innermost.

    Unless the subcommand takes grids, each of regime, epsilon and sigma must
    hold a single value.  The horizon defaults per regime (see default_j_max).
    """
    grid = _COMMANDS[cfg["command"]].grids
    axes = []
    for field, parse in (("regime", _regime_list), ("epsilon", _float_list),
                         ("sigma", _float_list)):
        values = parse(cfg[field], field)
        if not grid and len(values) != 1:
            raise ValueError(f"{field} must be a single value for this subcommand")
        axes.append(values)
    regimes, epsilons, sigmas = axes
    for regime in regimes:
        spec = RegimeSpec.from_name(regime, s=cfg["s"], t=cfg["t"])
        j_max = cfg["jmax"] if cfg["jmax"] is not None else default_j_max(spec)
        for epsilon in epsilons:
            for sigma in sigmas:
                yield _Cell(regime, spec, j_max, epsilon, sigma)


def _noise(cell: _Cell) -> NoiseLevels:
    """Noise levels as the test procedure needs them: sigma strictly inside
    (0, 1) so the bandwidth scan and threshold are defined."""
    _check_unit("sigma", cell.sigma)
    return NoiseLevels(cell.epsilon, cell.sigma)


def _test_config(cfg: dict, cell: _Cell, dimension: int | None = None) -> TestConfig:
    return TestConfig(alpha=cfg["alpha"], beta=cfg["beta"], j_max=cell.j_max,
                      kappa=cfg["kappa"], dimension=dimension)


def _plan(cfg: dict, cell: _Cell) -> ExperimentPlan:
    """The null experiment (theta0 = 0) of one cell."""
    return ExperimentPlan(spec=cell.spec, config=_test_config(cfg, cell), noise=_noise(cell),
                          theta0=Signal.zeros(), n_reps=cfg["reps"],
                          master_seed=cfg["seed"])


def _prefix(cfg: dict, cell: _Cell) -> dict:
    """The leading columns shared by the per-cell rows."""
    return {
        "regime": cell.regime, "s": cfg["s"], "t": cfg["t"],
        "epsilon": cell.epsilon, "sigma": cell.sigma,
        "alpha": cfg["alpha"], "beta": cfg["beta"],
        "jmax": cell.j_max, "kappa": cfg["kappa"],
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
        # where the output goes and how many chunks ran change no result
        meta = {k: v for k, v in cfg.items() if k not in ("out", "workers")}
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


def _cmd_test(cfg: dict) -> list[dict]:
    [cell] = _cells(cfg)
    noise = _noise(cell)
    dimension = cfg["dimension"]
    config = _test_config(cfg, cell, dimension)
    theta0 = Signal.zeros()
    obs = simulate(theta0, cell.spec, noise, cfg["seed"], cell.j_max, rep=0)
    report = run_test(obs, theta0, cell.spec, noise, config)
    return [{
        **_prefix(cfg, cell), "seed": cfg["seed"], "dimension": dimension,
        "bandwidth": report.bandwidth, "window": report.window,
        "statistic": report.statistic, "threshold": report.threshold,
        "reject": report.reject, "degenerate": report.degenerate,
        "bandwidth_truncated": report.bandwidth_truncated,
    }]


def _cmd_calibrate(cfg: dict) -> list[dict]:
    cells = list(_cells(cfg))
    estimates = _run_jobs((_error_job(_plan(cfg, cell)) for cell in cells), cfg["workers"])
    rows = []
    for cell, estimate in zip(cells, estimates):
        rows.append({
            **_prefix(cfg, cell), "seed": cfg["seed"], "reps": estimate.n_reps,
            "alpha_hat": estimate.p_hat, "se": estimate.se,
            "n_degenerate": estimate.n_degenerate,
        })
    return rows


def _cmd_power_curve(cfg: dict) -> list[dict]:
    if cfg["radii"] is None:
        raise ValueError("power-curve requires --radii")
    radii = _float_list(cfg["radii"], "radii")
    [cell] = _cells(cfg)
    plan = _plan(cfg, cell)
    thetas = (make_spike_alternative(cell.spec, plan.theta0, r, cell.j_max) for r in radii)
    estimates = _run_jobs((_error_job(plan, theta) for theta in thetas), cfg["workers"])
    rows = []
    for radius, estimate in zip(radii, estimates):
        rows.append({
            **_prefix(cfg, cell), "seed": cfg["seed"], "reps": estimate.n_reps,
            "radius": radius, "spike_dim": spike_index(cell.spec, radius, cell.j_max),
            "beta_hat": estimate.p_hat, "se": estimate.se,
            "n_degenerate": estimate.n_degenerate,
        })
    return rows


def _cmd_sep_radius(cfg: dict) -> list[dict]:
    [cell] = _cells(cfg)
    plan = _plan(cfg, cell)
    r_lo, r_hi = _radius_bracket(cell.spec, cfg["r_lo"], cfg["r_hi"])
    radius = empirical_separation_radius(plan, cfg["beta"], r_lo, r_hi,
                                         tol=cfg["tol"], workers=cfg["workers"])
    return [{
        **_prefix(cfg, cell), "seed": cfg["seed"], "reps": cfg["reps"],
        "beta_target": cfg["beta"], "r_lo": r_lo, "r_hi": r_hi,
        "tol": cfg["tol"], "radius": radius,
    }]


def _cmd_rates(cfg: dict) -> list[dict]:
    rows = []
    which = cfg["which"]
    for cell in _cells(cfg):
        rows.append({
            "regime": cell.regime, "s": cfg["s"], "t": cfg["t"],
            "epsilon": cell.epsilon, "sigma": cell.sigma, "which": which,
            "rate_sq": rate_formula(cell.spec, cell.epsilon, cell.sigma, which),
        })
    return rows


def _cmd_bounds(cfg: dict) -> list[dict]:
    rows = []
    for cell in _cells(cfg):
        report = evaluate_bounds(cell.spec, cell.epsilon, cell.sigma, cfg["alpha"],
                                 cfg["beta"], cell.j_max, kappa=cfg["kappa"])
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
    return rows


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


def _cmd_checks(cfg: dict) -> list[dict]:
    [cell] = _cells(cfg)
    plan = _plan(cfg, cell)
    run = {"seed": cfg["seed"], "reps": cfg["reps"]}
    jobs = [_containment_job(plan),
            *(_quadform_job(**case, n_reps=cfg["reps"], master_seed=cfg["seed"])
              for case in _QUADFORM_CASES)]
    escape, *quadform = _run_jobs(jobs, cfg["workers"])

    columns = {k: v for k, v in _prefix(cfg, cell).items() if k in _CHECK_COLUMNS}
    rows = [_check_row("bandwidth-containment", escape,
                       bandwidth_escape_bound(plan.config.alpha, plan.config.kappa),
                       **columns, **run)]
    for case, tails in zip(_QUADFORM_CASES, quadform):
        for side, estimate in (("quadform-upper", tails.upper),
                               ("quadform-lower", tails.lower)):
            rows.append(_check_row(side, estimate, math.exp(-case["x"]), **case, **run))
    return rows


class _Command(NamedTuple):
    """One subcommand: its help, whether regime, epsilon and sigma may be
    grids, and its handler."""

    help: str
    grids: bool
    run: Callable[[dict], list[dict]]


_COMMANDS = {
    "test": _Command("one simulated test run under the null", False, _cmd_test),
    "calibrate": _Command("first-kind error over a grid", True, _cmd_calibrate),
    "power-curve": _Command("second-kind error against spike alternatives", False,
                            _cmd_power_curve),
    "sep-radius": _Command("bisection search for the separation radius", False,
                           _cmd_sep_radius),
    "rates": _Command("benchmark rate formulas over a grid", True, _cmd_rates),
    "bounds": _Command("separation-radius bounds over a grid", True, _cmd_bounds),
    "checks": _Command("concentration checks with pass/fail flags (exit 1 on failure)",
                       False, _cmd_checks),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        rows = _COMMANDS[args.command].run(cfg)
        _emit(rows, cfg)
        return 0 if all(row.get("passed", True) for row in rows) else 1
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
