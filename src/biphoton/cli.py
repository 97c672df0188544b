"""Command line interface.

Every output begins with the fully resolved configuration (library
version, command, and every parameter after defaulting) so a result
file is reproducible on its own: as ``# key=value`` comment lines
before the CSV header, or under the ``config`` key in JSON output.
One table, ``_COMMANDS``, names the options each mode of a subcommand
reads: the header echoes exactly those, and any other option set to a
value other than its default is a configuration error.  Floats are
written with 17 significant digits.

Exit codes: 0 on success, 1 when ``validate`` finds a disagreement,
2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Callable, NamedTuple

from . import __version__
from .detection import DetectorModel
from .distributions import PairSource, SourceKind, TruncationPolicy
from .metrics import Objective, car, optimize_mu, series_rate, visibility_approx, visibility_exact
from .oracle import X_MAX_LIMIT, enumerate_rate, mc_rate
from .polarization import HplusModel, RateMethod, Setting
from .timebin import TimebinPort, timebin_rate
from .tomography import (
    assemble_r,
    closed_form_concurrence,
    closed_form_rho,
    concurrence,
    reconstruct,
)

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad command-line configuration or input data."""


_KINDS = {k.value: k for k in SourceKind}
_OBJECTIVES = {o.value: o for o in Objective}
_METHODS = {"exact": RateMethod.EXACT_SERIES, "closed": RateMethod.CLOSED_FORM}

# every option's argparse keywords, default included, in the order the
# output header echoes them; _COMMANDS overrides some per subcommand
_OPTIONS = {
    "source": {"required": True, "choices": [k for k, v in _KINDS.items() if v.entangled]},
    "mu": {"type": float, "help": "single mean pair number"},
    "mu_range": {"help": "sweep LO:HI:N or LO:HI:N:log"},
    "alpha_s": {"type": float, "default": 0.1, "help": "signal efficiency (default 0.1)"},
    "alpha_i": {"type": float, "default": 0.1, "help": "idler efficiency (default 0.1)"},
    "dark_s": {"type": float, "default": 0.0, "help": "signal dark probability per gate"},
    "dark_i": {"type": float, "default": 0.0, "help": "idler dark probability per gate"},
    "tail_eps": {"type": float, "default": 1e-12, "help": "certified series tail (default 1e-12)"},
    "cap": {"type": int, "default": 100, "help": "series term cap (default 100)"},
    "hplus_model": {
        "choices": [m.value for m in HplusModel],
        "default": HplusModel.COHERENT.value,
        "help": "diagonal-basis interference model (default coherent)",
    },
    "method": {"choices": list(_METHODS), "default": "exact"},
    "objective": {"choices": list(_OBJECTIVES), "default": Objective.MAX_VISIBILITY.value},
    "port": {"choices": [t.value for t in TimebinPort], "default": TimebinPort.AA.value},
    "trials": {"type": int, "default": 0, "help": "Monte-Carlo trials per cell (0 disables)"},
    "seed": {"type": int, "default": 1},
    "from_r": {"help": 'JSON file {"r": [16 rates]} to reconstruct from'},
    "format": {"choices": ["csv", "json"], "default": "csv"},
    "out": {"default": "-", "help": "output path, '-' for stdout"},
}
_OUTPUT = ("format", "out")  # read by every mode
_SWEEP = ("mu", "mu_range")
_DETECTORS = ("alpha_s", "alpha_i", "dark_s", "dark_i")
_SERIES = ("tail_eps", "cap")


class _Command(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    keywords: dict  # option -> the argparse keywords that differ from _OPTIONS
    modes: dict  # mode -> the options the mode reads besides _OUTPUT


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _keywords(command: str, option: str) -> dict:
    return {**_OPTIONS[option], **_COMMANDS[command].keywords.get(option, {})}


def _reads(command: str, mode: str) -> set[str]:
    return {*_COMMANDS[command].modes[mode], *_OUTPUT}


def _config(args, mode: str = "") -> dict:
    """The options that ``mode`` of the subcommand reads, as the output
    header echoes them; any other option set to a value other than its
    default would be ignored, so it is a ConfigError."""
    command = args.subcommand
    reads = _reads(command, mode)
    ignored = [
        _flag(option) for option in _OPTIONS
        if option not in reads and hasattr(args, option)
        and getattr(args, option) != _keywords(command, option).get("default")
    ]
    if ignored:
        raise ConfigError(f"{command} {mode} does not read {', '.join(ignored)}")
    config = {"command": command, "version": __version__}
    config.update(
        (option, getattr(args, option)) for option in _OPTIONS
        if option in reads and getattr(args, option) is not None
    )
    return config


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _parse_mu_values(args) -> list[float]:
    if (args.mu is None) == (args.mu_range is None):
        raise ConfigError("exactly one of --mu and --mu-range is required")
    if args.mu is not None:
        return [args.mu]
    return _parse_sweep(args.mu_range)


def _parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"--mu-range must be LO:HI:N or LO:HI:N:log, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse --mu-range {text!r}: {exc}") from None
    scale = parts[3] if len(parts) == 4 else "lin"
    if scale not in ("lin", "log"):
        raise ConfigError(f"--mu-range scale must be 'lin' or 'log', got {scale!r}")
    if n < 2:
        raise ConfigError(f"--mu-range needs at least 2 points, got {n}")
    if not lo < hi:
        raise ConfigError(
            f"--mu-range needs at least 2 distinct points (LO < HI), got {lo} and {hi}"
        )
    if scale == "log":
        if lo <= 0:
            raise ConfigError("log-scaled --mu-range needs LO > 0")
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        vals = [math.exp(math.log(lo) + j * step) for j in range(n)]
    else:
        step = (hi - lo) / (n - 1)
        vals = [lo + j * step for j in range(n)]
    vals[0], vals[-1] = lo, hi
    return vals


def _detector_args(args) -> tuple[float, float, float, float]:
    return args.alpha_s, args.alpha_i, args.dark_s, args.dark_i


def _json_fields(fields: dict) -> dict:
    return {k: _fmt(v) if isinstance(v, float) else v for k, v in fields.items()}


def _emit_json(args, config: dict, body: dict) -> None:
    doc = {"library": "biphoton", "version": __version__, "config": _json_fields(config), **body}
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")


def _emit_table(
    args, config: dict, columns: list[str], rows: list[list], summary: dict | None = None
) -> None:
    if args.format == "json":
        body = {"columns": columns, "rows": rows}
        if summary is not None:
            body["summary"] = _json_fields(summary)
        _emit_json(args, config, body)
        return
    lines = [f"# biphoton {__version__}"]
    lines.extend(f"# {k}={_fmt(v)}" for k, v in config.items())
    if summary is not None:
        lines.extend(f"# {k}={_fmt(v)}" for k, v in summary.items())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_text(args.out, "\n".join(lines) + "\n" + buf.getvalue())


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_visibility_curve(args) -> int:
    config = _config(args)
    mus = _parse_mu_values(args)
    policy = TruncationPolicy(args.tail_eps, args.cap)
    kinds = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
    rows = []
    for mu in mus:
        row = [mu]
        for kind in kinds:
            res = visibility_exact(PairSource(kind, mu), *_detector_args(args), policy)
            row.append(res.visibility)
        for kind in kinds:
            row.append(visibility_approx(kind, mu).visibility)
        rows.append(row)
    _emit_table(
        args, config, ["mu", "v_exact_dis", "v_exact_indis", "v_approx_dis", "v_approx_indis"], rows
    )
    return 0


def cmd_concurrence_curve(args) -> int:
    config = _config(args)
    mus = _parse_mu_values(args)
    rows = []
    for mu in mus:
        row = [mu]
        for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
            if mu == 0.0 and args.dark_s == 0.0 and args.dark_i == 0.0:
                # all rates vanish at mu=0; the limit state is the pure Bell state
                row.append(concurrence(closed_form_rho(kind, 0.0)))
                continue
            row.append(concurrence(reconstruct(assemble_r(kind, mu, *_detector_args(args)))))
        for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
            row.append(closed_form_concurrence(kind, mu))
        rows.append(row)
    _emit_table(
        args, config, ["mu", "conc_dis", "conc_indis", "conc_closed_dis", "conc_closed_indis"], rows
    )
    return 0


def cmd_density_matrix(args) -> int:
    config = _config(args, "--from-r" if args.from_r is not None else f"--method {args.method}")
    if args.format == "csv":
        raise ConfigError("density-matrix output is a JSON document; use --format json")
    if args.from_r is not None:
        with open(args.from_r) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "r" not in payload:
            raise ConfigError(f'{args.from_r}: expected a JSON object with an "r" key')
        r = payload["r"]
        if not isinstance(r, list) or len(r) != 16 or any(type(v) not in (int, float) for v in r):
            raise ConfigError(f'{args.from_r}: "r" must hold 16 numbers')
        rho = reconstruct(r)
    else:
        if args.source is None:
            raise ConfigError("--source is required")
        if args.mu is None:
            raise ConfigError("--mu is required unless --from-r is given")
        kind = _KINDS[args.source]
        if args.method == "closed-rho":
            rho = closed_form_rho(kind, args.mu)
        elif args.method == "closed":
            rho = reconstruct(assemble_r(kind, args.mu, *_detector_args(args)))
        else:
            rho = reconstruct(assemble_r(
                kind, args.mu, *_detector_args(args), TruncationPolicy(args.tail_eps, args.cap),
                RateMethod.EXACT_SERIES, HplusModel(args.hplus_model),
            ))
    _emit_json(
        args, config, {"density_matrix": rho.to_json_dict(), "concurrence": concurrence(rho)}
    )
    return 0


def cmd_car(args) -> int:
    config = _config(args, f"--method {args.method}")
    mus = _parse_mu_values(args)
    policy = TruncationPolicy(args.tail_eps, args.cap)
    rows = []
    for mu in mus:
        source = PairSource(_KINDS[args.source], mu)
        res = car(source, *_detector_args(args), policy, _METHODS[args.method])
        rows.append([mu, res.matched_rate, res.unmatched_rate, res.car])
    _emit_table(args, config, ["mu", "matched", "unmatched", "car"], rows)
    return 0


def cmd_timebin(args) -> int:
    mode = f"--method {args.method}"
    if args.method == "exact":
        mode += f" --port {args.port}"
    config = _config(args, mode)
    mus = _parse_mu_values(args)
    policy = TruncationPolicy(args.tail_eps, args.cap)
    rows = []
    for mu in mus:
        entry = timebin_rate(_KINDS[args.source], TimebinPort(args.port), mu,
                             *_detector_args(args), _METHODS[args.method], policy,
                             HplusModel(args.hplus_model))
        rows.append([mu, entry.value])
    _emit_table(args, config, ["mu", "rate"], rows)
    return 0


def cmd_optimize_mu(args) -> int:
    config = _config(args)
    mus = _parse_sweep(args.mu_range)
    result = optimize_mu(_KINDS[args.source], *_detector_args(args), _OBJECTIVES[args.objective],
                         (mus[0], mus[-1]), samples=max(3, len(mus)))
    _emit_table(
        args, config, ["mu_star", "value", "unimodal"], [[result.mu, result.value, result.unimodal]]
    )
    return 0


# kind -> oracle settings exercised by `validate`, in output order
_ENTANGLED_CHECKS = (Setting.HH, Setting.HV, Setting.HPLUS, Setting.SINGLE_S,
                     Setting.TIMEBIN_AA, Setting.TIMEBIN_AB)
_CAR_CHECKS = (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED)
_VALIDATE_SETTINGS: dict[SourceKind, tuple[Setting, ...]] = {
    SourceKind.DIS_ENTANGLED: _ENTANGLED_CHECKS,
    SourceKind.INDIS_ENTANGLED: _ENTANGLED_CHECKS,
    SourceKind.DIS_CORRELATED: _CAR_CHECKS,
    SourceKind.THERMAL_CORRELATED: _CAR_CHECKS,
}

_VALIDATE_MUS = (0.05, 0.2)
_VALIDATE_ALPHAS = (0.05, 0.5)
_VALIDATE_DARKS = (0.0, 1e-3)
_VALIDATE_TOL = 1e-9


def cmd_validate(args) -> int:
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    config = _config(args, "with --trials" if args.trials > 0 else "without --trials")
    policy = TruncationPolicy(tail_epsilon=1e-13, hard_cap=200)
    hplus_model = HplusModel(args.hplus_model)
    columns = ["kind", "setting", "mu", "alpha", "dark", "series", "oracle", "abs_err", "tol", "status"]
    if args.trials > 0:
        columns += ["mc_mean", "mc_z", "mc_status"]
    rows: list[list] = []
    failed = False
    max_abs_err = 0.0
    max_z = 0.0
    for kind, settings in _VALIDATE_SETTINGS.items():
        for setting in settings:
            for mu in _VALIDATE_MUS:
                for alpha in _VALIDATE_ALPHAS:
                    for dark in _VALIDATE_DARKS:
                        source = PairSource(kind, mu)
                        det_s = DetectorModel(alpha, dark)
                        det_i = DetectorModel(alpha, dark)
                        series = series_rate(source, setting, det_s, det_i, policy, hplus_model)
                        ora = enumerate_rate(source, setting, det_s, det_i, X_MAX_LIMIT,
                                             hplus_model)
                        tol = _VALIDATE_TOL + ora.tail_bound
                        err = abs(series - ora.value)
                        max_abs_err = max(max_abs_err, err)
                        ok = err <= tol
                        failed |= not ok
                        row = [
                            kind.value, setting.value, mu, alpha, dark,
                            series, ora.value, err, tol, "pass" if ok else "FAIL",
                        ]
                        if args.trials > 0:
                            est = mc_rate(
                                source, setting, det_s, det_i, args.trials, args.seed, hplus_model
                            )
                            se0 = math.sqrt(max(series * (1.0 - series), 0.0) / args.trials)
                            se = max(est.std_error, se0)
                            z = abs(est.mean - series) / se if se > 0 else 0.0
                            max_z = max(max_z, z)
                            mc_ok = z <= 4.0
                            failed |= not mc_ok
                            row += [est.mean, z, "pass" if mc_ok else "FAIL"]
                        rows.append(row)
    summary = {"cells": len(rows), "max_abs_err": max_abs_err,
               "status": "FAIL" if failed else "pass"}
    if args.trials > 0:
        summary["max_mc_z"] = max_z
    _emit_table(args, config, columns, rows, summary)
    return 1 if failed else 0


_TIMEBIN = ("source", *_SWEEP, "port", "method", *_DETECTORS)

# a subcommand declares every option one of its modes reads, and no other
_COMMANDS = {
    "visibility-curve": _Command(
        cmd_visibility_curve,
        "exact and approximate visibility vs mu, both entangled kinds",
        {},
        {"": (*_SWEEP, *_DETECTORS, *_SERIES)},
    ),
    "concurrence-curve": _Command(
        cmd_concurrence_curve,
        "pipeline and closed-form concurrence vs mu",
        {},
        {"": (*_SWEEP, *_DETECTORS)},
    ),
    "density-matrix": _Command(
        cmd_density_matrix,
        "reconstructed density matrix as JSON",
        {
            "source": {"required": False},
            "method": {
                "choices": ["closed", "exact", "closed-rho"],
                "default": "closed",
                "help": "rate source for tomography, or the direct closed-form state",
            },
            "format": {"default": "json"},
        },
        {
            "--from-r": ("from_r",),
            "--method closed-rho": ("source", "mu", "method"),
            "--method closed": ("source", "mu", "method", *_DETECTORS),
            "--method exact": ("source", "mu", "method", *_DETECTORS, *_SERIES, "hplus_model"),
        },
    ),
    "car": _Command(
        cmd_car,
        "coincidence-to-accidental ratio vs mu",
        {"source": {"choices": [k for k, v in _KINDS.items() if v.correlated]}},
        {
            "--method closed": ("source", *_SWEEP, "method", *_DETECTORS),
            "--method exact": ("source", *_SWEEP, "method", *_DETECTORS, *_SERIES),
        },
    ),
    "timebin": _Command(
        cmd_timebin,
        "time-bin analyzer coincidence rate vs mu",
        {},
        {
            "--method closed": _TIMEBIN,
            "--method exact --port aa": (*_TIMEBIN, *_SERIES),
            "--method exact --port ab": (*_TIMEBIN, *_SERIES),
            "--method exact --port aplus": (*_TIMEBIN, *_SERIES, "hplus_model"),
        },
    ),
    "optimize-mu": _Command(
        cmd_optimize_mu,
        "maximize a closed-form objective over mu",
        {"mu_range": {"required": True}},
        {"": ("source", "mu_range", "objective", *_DETECTORS)},
    ),
    "validate": _Command(
        cmd_validate,
        "cross-check the series against the enumeration oracle",
        {},
        {
            "without --trials": ("trials", "hplus_model"),
            "with --trials": ("trials", "seed", "hplus_model"),
        },
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviated or undeclared flag is an error
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Multi-pair statistics of photon-pair sources: rates, visibility, CAR, tomography.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"biphoton {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help, allow_abbrev=False)
        declared = set().union(*(_reads(command, mode) for mode in spec.modes))
        for option in _OPTIONS:
            if option in declared:
                p.add_argument(_flag(option), **_keywords(command, option))
        p.set_defaults(func=spec.func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # ConfigError is a ValueError
        print(f"biphoton: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
