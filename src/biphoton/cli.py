"""Command line interface.

Every output begins with the fully resolved configuration (library
version, command, and every parameter after defaulting) so a result
file is reproducible on its own: as ``# key=value`` comment lines
before the CSV header, or under the ``config`` key in JSON output.
A subcommand takes only the options it reads, so the header echoes
exactly those.  Floats are written with 17 significant digits.

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

from . import __version__
from .detection import DetectorModel
from .distributions import PairSource, SourceKind, TruncationPolicy
from .metrics import Objective, car, optimize_mu, series_rate, visibility_approx, visibility_exact
from .oracle import enumerate_rate, mc_rate
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
        if args.mu < 0:
            raise ConfigError(f"--mu must be >= 0, got {args.mu}")
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
        if lo < 0:
            raise ConfigError("--mu-range needs LO >= 0")
        step = (hi - lo) / (n - 1)
        vals = [lo + j * step for j in range(n)]
    vals[0], vals[-1] = lo, hi
    return vals


def _policy(args) -> TruncationPolicy:
    try:
        return TruncationPolicy(tail_epsilon=args.tail_eps, hard_cap=args.cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _detectors(args) -> tuple[DetectorModel, DetectorModel]:
    try:
        return (
            DetectorModel(args.alpha_s, args.dark_s),
            DetectorModel(args.alpha_i, args.dark_i),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _base_config(args, command: str) -> dict:
    cfg = {"command": command, "version": __version__}
    for key in (
        "source",
        "mu",
        "mu_range",
        "alpha_s",
        "alpha_i",
        "dark_s",
        "dark_i",
        "tail_eps",
        "cap",
        "hplus_model",
        "method",
        "objective",
        "port",
        "trials",
        "seed",
        "from_r",
        "format",
        "out",
    ):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _emit_table(
    args, config: dict, columns: list[str], rows: list[list], summary: dict | None = None
) -> None:
    if args.format == "json":
        obj = {
            "library": "biphoton",
            "version": __version__,
            "config": {k: _fmt(v) if isinstance(v, float) else v for k, v in config.items()},
            "columns": columns,
            "rows": rows,
        }
        if summary is not None:
            obj["summary"] = {
                k: _fmt(v) if isinstance(v, float) else v for k, v in summary.items()
            }
        _write_text(args.out, json.dumps(obj, indent=2) + "\n")
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


def _require_kind(args, *, entangled: bool | None = None) -> SourceKind:
    if args.source is None:
        raise ConfigError("--source is required")
    kind = _KINDS[args.source]
    if entangled is True and not kind.entangled:
        raise ConfigError(f"--source must be an entangled kind, got {args.source}")
    if entangled is False and not kind.correlated:
        raise ConfigError(f"--source must be a correlated kind, got {args.source}")
    return kind


def cmd_visibility_curve(args) -> int:
    mus = _parse_mu_values(args)
    policy = _policy(args)
    kinds = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
    rows = []
    for mu in mus:
        row = [mu]
        for kind in kinds:
            row.append(
                visibility_exact(
                    PairSource(kind, mu),
                    args.alpha_s, args.alpha_i, args.dark_s, args.dark_i, policy,
                ).visibility
            )
        for kind in kinds:
            row.append(visibility_approx(kind, mu).visibility)
        rows.append(row)
    _emit_table(
        args,
        _base_config(args, "visibility-curve"),
        ["mu", "v_exact_dis", "v_exact_indis", "v_approx_dis", "v_approx_indis"],
        rows,
    )
    return 0


def cmd_concurrence_curve(args) -> int:
    mus = _parse_mu_values(args)
    rows = []
    for mu in mus:
        row = [mu]
        for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
            if mu == 0.0 and args.dark_s == 0.0 and args.dark_i == 0.0:
                # all rates vanish at mu=0; the limit state is the pure Bell state
                row.append(concurrence(closed_form_rho(kind, 0.0)))
                continue
            r = assemble_r(kind, mu, args.alpha_s, args.alpha_i, args.dark_s, args.dark_i)
            row.append(concurrence(reconstruct(r)))
        for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
            row.append(closed_form_concurrence(kind, mu))
        rows.append(row)
    _emit_table(
        args,
        _base_config(args, "concurrence-curve"),
        ["mu", "conc_dis", "conc_indis", "conc_closed_dis", "conc_closed_indis"],
        rows,
    )
    return 0


def cmd_density_matrix(args) -> int:
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
        kind = _require_kind(args, entangled=True)
        if args.mu is None:
            raise ConfigError("--mu is required unless --from-r is given")
        if args.method == "closed-rho":
            rho = closed_form_rho(kind, args.mu)
        else:
            vec = assemble_r(
                kind,
                args.mu,
                args.alpha_s,
                args.alpha_i,
                args.dark_s,
                args.dark_i,
                _policy(args),
                _METHODS[args.method],
                HplusModel(args.hplus_model),
            )
            rho = reconstruct(vec)
    obj = {
        "library": "biphoton",
        "version": __version__,
        "config": {k: _fmt(v) if isinstance(v, float) else v
                   for k, v in _base_config(args, "density-matrix").items()},
        "density_matrix": rho.to_json_dict(),
        "concurrence": concurrence(rho),
    }
    _write_text(args.out, json.dumps(obj, indent=2) + "\n")
    return 0


def cmd_car(args) -> int:
    kind = _require_kind(args, entangled=False)
    mus = _parse_mu_values(args)
    policy = _policy(args)
    rows = []
    for mu in mus:
        res = car(
            PairSource(kind, mu),
            args.alpha_s,
            args.alpha_i,
            args.dark_s,
            args.dark_i,
            policy,
            _METHODS[args.method],
        )
        rows.append([mu, res.matched_rate, res.unmatched_rate, res.car])
    _emit_table(
        args, _base_config(args, "car"), ["mu", "matched", "unmatched", "car"], rows
    )
    return 0


def cmd_timebin(args) -> int:
    kind = _require_kind(args, entangled=True)
    mus = _parse_mu_values(args)
    policy = _policy(args)
    port = TimebinPort(args.port)
    rows = []
    for mu in mus:
        entry = timebin_rate(
            kind,
            port,
            mu,
            args.alpha_s,
            args.alpha_i,
            args.dark_s,
            args.dark_i,
            _METHODS[args.method],
            policy,
            HplusModel(args.hplus_model),
        )
        rows.append([mu, entry.value])
    _emit_table(args, _base_config(args, "timebin"), ["mu", "rate"], rows)
    return 0


def cmd_optimize_mu(args) -> int:
    kind = _require_kind(args, entangled=True)
    mus = _parse_mu_values(args)
    if len(mus) < 2:
        raise ConfigError("optimize-mu needs --mu-range for the search bracket")
    result = optimize_mu(
        kind,
        args.alpha_s,
        args.alpha_i,
        args.dark_s,
        args.dark_i,
        _OBJECTIVES[args.objective],
        (mus[0], mus[-1]),
        samples=max(3, len(mus)),
    )
    _emit_table(
        args,
        _base_config(args, "optimize-mu"),
        ["mu_star", "value", "unimodal"],
        [[result.mu, result.value, result.unimodal]],
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
                        ora = enumerate_rate(source, setting, det_s, det_i, 14, hplus_model)
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
    _emit_table(args, _base_config(args, "validate"), columns, rows, summary)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Multi-pair statistics of photon-pair sources: rates, visibility, CAR, tomography.",
    )
    parser.add_argument("--version", action="version", version=f"biphoton {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand declares only the options it reads
    def add_common(p: argparse.ArgumentParser, *, dets=True, series=False, hplus=False) -> None:
        if dets:
            p.add_argument("--alpha-s", type=float, default=0.1, help="signal efficiency (default 0.1)")
            p.add_argument("--alpha-i", type=float, default=0.1, help="idler efficiency (default 0.1)")
            p.add_argument("--dark-s", type=float, default=0.0, help="signal dark probability per gate")
            p.add_argument("--dark-i", type=float, default=0.0, help="idler dark probability per gate")
        if series:
            p.add_argument("--tail-eps", type=float, default=1e-12, help="certified series tail (default 1e-12)")
            p.add_argument("--cap", type=int, default=100, help="series term cap (default 100)")
        if hplus:
            p.add_argument(
                "--hplus-model",
                choices=[m.value for m in HplusModel],
                default=HplusModel.COHERENT.value,
                help="diagonal-basis interference model (default coherent)",
            )
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    def add_mu(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mu", type=float, default=None, help="single mean pair number")
        p.add_argument("--mu-range", default=None, help="sweep LO:HI:N or LO:HI:N:log")

    p = sub.add_parser(
        "visibility-curve", help="exact and approximate visibility vs mu, both entangled kinds"
    )
    add_mu(p)
    add_common(p, series=True)
    p.set_defaults(func=cmd_visibility_curve)

    p = sub.add_parser("concurrence-curve", help="pipeline and closed-form concurrence vs mu")
    add_mu(p)
    add_common(p)
    p.set_defaults(func=cmd_concurrence_curve)

    p = sub.add_parser("density-matrix", help="reconstructed density matrix as JSON")
    p.add_argument("--source", choices=[k for k, v in _KINDS.items() if v.entangled])
    p.add_argument("--mu", type=float, default=None)
    p.add_argument(
        "--method",
        choices=["closed", "exact", "closed-rho"],
        default="closed",
        help="rate source for tomography, or the direct closed-form state",
    )
    p.add_argument("--from-r", default=None, help='JSON file {"r": [16 rates]} to reconstruct from')
    add_common(p, series=True, hplus=True)
    p.set_defaults(func=cmd_density_matrix, format="json")

    p = sub.add_parser("car", help="coincidence-to-accidental ratio vs mu")
    p.add_argument("--source", required=True, choices=[k for k, v in _KINDS.items() if v.correlated])
    add_mu(p)
    p.add_argument("--method", choices=["exact", "closed"], default="exact")
    add_common(p, series=True)
    p.set_defaults(func=cmd_car)

    p = sub.add_parser("timebin", help="time-bin analyzer coincidence rate vs mu")
    p.add_argument("--source", required=True, choices=[k for k, v in _KINDS.items() if v.entangled])
    add_mu(p)
    p.add_argument("--port", choices=[t.value for t in TimebinPort], default=TimebinPort.AA.value)
    p.add_argument("--method", choices=["exact", "closed"], default="exact")
    add_common(p, series=True, hplus=True)
    p.set_defaults(func=cmd_timebin)

    p = sub.add_parser("optimize-mu", help="maximize a closed-form objective over mu")
    p.add_argument("--source", required=True, choices=[k for k, v in _KINDS.items() if v.entangled])
    add_mu(p)
    p.add_argument(
        "--objective", choices=[o.value for o in Objective], default=Objective.MAX_VISIBILITY.value
    )
    add_common(p)
    p.set_defaults(func=cmd_optimize_mu)

    p = sub.add_parser("validate", help="cross-check the series against the enumeration oracle")
    p.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials per cell (0 disables)")
    p.add_argument("--seed", type=int, default=1)
    add_common(p, dets=False, hplus=True)
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"biphoton: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"biphoton: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
