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
import functools
import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import __version__
from .detection import DetectorModel
from .distributions import PairSource, SourceKind, TruncationPolicy
from .metrics import (Objective, _SWEEP_MAX, _car_result, _mu_grid, _visibility, optimize_mu,
                      visibility_approx, visibility_exact)
from .polarization import HplusModel, RateMethod, Setting, TimebinPort, _rate_sweep

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad command-line configuration or input data."""


_METHODS = {"exact": RateMethod.EXACT_SERIES, "closed": RateMethod.CLOSED_FORM}

# every option's argparse keywords, default included, in the order the
# output header echoes them; _COMMANDS overrides some per subcommand
_OPTIONS = {
    "source": {"required": True, "choices": [k.value for k in SourceKind if k.entangled]},
    "mu": {"type": float, "help": "single mean pair number"},
    "mu_range": {"help": "sweep LO:HI:N or LO:HI:N:log"},
    "alpha_s": {"type": float, "default": 0.1, "help": "signal efficiency (default 0.1)"},
    "alpha_i": {"type": float, "default": 0.1, "help": "idler efficiency (default 0.1)"},
    "dark_s": {"type": float, "default": 0.0, "help": "signal dark probability per gate"},
    "dark_i": {"type": float, "default": 0.0, "help": "idler dark probability per gate"},
    "tail_eps": {"type": float, "default": TruncationPolicy().tail_epsilon,
                 "help": "certified series tail (default %(default)s)"},
    "cap": {"type": int, "default": TruncationPolicy().hard_cap,
            "help": "series term cap (default %(default)s)"},
    "hplus_model": {
        "choices": [m.value for m in HplusModel],
        "default": HplusModel.COHERENT.value,
        "help": "diagonal-basis interference model (default coherent)",
    },
    "method": {"choices": list(_METHODS), "default": "exact"},
    "objective": {"choices": [o.value for o in Objective], "default": Objective.MAX_VISIBILITY.value},
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


# func: args -> exit code; keywords: option -> the argparse keywords that
# differ from _OPTIONS; modes: mode -> the options it reads besides _OUTPUT
_Command = namedtuple("_Command", "func help keywords modes")


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
    if isinstance(v, float):
        return "%.17g" % v  # the digits of format(v, ".17g"), with no spec to parse per call
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _parse_mu_values(args) -> list[float]:
    if (args.mu is None) == (args.mu_range is None):
        raise ConfigError("exactly one of --mu and --mu-range is required")
    if args.mu is not None:
        return [args.mu]
    return _mu_grid(*_parse_sweep(args.mu_range))


def _parse_sweep(text: str) -> tuple[float, float, int, bool]:
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
    if n > _SWEEP_MAX:
        raise ConfigError(f"--mu-range takes at most {_SWEEP_MAX} points, got {n}")
    if not lo < hi:
        raise ConfigError(
            f"--mu-range needs at least 2 distinct points (LO < HI), got {lo} and {hi}"
        )
    if scale == "log" and lo <= 0:
        raise ConfigError("log-scaled --mu-range needs LO > 0")
    return lo, hi, n, scale == "log"


def _detector_args(args) -> tuple[float, float, float, float]:
    return args.alpha_s, args.alpha_i, args.dark_s, args.dark_i


def _json_fields(fields: dict) -> dict:
    return {k: _fmt(v) if isinstance(v, float) else v for k, v in fields.items()}


def _json(v, pad: str) -> str:
    """``v`` laid out as ``json.dumps(v, indent=2)`` lays it out at indent
    ``pad``, without the pure-Python encoder that ``indent`` selects: dicts
    with str keys, lists and tuples here, every other value by json.dumps."""
    import json  # only JSON output and --from-r load it

    encode_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses

    def layout(v, pad: str) -> str:
        if isinstance(v, float) and math.isfinite(v):
            return float.__repr__(v)
        if isinstance(v, str):
            return encode_str(v)
        if isinstance(v, (list, tuple, dict)) and v:
            inner = pad + "  "
            sep = ",\n" + inner
            if isinstance(v, dict):
                body = sep.join([encode_str(k) + ": " + layout(x, inner) for k, x in v.items()])
                return "{\n" + inner + body + "\n" + pad + "}"
            return "[\n" + inner + sep.join([layout(x, inner) for x in v]) + "\n" + pad + "]"
        return json.dumps(v)

    return layout(v, pad)


def _emit_json(args, config: dict, body: dict) -> None:
    doc = {"library": "biphoton", "version": __version__, "config": _json_fields(config), **body}
    _write_text(args.out, _json(doc, "") + "\n")


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
    # no field holds a comma, a double quote or a line break: csv.writer would quote none
    lines.extend(",".join([_fmt(v) for v in row]) for row in [columns, *rows])
    _write_text(args.out, "\n".join(lines) + "\n")


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _sweep(args, mode: str, columns: list[str], table: Callable[..., Iterable]) -> int:
    """A row ``[mu, *tail]`` per tail of ``table(mus, policy)``, once the options, the
    mus and the policy are checked.  An exact column is one library sweep, which checks
    its inputs once and sums nothing if one is refused; a --mu row is its one-mu case."""
    config = _config(args, mode)
    mus = _parse_mu_values(args)
    tails = table(mus, TruncationPolicy(args.tail_eps, args.cap))
    _emit_table(args, config, columns, [[mu, *tail] for mu, tail in zip(mus, tails)])
    return 0


def _arms(args) -> tuple[DetectorModel, DetectorModel]:
    return DetectorModel(args.alpha_s, args.dark_s), DetectorModel(args.alpha_i, args.dark_i)


def cmd_visibility_curve(args) -> int:
    kinds = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
    columns = ["mu", "v_exact_dis", "v_exact_indis", "v_approx_dis", "v_approx_indis"]

    def table(mus, policy):
        arms = _arms(args)  # both arms checked before any mu, as in every rate mode
        if args.mu is not None:  # the one-mu case, through the public call
            exact = [[visibility_exact(PairSource(kind, args.mu), *_detector_args(args),
                                       policy).visibility] for kind in kinds]
        else:
            exact = [[_visibility(*rates) for _, rates in _rate_sweep(
                kind, (Setting.HH, Setting.HV), mus, *arms, policy)[1]] for kind in kinds]
        return zip(*exact, *([visibility_approx(kind, mu).visibility for mu in mus]
                             for kind in kinds))

    return _sweep(args, "", columns, table)


def cmd_concurrence_curve(args) -> int:
    from .tomography import _closed_form_concurrences, closed_form_concurrence

    config = _config(args)
    mus = _parse_mu_values(args)
    kinds = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
    # every input checked, then every state's rates formed, reconstructed and
    # graded in one pass: two Cs per mu, kinds innermost
    graded = iter(_closed_form_concurrences(kinds, mus, *_detector_args(args)).tolist())
    rows = [[mu, *conc, *(closed_form_concurrence(kind, mu) for kind in kinds)]
            for mu, *conc in zip(mus, graded, graded)]
    _emit_table(
        args, config, ["mu", "conc_dis", "conc_indis", "conc_closed_dis", "conc_closed_indis"], rows
    )
    return 0


def cmd_density_matrix(args) -> int:
    from .tomography import assemble_r, closed_form_rho, concurrence, reconstruct

    config = _config(args, "--from-r" if args.from_r is not None else f"--method {args.method}")
    if args.format == "csv":
        raise ConfigError("density-matrix output is a JSON document; use --format json")
    if args.from_r is not None:
        import json
        with open(args.from_r) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "r" not in payload:
            raise ConfigError(f'{args.from_r}: expected a JSON object with an "r" key')
        try:  # the rates follow the library's number rule
            rho = reconstruct(payload["r"])
        except TypeError as exc:
            raise ConfigError(f"{args.from_r}: {exc}") from None
    else:
        if args.source is None:
            raise ConfigError("--source is required")
        if args.mu is None:
            raise ConfigError("--mu is required unless --from-r is given")
        kind = SourceKind(args.source)
        if args.method == "closed-rho":
            rho = closed_form_rho(kind, args.mu)
        else:
            # closed mode reads neither the policy nor the H+ model: _config
            # refuses them, so the defaults it passes are never read
            rho = reconstruct(assemble_r(
                kind, args.mu, *_detector_args(args), TruncationPolicy(args.tail_eps, args.cap),
                _METHODS[args.method], HplusModel(args.hplus_model),
            ))
    _emit_json(
        args, config, {"density_matrix": rho.to_json_dict(), "concurrence": concurrence(rho)}
    )
    return 0


def cmd_car(args) -> int:
    def table(mus, policy):
        return [_car_result(*rates) for _, rates in _rate_sweep(
            SourceKind(args.source), (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED), mus,
            *_arms(args), policy, method=_METHODS[args.method])[1]]

    return _sweep(args, f"--method {args.method}", ["mu", "matched", "unmatched", "car"], table)


def cmd_timebin(args) -> int:
    mode = f"--method {args.method}"
    if args.method == "exact":
        mode += f" --port {args.port}"

    def table(mus, policy):
        return [rates for _, rates in _rate_sweep(
            SourceKind(args.source), (Setting(f"timebin-{args.port}"),), mus, *_arms(args),
            policy, HplusModel(args.hplus_model), _METHODS[args.method])[1]]

    return _sweep(args, mode, ["mu", "rate"], table)


def cmd_optimize_mu(args) -> int:
    config = _config(args)
    lo, hi, n, log = _parse_sweep(args.mu_range)
    # optimize_mu samples its bracket on a log grid of N points
    if not log or n < 3:
        raise ConfigError(
            f"optimize-mu needs --mu-range LO:HI:N:log with N >= 3, got {args.mu_range!r}"
        )
    result = optimize_mu(SourceKind(args.source), *_detector_args(args), Objective(args.objective),
                         (lo, hi), samples=n)
    _emit_table(
        args, config, ["mu_star", "value", "unimodal"], [[result.mu, result.value, result.unimodal]]
    )
    return 0


def cmd_validate(args) -> int:
    from .oracle import _validate

    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    config = _config(args, "with --trials" if args.trials > 0 else "without --trials")
    columns, rows, summary = _validate(HplusModel(args.hplus_model), args.trials, args.seed)
    _emit_table(args, config, columns, rows, summary)
    return 1 if summary["status"] == "FAIL" else 0


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
        {"source": {"choices": [k.value for k in SourceKind if k.correlated]}},
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
        {"mu_range": {"required": True, "help": "search bracket sampled at LO:HI:N:log, N >= 3"}},
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


_VALUE_FLAGS = {_flag(option) for option in _OPTIONS}  # every option takes one value


def _attach_values(argv: list[str]) -> list[str]:
    """``--mu -1`` as ``--mu=-1``: argparse takes a value starting with '-' for a flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") and not token.startswith("--"):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` in one pass when argv starts with a
    subcommand: the top level would only hand the rest on to its parser."""
    parser = _parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(argv[0]) if argv else None
    if sub is None:  # --version, --help, an unknown command or no argv
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # ConfigError is a ValueError
        print(f"biphoton: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
