"""The three benchmark workloads: what each op is, and how it is checked.

Ops come in passes.  Pass ``i`` of workload ``w`` under seed ``s`` is a
pure function of ``(w, s, i)``, so a run and its traced replay see the
same inputs.  Every pass draws fresh detector settings, so no two CLI
ops repeat their inputs and a result cache keyed on them cannot help.

Why these workloads:

* ``oracle-grid`` -- the 128-cell cross-check grid of `biphoton
  validate`, with a seeded 5e5-trial Monte-Carlo estimate per cell and
  pass.  The MC sampler does almost all the work; series and tomography
  are idle.
* ``series-sweep`` -- CLI mu sweeps up to mu = 5 (x_max 91 for the
  indistinguishable kind): the series kernels, the truncation and the
  cold ``plus_port_distribution`` do the work.  No MC.
* ``tomography-scan`` -- concurrence curves, max-concurrence searches
  and single-point density matrices: linear inversion dominates, and
  each exact-rate point is a one-off detector pair.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import adapter

WORKLOADS = ("oracle-grid", "series-sweep", "tomography-scan")

ENTANGLED = ("dis-entangled", "indis-entangled")
GRID_SETTINGS = {
    "dis-entangled": ("hh", "hv", "hplus", "single-s", "timebin-aa", "timebin-ab"),
    "indis-entangled": ("hh", "hv", "hplus", "single-s", "timebin-aa", "timebin-ab"),
    "dis-correlated": ("car-matched", "car-unmatched"),
    "thermal-correlated": ("car-matched", "car-unmatched"),
}
GRID_MUS = (0.05, 0.2)
GRID_ALPHAS = (0.05, 0.5)
GRID_DARKS = (0.0, 1e-3)
MC_TRIALS = 500_000
MC_Z_LIMIT = 4.0
GRID_TOL = 1e-9  # the absolute tolerance of `biphoton validate`
# series and enumeration at the same x_max differ only by rounding
ENUM_TOL = 1e-12

SWEEP_POINTS = 12
SWEEP_MU = (0.01, 5.0)
THERMAL_MU = (0.01, 3.0)  # at mu = 5 the thermal series exceeds --cap 100
TOMO_POINTS = 20
TOMO_MU = (0.01, 2.0)
# single exact states draw mu from a narrow band so their cost, which
# grows like x_max^2, does not swing the latency quantiles between seeds
STATE_MU = (0.1, 1.0)


@dataclass(frozen=True)
class Cell:
    """One oracle-grid cell: series, enumeration and MC of one setting."""

    kind: str
    setting: str
    mu: float
    alpha: float
    dark: float
    trials: int
    mc_seed: int

    @property
    def key(self):
        return self

    @property
    def label(self) -> str:
        return "cell"


@dataclass(frozen=True)
class CliOp:
    """One `biphoton.cli.main(argv)` invocation and the inputs it was built from."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)

    @property
    def key(self):
        return self.argv

    @property
    def label(self) -> str:
        return self.command


def _detectors(rng: random.Random) -> dict:
    return {"alpha_s": rng.uniform(0.02, 0.6), "alpha_i": rng.uniform(0.02, 0.6),
            "dark_s": rng.uniform(0.0, 1e-3), "dark_i": rng.uniform(0.0, 1e-3)}


def _cli(command: str, params: dict, *extra: str) -> CliOp:
    argv = [command, *extra]
    for key in ("alpha_s", "alpha_i", "dark_s", "dark_i"):
        argv += ["--" + key.replace("_", "-"), repr(params[key])]
    return CliOp(command, tuple(argv), params)


def _sweep(command: str, rng, mu: tuple[float, float], points: int, **kw) -> CliOp:
    params = _detectors(rng) | kw | {"mu_lo": mu[0], "mu_hi": mu[1], "points": points,
                                     "mu_range": f"{mu[0]!r}:{mu[1]!r}:{points}:log"}
    extra = []
    for key in ("source", "port", "objective"):
        if key in kw:
            extra += ["--" + key, kw[key]]
    return _cli(command, params, *extra, "--mu-range", params["mu_range"])


def _exact_state(rng, kind: str, mu: tuple[float, float]) -> CliOp:
    m = math.exp(rng.uniform(math.log(mu[0]), math.log(mu[1])))
    params = _detectors(rng) | {"source": kind, "mu": m}
    return _cli("density-matrix", params, "--source", kind, "--method", "exact",
                "--mu", repr(m))


def _from_r(rng, path: Path) -> CliOp:
    """A rate vector measured on a random full-rank state, at a random scale."""
    g = [rng.gauss(0.0, 1.0) for _ in range(32)]
    scale = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
    rho, r = adapter.physical_state(g, scale)
    params = {"rho": rho, "r": r, "path": str(path)}
    return CliOp("density-matrix", ("density-matrix", "--from-r", str(path)), params)


def generate(workload: str, seed: int, index: int, workdir: Path) -> list:
    """The ops of pass `index`; `--from-r` inputs are named under `workdir`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "oracle-grid":
        return [Cell(kind, setting, mu, alpha, dark, MC_TRIALS, rng.getrandbits(63))
                for kind, settings in GRID_SETTINGS.items() for setting in settings
                for mu in GRID_MUS for alpha in GRID_ALPHAS for dark in GRID_DARKS]
    if workload == "series-sweep":
        ops = [_sweep("visibility-curve", rng, SWEEP_MU, SWEEP_POINTS)]
        for kind in ENTANGLED:
            for port in ("aa", "ab", "aplus"):
                ops.append(_sweep("timebin", rng, SWEEP_MU, SWEEP_POINTS,
                                  source=kind, port=port))
        ops.append(_sweep("car", rng, SWEEP_MU, SWEEP_POINTS, source="dis-correlated"))
        ops.append(_sweep("car", rng, THERMAL_MU, SWEEP_POINTS, source="thermal-correlated"))
        ops += [_exact_state(rng, kind, STATE_MU) for kind in ENTANGLED]
        return ops
    if workload == "tomography-scan":
        ops = [_sweep("concurrence-curve", rng, TOMO_MU, TOMO_POINTS)]
        ops += [_sweep("optimize-mu", rng, TOMO_MU, TOMO_POINTS, source=kind,
                       objective="max-concurrence") for kind in ENTANGLED]
        ops += [_exact_state(rng, kind, STATE_MU) for kind in ENTANGLED * 2]
        ops += [_from_r(rng, workdir / f"r-{index}-{j}.json") for j in range(3)]
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reruns(workload: str, seed: int, workdir: Path) -> list:
    """Ops repeated after the timed passes; each must reproduce bit for bit."""
    if workload != "oracle-grid":
        return []
    return random.Random(f"{workload}:{seed}:rerun").sample(
        generate(workload, seed, 0, workdir), 2)


def write_inputs(ops: list) -> None:
    for op in ops:
        if isinstance(op, CliOp) and "path" in op.params:
            Path(op.params["path"]).write_text(json.dumps({"r": op.params["r"]}))


def execute(op):
    """Run one op through its entry point."""
    if isinstance(op, Cell):
        return adapter.cell_entry(op)
    return adapter.cli_entry(op.argv)


def replay(op, result, tr):
    """(values the entry point produced, values the traced replay produces)."""
    if isinstance(op, Cell):
        return list(result.values()), list(adapter.cell_replay(op, tr).values())
    _, text, _ = result
    return adapter.output_values(op, text), adapter.cli_replay(op, text, tr)


# ----------------------------------------------------------------- checks

def check(op, result) -> str | None:
    """None when an op's output is correct, else what is wrong with it."""
    if isinstance(op, Cell):
        return _check_cell(op, result)
    code, text, err = result
    if code != 0 or err:
        return f"exit {code}: {err.strip()}"
    values = adapter.output_values(op, text)
    if not all(math.isfinite(v) for v in values):
        return "non-finite value in output"
    if op.command == "density-matrix":
        return _check_state(op, text, values)
    header, columns, rows = adapter.parse_csv(text)
    problem = _check_echo(op, header)
    if problem:
        return problem
    if op.command == "optimize-mu":
        mu, value, _ = values
        if not (op.params["mu_lo"] <= mu <= op.params["mu_hi"] and 0.0 <= value <= 1.0):
            return f"optimum mu={mu} value={value} outside the bracket or [0, 1]"
        return None
    mus = [float(row[0]) for row in rows]
    if (len(mus) != op.params["points"] or mus[0] != op.params["mu_lo"]
            or mus[-1] != op.params["mu_hi"] or sorted(set(mus)) != mus):
        return "mu column does not follow the requested range"
    for row in rows:
        problem = _check_row(op, [float(v) for v in row])
        if problem:
            return f"mu={row[0]}: {problem}"
    return None


def _check_cell(cell: Cell, res: dict) -> str | None:
    err = abs(res["series"] - res["enum"])
    if not err <= GRID_TOL + res["tail"]:
        return f"|series - enumeration| = {err:.3e} > {GRID_TOL + res['tail']:.3e}"
    return None


def check_mc(records: list) -> dict[int, str]:
    """z-test each grid cell's Monte-Carlo draws, pooled over the run.

    Every pass draws each cell with a fresh MC seed; pooling them keeps
    one test per cell however many passes ran, so the false-alarm rate
    of a run does not grow with its length.  A failing cell fails every
    op that drew for it.  The z-score is that of `biphoton validate`,
    with the larger of the sampled and the expected standard error.
    """
    pools: dict[tuple, tuple[list, dict]] = {}
    for i, (op, res, *_) in enumerate(records):
        if isinstance(op, Cell) and isinstance(res, dict):
            ops, draws = pools.setdefault((op.kind, op.setting, op.mu, op.alpha, op.dark),
                                          ([], {}))
            ops.append(i)
            # a rerun repeats its seed's draws: count them once
            draws.setdefault(op.mc_seed, (op.trials, res))
    problems = {}
    for ops, draws in pools.values():
        trials = sum(t for t, _ in draws.values())
        mean = sum(round(r["mc_mean"] * t) for t, r in draws.values()) / trials
        p = next(iter(draws.values()))[1]["series"]
        se = max(math.sqrt(mean * (1.0 - mean) / (trials - 1)),
                 math.sqrt(max(p * (1.0 - p), 0.0) / trials))
        z = abs(mean - p) / se if se > 0 else 0.0
        if not z <= MC_Z_LIMIT:
            for i in ops:
                problems[i] = f"Monte-Carlo z = {z:.2f} > {MC_Z_LIMIT} over {trials} trials"
    return problems


def _check_echo(op: CliOp, header: dict) -> str | None:
    """The `#` header must echo every generated input exactly."""
    for key in ("alpha_s", "alpha_i", "dark_s", "dark_i"):
        if float(header.get(key, "nan")) != op.params[key]:
            return f"header {key}={header.get(key)} does not echo {op.params[key]!r}"
    for key in ("mu_range", "source", "port", "objective"):
        if key in op.params and header.get(key) != op.params[key]:
            return f"header {key}={header.get(key)} does not echo {op.params[key]}"
    if header.get("command") != op.command:
        return f"header command={header.get('command')} is not {op.command}"
    return None


def _check_row(op: CliOp, row: list[float]) -> str | None:
    p = op.params
    dets = (p["alpha_s"], p["alpha_i"], p["dark_s"], p["dark_i"])
    mu, vals = row[0], row[1:]
    if not all(0.0 <= v <= 1.0 for v in (vals[:2] if op.command == "car" else vals)):
        return f"value outside [0, 1]: {vals}"
    if op.command == "concurrence-curve":
        return None
    if op.command == "visibility-curve":
        for kind, v in zip(ENTANGLED, vals):
            x_max = adapter.series_index(kind, mu)
            if x_max <= adapter.ENUM_X_MAX:
                hh, t_hh = adapter.enumerated(kind, "hh", mu, *dets, x_max)
                hv, t_hv = adapter.enumerated(kind, "hv", mu, *dets, x_max)
                # |dv| <= 2 (e_hh + 2 e_hv) / (hh + hv) for rate errors e
                tol = 2.0 * (ENUM_TOL + t_hh + 2.0 * (ENUM_TOL + t_hv)) / (hh + hv)
                if not abs(v - (hh - hv) / (hh + hv)) <= tol:
                    return f"{kind} visibility {v!r} disagrees with enumeration"
        return None
    if op.command == "timebin":
        pairs = [("timebin-" + p["port"], vals[0])]
    else:
        matched, unmatched, ratio = vals
        if ratio != matched / unmatched:
            return f"car {ratio!r} is not matched/unmatched"
        pairs = [("car-matched", matched), ("car-unmatched", unmatched)]
    x_max = adapter.series_index(p["source"], mu)
    if x_max <= adapter.ENUM_X_MAX:
        for setting, v in pairs:
            ref, tail = adapter.enumerated(p["source"], setting, mu, *dets, x_max)
            if not abs(v - ref) <= ENUM_TOL + tail:
                return f"{setting} {v!r} disagrees with enumeration {ref!r}"
    return None


def _check_state(op: CliOp, text: str, values: list[float]) -> str | None:
    problem = adapter.check_state(values)
    if problem:
        return problem
    if not 0.0 <= values[-1] <= 1.0:
        return f"concurrence {values[-1]!r} outside [0, 1]"
    config = json.loads(text)["config"]
    p = op.params
    if "rho" in p:
        if config.get("from_r") != p["path"]:
            return "config does not echo the --from-r path"
        worst = max(abs(a - b) for a, b in zip(values[:32], p["rho"]))
        if not worst <= 1e-9:
            return f"reconstruction is {worst:.3e} away from the measured state"
        return None
    for key in ("alpha_s", "alpha_i", "dark_s", "dark_i", "mu"):
        if float(config.get(key, "nan")) != p[key]:
            return f"config {key}={config.get(key)} does not echo {p[key]!r}"
    if config.get("source") != p["source"] or config.get("method") != "exact":
        return "config does not echo source and method"
    return None
