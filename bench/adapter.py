"""Every call the benchmark makes into biphoton lives in this file.

Two kinds of function are here:

* entry points (``cell_entry``, ``cli_entry``) call exactly what a user
  calls: the public rate functions and oracles for an oracle-grid cell,
  ``biphoton.cli.main(argv)`` for a CLI op.  These are what the
  end-to-end metrics time.
* replays (``cell_replay``, ``cli_replay``) recompute the same numbers by
  composing the lower-level public functions the entry point is built
  from, with a trace span around each call.  A replay must reproduce
  its entry point's numbers bit for bit.

biphoton is imported from the ``src`` directory next to this benchmark,
never from an installed copy, so the benchmark always measures the
source tree it ships with.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import biphoton  # noqa: E402
from biphoton import (  # noqa: E402
    DensityMatrix,
    DetectorModel,
    HplusModel,
    Objective,
    OracleSetting,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TomographyVector,
    TruncationPolicy,
    assemble_r,
    car,
    click_prob,
    coincidence_rate,
    concurrence,
    enumerate_rate,
    mc_rate,
    optimize_mu,
    per_x_coincidence,
    plus_port_distribution,
    pmf,
    pmf_values,
    projectors,
    reconstruct,
    single_rate,
    timebin_rate,
    truncation_index,
    visibility_approx,
)
from biphoton import cli  # noqa: E402
from biphoton.tomography import CROSSED_INDICES, PARALLEL_INDICES  # noqa: E402

if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
    raise ImportError(f"biphoton was imported from {biphoton.__file__}, not from {SRC}")

# the policy `biphoton validate` uses for its series references
GRID_POLICY = TruncationPolicy(tail_epsilon=1e-13, hard_cap=200)
# the CLI defaults --tail-eps 1e-12 --cap 100, which every CLI op keeps
CLI_POLICY = TruncationPolicy(tail_epsilon=1e-12, hard_cap=100)
ENUM_X_MAX = 14

_KINDS = {k.value: k for k in SourceKind}
_POL = {"hh": Setting.HH, "hv": Setting.HV, "hplus": Setting.HPLUS}
_PORTS = {"timebin-aa": TimebinPort.AA, "timebin-ab": TimebinPort.AB,
          "timebin-aplus": TimebinPort.APLUS}
_PORT_SETTING = {TimebinPort.AA: Setting.HH, TimebinPort.AB: Setting.HV,
                 TimebinPort.APLUS: Setting.HPLUS}
_ORACLE = {s.value: s for s in OracleSetting}


def design_size() -> dict:
    """Size of the measured program: `src/` line count and public names."""
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"src_lines": lines, "public_names": len(biphoton.__all__),
            "biphoton_version": biphoton.__version__, "numpy": np.__version__}


# ---------------------------------------------------------------- oracle grid

def _series_entry(kind, setting: str, mu, alpha, dark) -> float:
    source = PairSource(kind, mu)
    det = DetectorModel(alpha, dark)
    if setting in _POL:
        return coincidence_rate(source, _POL[setting], det, det, GRID_POLICY).value
    if setting == "single-s":
        return single_rate(source, det, GRID_POLICY)
    if setting in ("car-matched", "car-unmatched"):
        res = car(source, alpha, alpha, dark, dark, GRID_POLICY)
        return res.matched_rate if setting == "car-matched" else res.unmatched_rate
    return timebin_rate(kind, _PORTS[setting], mu, alpha, alpha, dark, dark,
                        RateMethod.EXACT_SERIES, GRID_POLICY).value


def cell_entry(cell) -> dict:
    """One oracle-grid cell: exact series, enumeration and seeded Monte-Carlo."""
    kind = _KINDS[cell.kind]
    source = PairSource(kind, cell.mu)
    det = DetectorModel(cell.alpha, cell.dark)
    setting = _ORACLE[cell.setting]
    series = _series_entry(kind, cell.setting, cell.mu, cell.alpha, cell.dark)
    ora = enumerate_rate(source, setting, det, det, ENUM_X_MAX)
    est = mc_rate(source, setting, det, det, cell.trials, cell.mc_seed)
    return {"series": series, "enum": ora.value, "tail": ora.tail_bound,
            "mc_mean": est.mean, "mc_se": est.std_error}


def cell_replay(cell, tr) -> dict:
    kind = _KINDS[cell.kind]
    source = PairSource(kind, cell.mu)
    det = DetectorModel(cell.alpha, cell.dark)
    setting = _ORACLE[cell.setting]
    a, d = cell.alpha, cell.dark
    if cell.setting in _POL:
        series = _coincidence(tr, source, _POL[cell.setting], det, det, GRID_POLICY)
    elif cell.setting == "single-s":
        with tr.span("polarization.single_rate"):
            series = single_rate(source, det, GRID_POLICY)
    elif cell.setting in ("car-matched", "car-unmatched"):
        matched, unmatched, _ = _car(tr, source, a, a, d, d, GRID_POLICY)
        series = matched if cell.setting == "car-matched" else unmatched
    else:
        series = _timebin(tr, kind, _PORTS[cell.setting], cell.mu, a, a, d, d, GRID_POLICY)
    with tr.span("oracle.enumerate_rate"):
        ora = enumerate_rate(source, setting, det, det, ENUM_X_MAX)
    with tr.span("oracle.mc_rate"):
        est = mc_rate(source, setting, det, det, cell.trials, cell.mc_seed)
    tr.count("oracle.mc_rate.trials", cell.trials)
    # computed, not sampled: the share of draws with no pair at all
    tr.count("oracle.mc.zero_pair_trials", cell.trials * pmf(source, 0))
    return {"series": series, "enum": ora.value, "tail": ora.tail_bound,
            "mc_mean": est.mean, "mc_se": est.std_error}


# ------------------------------------------------------------- series replays

def _coincidence(tr, source, setting, det_s, det_i, policy,
                 model=HplusModel.COHERENT) -> float:
    """`coincidence_rate(...).value`, one layer at a time."""
    with tr.span("polarization.coincidence_rate"):
        with tr.span("distributions.truncation_index"):
            x_max = truncation_index(source, policy)
        with tr.span("distributions.pmf_values"):
            weights = pmf_values(source, x_max)
        tr.count("distributions.series_terms", x_max + 1)
        coherent_plus = (source.kind is SourceKind.INDIS_ENTANGLED
                         and setting is Setting.HPLUS and model is HplusModel.COHERENT)
        terms = []
        for x in range(x_max + 1):
            if coherent_plus:
                misses = plus_port_distribution.cache_info().misses
                with tr.span("polarization.plus_port_distribution.warm") as span:
                    plus_port_distribution(x)
                    if plus_port_distribution.cache_info().misses > misses:
                        span.name = "polarization.plus_port_distribution.cold"
            with tr.span("polarization.per_x_coincidence"):
                k = per_x_coincidence(source.kind, setting, x, det_s, det_i, model)
            terms.append(weights[x] * k)
        return math.fsum(terms)


def _timebin(tr, kind, port, mu, a_s, a_i, d_s, d_i, policy) -> float:
    """`timebin_rate(..., EXACT_SERIES, ...).value`: halved efficiencies."""
    with tr.span("timebin.timebin_rate"):
        det_s = DetectorModel(a_s / 2.0, d_s)
        det_i = DetectorModel(a_i / 2.0, d_i)
        return _coincidence(tr, PairSource(kind, mu), _PORT_SETTING[port],
                            det_s, det_i, policy)


def _click_probs(tr, det, x_max) -> list:
    out = []
    for x in range(x_max + 1):
        with tr.span("detection.click_prob"):
            out.append(click_prob(det, x))
    return out


def _car(tr, source, a_s, a_i, d_s, d_i, policy) -> tuple[float, float, float]:
    """`car(..., EXACT_SERIES)`: matched, unmatched and their ratio."""
    with tr.span("metrics.car"):
        with tr.span("distributions.truncation_index"):
            x_max = truncation_index(source, policy)
        with tr.span("distributions.pmf_values"):
            weights = pmf_values(source, x_max)
        tr.count("distributions.series_terms", x_max + 1)
        qs = _click_probs(tr, DetectorModel(a_s, d_s), x_max)
        qi = _click_probs(tr, DetectorModel(a_i, d_i), x_max)
        matched = math.fsum(w * a * b for w, a, b in zip(weights, qs, qi))
        unmatched = math.fsum(w * a for w, a in zip(weights, qs)) * math.fsum(
            w * b for w, b in zip(weights, qi)
        )
        ratio = matched / unmatched if unmatched > 0 else math.inf
        return matched, unmatched, ratio


def _visibility(tr, source, a_s, a_i, d_s, d_i, policy) -> float:
    """`visibility_exact(...).visibility` from the HH and HV series."""
    with tr.span("metrics.visibility_exact"):
        det_s = DetectorModel(a_s, d_s)
        det_i = DetectorModel(a_i, d_i)
        hh = _coincidence(tr, source, Setting.HH, det_s, det_i, policy)
        hv = _coincidence(tr, source, Setting.HV, det_s, det_i, policy)
        total = hh + hv
        return (hh - hv) / total if total > 0 else 1.0


def _state(tr, vec) -> tuple:
    """Reconstruct a state from its 16 rates and grade it: (rho, C)."""
    with tr.span("tomography.reconstruct"):
        rho = reconstruct(vec)
    with tr.span("tomography.concurrence"):
        c = concurrence(rho)
    return rho, c


def _state_values(rho, c) -> list[float]:
    """A state as `density-matrix` prints it: 16 re, 16 im, then C."""
    m = rho.matrix
    return [float(v.real) for v in m.flat] + [float(v.imag) for v in m.flat] + [c]


def _exact_state(tr, kind, mu, a_s, a_i, d_s, d_i, policy) -> tuple:
    """`assemble_r(..., EXACT_SERIES)` followed by reconstruction."""
    with tr.span("tomography.assemble_r"):
        source = PairSource(kind, mu)
        det_s = DetectorModel(a_s, d_s)
        det_i = DetectorModel(a_i, d_i)
        hh = _coincidence(tr, source, Setting.HH, det_s, det_i, policy)
        hv = _coincidence(tr, source, Setting.HV, det_s, det_i, policy)
        hp = _coincidence(tr, source, Setting.HPLUS, det_s, det_i, policy)
        r = [hp] * 16
        for j in PARALLEL_INDICES:
            r[j] = hh
        for j in CROSSED_INDICES:
            r[j] = hv
        vec = TomographyVector(tuple(r), RateMethod.EXACT_SERIES, HplusModel.COHERENT)
    return _state(tr, vec)


# -------------------------------------------------------------------- CLI ops

def cli_entry(argv) -> tuple[int, str, str]:
    """`biphoton.cli.main(argv)` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """A CLI CSV document: `# key=value` header, column names, rows."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line:
            rows.append(line.split(","))
    return header, rows[0], rows[1:]


def output_values(op, text: str) -> list[float]:
    """The numbers an op printed, in the order its replay produces them."""
    if op.command == "density-matrix":
        doc = json.loads(text)
        dm = doc["density_matrix"]
        return ([v for row in dm["re"] for v in row] + [v for row in dm["im"] for v in row]
                + [doc["concurrence"]])
    _, _, rows = parse_csv(text)
    if op.command == "optimize-mu":
        (mu, value, unimodal), = rows
        return [float(mu), float(value), 1.0 if unimodal == "true" else 0.0]
    return [float(v) for row in rows for v in row]


def cli_replay(op, text: str, tr) -> list[float]:
    """Recompute an op's printed numbers from its inputs, layer by layer.

    Sweep rows take their mu from the op's own output, so the replay
    follows the CLI's grid without re-deriving it.
    """
    p = op.params
    if "r" in p:
        return _state_values(*_state(tr, [float(v) for v in p["r"]]))
    a_s, a_i, d_s, d_i = p["alpha_s"], p["alpha_i"], p["dark_s"], p["dark_i"]
    if op.command == "density-matrix":
        return _state_values(*_exact_state(tr, _KINDS[p["source"]], p["mu"],
                                           a_s, a_i, d_s, d_i, CLI_POLICY))
    if op.command == "optimize-mu":
        with tr.span("metrics.optimize_mu"):
            res = optimize_mu(_KINDS[p["source"]], a_s, a_i, d_s, d_i,
                              Objective.MAX_CONCURRENCE, (p["mu_lo"], p["mu_hi"]),
                              samples=max(3, p["points"]))
        return [res.mu, res.value, 1.0 if res.unimodal else 0.0]
    _, _, rows = parse_csv(text)
    out = []
    for row in rows:
        mu = float(row[0])
        out.append(mu)
        if op.command == "visibility-curve":
            for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
                out.append(_visibility(tr, PairSource(kind, mu), a_s, a_i, d_s, d_i, CLI_POLICY))
            for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
                out.append(visibility_approx(kind, mu).visibility)
        elif op.command == "timebin":
            out.append(_timebin(tr, _KINDS[p["source"]], TimebinPort(p["port"]), mu,
                                a_s, a_i, d_s, d_i, CLI_POLICY))
        elif op.command == "car":
            out.extend(_car(tr, PairSource(_KINDS[p["source"]], mu),
                            a_s, a_i, d_s, d_i, CLI_POLICY))
        elif op.command == "concurrence-curve":
            for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
                with tr.span("tomography.assemble_r"):
                    vec = assemble_r(kind, mu, a_s, a_i, d_s, d_i)
                out.append(_state(tr, vec)[1])
            # the CLI's closed-form reference columns
            out.append(max(0.0, (2.0 - mu) / (2.0 * (1.0 + mu))))
            out.append(2.0 / (2.0 + 3.0 * mu))
        else:
            raise ValueError(f"no replay for {op.command}")
    return out


# ------------------------------------------------------------ check helpers

def physical_state(g: list[float], scale: float) -> tuple[list[float], list[float]]:
    """A full-rank state rho = G G^+ / tr from 32 Gaussian numbers, and the
    16 tomography rates it produces times `scale`: (rho re + im, rates)."""
    gm = np.array(g[:16]).reshape(4, 4) + 1j * np.array(g[16:]).reshape(4, 4)
    rho = gm @ gm.conj().T
    rho /= rho.trace().real
    rates = [scale * float(np.trace(rho @ pi).real) for pi in projectors()]
    return [float(v.real) for v in rho.flat] + [float(v.imag) for v in rho.flat], rates


def check_state(values: list[float]) -> str | None:
    """Validate a printed density matrix (16 re, 16 im, then C); None if fine."""
    m = np.array(values[:16]).reshape(4, 4) + 1j * np.array(values[16:32]).reshape(4, 4)
    try:
        DensityMatrix(m)
    except ValueError as exc:
        return f"density matrix fails validation: {exc}"
    return None


def series_index(kind: str, mu: float) -> int:
    """The series truncation index a CLI op uses at this mu."""
    return truncation_index(PairSource(_KINDS[kind], mu), CLI_POLICY)


def enumerated(kind: str, setting: str, mu, a_s, a_i, d_s, d_i, x_max: int):
    """`enumerate_rate` up to `x_max`: (value, tail bound)."""
    ora = enumerate_rate(PairSource(_KINDS[kind], mu), _ORACLE[setting],
                         DetectorModel(a_s, d_s), DetectorModel(a_i, d_i), x_max)
    return ora.value, ora.tail_bound
