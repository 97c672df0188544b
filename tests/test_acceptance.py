"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Each criterion states its tolerance and, where relevant, its runtime
budget; the Monte-Carlo criterion dominates the wall time.
"""

import math
import time
from fractions import Fraction

import numpy as np

from biphoton import (
    DetectorModel,
    HplusModel,
    Objective,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TruncationPolicy,
    car,
    closed_form_rates,
    closed_form_rho,
    coincidence_rate,
    concurrence,
    enumerate_rate,
    mc_rate,
    optimize_mu,
    pmf_values,
    reconstruct,
    timebin_rate,
    truncation_index,
    visibility_approx,
    visibility_exact,
)
from biphoton.tomography import assemble_r

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)

# the oracle cross-check grid: settings per kind x mu x alpha x dark
GRID_SETTINGS = {
    SourceKind.DIS_ENTANGLED: (
        Setting.HH, Setting.HV, Setting.HPLUS,
        Setting.SINGLE_S, Setting.TIMEBIN_AA, Setting.TIMEBIN_AB,
    ),
    SourceKind.INDIS_ENTANGLED: (
        Setting.HH, Setting.HV, Setting.HPLUS,
        Setting.SINGLE_S, Setting.TIMEBIN_AA, Setting.TIMEBIN_AB,
    ),
    SourceKind.DIS_CORRELATED: (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED),
    SourceKind.THERMAL_CORRELATED: (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED),
}
GRID_MUS = (0.05, 0.2)
GRID_ALPHAS = (0.05, 0.5)
GRID_DARKS = (0.0, 1e-3)

MC_TRIALS = 10_000_000
MC_SEED_BASE = 20_260_815


def _grid_cells():
    for kind, settings in GRID_SETTINGS.items():
        for setting in settings:
            for mu in GRID_MUS:
                for alpha in GRID_ALPHAS:
                    for dark in GRID_DARKS:
                        yield kind, setting, mu, alpha, dark


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


def test_acceptance_01_visibility_anchors():
    t0 = time.perf_counter()
    vi = visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, 0.1), 0.1, 0.1).visibility
    vd = visibility_exact(PairSource(SourceKind.DIS_ENTANGLED, 0.1), 0.1, 0.1).visibility
    dt = time.perf_counter() - t0
    ok = abs(vi - 0.912) <= 0.002 and abs(vd - 0.908) <= 0.002 and dt < 1.0
    _report(1, ok, f"series visibilities {vi:.6f}/{vd:.6f} vs 0.912/0.908 "
                   f"(tol 0.002), {dt:.3f}s")


def test_acceptance_02_approx_holds_at_any_efficiency():
    t0 = time.perf_counter()
    mu = 0.1
    target = (mu + 2.0) / (3.0 * mu + 2.0)
    worst = max(
        abs(
            visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, mu), a, a).visibility
            - target
        )
        for a in np.linspace(0.01, 1.0, 100)
    )
    dt = time.perf_counter() - t0
    ok = worst <= 0.005 and dt < 5.0
    _report(2, ok, f"max |v_series - v_approx| = {worst:.5f} over 100 efficiencies "
                   f"in [0.01, 1] (tol 0.005), {dt:.2f}s")


def test_acceptance_03_closed_form_visibility_regression():
    ok = True
    for mu in (0.01, 0.1, 1.0, 10.0):
        d = visibility_approx(SourceKind.DIS_ENTANGLED, mu)
        i = visibility_approx(SourceKind.INDIS_ENTANGLED, mu)
        ok &= d.visibility == 1.0 / (1.0 + mu)
        ok &= d.contrast == 1.0 + 2.0 / mu
        ok &= i.visibility == (mu + 2.0) / (3.0 * mu + 2.0)
        ok &= i.contrast == 2.0 + 2.0 / mu
    _report(3, ok, "visibility/contrast closed forms reproduced to machine precision "
                   "on mu in {0.01, 0.1, 1, 10}")


def test_acceptance_04_tomography_closure():
    worst_m = worst_c = 0.0
    for kind in ENTANGLED:
        for mu in (0.01, 0.1, 0.3, 1.0):
            rho = reconstruct(assemble_r(kind, mu, 0.1, 0.1))
            want = closed_form_rho(kind, mu)
            worst_m = max(worst_m, float(np.max(np.abs(rho.matrix - want.matrix))))
            c = concurrence(rho)
            if kind is SourceKind.DIS_ENTANGLED:
                ref = max(0.0, (2.0 - mu) / (2.0 * (1.0 + mu)))
            else:
                ref = 2.0 / (2.0 + 3.0 * mu)
            worst_c = max(worst_c, abs(c - ref))
    c_dis = concurrence(reconstruct(assemble_r(SourceKind.DIS_ENTANGLED, 0.3, 0.1, 0.1)))
    c_ind = concurrence(reconstruct(assemble_r(SourceKind.INDIS_ENTANGLED, 0.3, 0.1, 0.1)))
    ok = (
        worst_m <= 1e-8
        and worst_c <= 1e-8
        and abs(c_dis - 0.653846) <= 1e-6
        and abs(c_ind - 0.689655) <= 1e-6
    )
    _report(4, ok, f"pipeline state error {worst_m:.2e} (tol 1e-8), concurrence error "
                   f"{worst_c:.2e} (tol 1e-8), anchors {c_dis:.6f}/{c_ind:.6f}")


def test_acceptance_05_car_anchors_and_gap():
    policy = TruncationPolicy()
    closed_d = car(PairSource(SourceKind.DIS_CORRELATED, 0.1), 1e-6, 1e-6,
                   method=RateMethod.CLOSED_FORM).car
    closed_t = car(PairSource(SourceKind.THERMAL_CORRELATED, 0.1), 1e-6, 1e-6,
                   method=RateMethod.CLOSED_FORM).car
    ok = abs(closed_d - 11.0) <= 1e-9 and abs(closed_t - 12.0) <= 1e-9
    a = 1e-4
    series_d = car(PairSource(SourceKind.DIS_CORRELATED, 0.1), a, a, 0, 0, policy).car
    series_t = car(PairSource(SourceKind.THERMAL_CORRELATED, 0.1), a, a, 0, 0, policy).car
    ok &= abs(series_d - closed_d) / closed_d <= 10 * a
    ok &= abs(series_t - closed_t) / closed_t <= 10 * a
    gap_lo, gap_hi = math.inf, -math.inf
    for mu in np.geomspace(0.01, 1.0, 9):
        src_t = PairSource(SourceKind.THERMAL_CORRELATED, float(mu))
        src_d = PairSource(SourceKind.DIS_CORRELATED, float(mu))
        gap = (car(src_t, 1e-3, 1e-3, 0, 0, policy).car
               - car(src_d, 1e-3, 1e-3, 0, 0, policy).car)
        gap_lo, gap_hi = min(gap_lo, gap), max(gap_hi, gap)
    ok &= 0.99 <= gap_lo and gap_hi <= 1.01
    _report(5, ok, f"closed CAR {closed_d:.3f}/{closed_t:.3f} vs 11/12, series gap "
                   f"{abs(series_d - closed_d) / closed_d:.1e} (tol {10 * a:.0e}), "
                   f"thermal-minus-poisson in [{gap_lo:.4f}, {gap_hi:.4f}] (want 1 +/- 0.01)")


def test_acceptance_06_moment_and_sum_identities():
    # the x^2-weighted tail scales like x_max^2 * epsilon, so certify a
    # tail small enough that the weighted remainder clears 1e-9
    policy = TruncationPolicy(tail_epsilon=1e-14, hard_cap=200)
    worst = 0.0
    for kind in (*ENTANGLED, *CORRELATED):
        for mu in (0.05, 0.2, 1.0):
            src = PairSource(kind, mu)
            x_max = truncation_index(src, policy)
            w = pmf_values(src, x_max)
            # E[x] = mu for every kind; E[x^2] = mu + mu^2 (Poisson),
            # mu + 1.5 mu^2 (NB(2), mean mu) and mu + 2 mu^2 (geometric)
            second = {
                SourceKind.INDIS_ENTANGLED: src.mu + 1.5 * src.mu * src.mu,
                SourceKind.THERMAL_CORRELATED: src.mu + 2.0 * src.mu * src.mu,
            }.get(kind, src.mu + src.mu * src.mu)
            worst = max(
                worst,
                abs(math.fsum(w) - 1.0),
                abs(math.fsum(x * v for x, v in enumerate(w)) - src.mu),
                abs(math.fsum(x * x * v for x, v in enumerate(w)) - second),
            )
    ok = worst <= 1e-9
    f = math.factorial
    exact = True
    for x in range(2, 31):
        lhs1 = sum(Fraction(x - y, f(y) * f(x - y - 1)) for y in range(x))
        rhs1 = Fraction(2 ** (x - 1) * x, f(x - 1)) - Fraction(2 ** (x - 2), f(x - 2))
        lhs2 = sum(Fraction(1, f(y - 1) * f(x - y - 1)) for y in range(1, x))
        rhs2 = Fraction(2 ** (x - 2), f(x - 2))
        lhs3 = sum(Fraction((x - y) ** 2, x + 1) for y in range(x + 1))
        lhs4 = sum(Fraction((x - y) * y, x + 1) for y in range(x + 1))
        exact &= (lhs1 == rhs1 and lhs2 == rhs2
                  and lhs3 == Fraction(x * (1 + 2 * x), 6)
                  and lhs4 == Fraction(x * (x - 1), 6))
    ok &= exact
    _report(6, ok, f"moment identities worst error {worst:.2e} (tol 1e-9); "
                   f"combinatorial identities exact for 2 <= x <= 30: {exact}")


def test_acceptance_07_enumeration_oracle_grid():
    t0 = time.perf_counter()
    policy = TruncationPolicy()
    worst_ratio = 0.0
    cells = 0
    for kind, setting, mu, alpha, dark in _grid_cells():
        src = PairSource(kind, mu)
        det = DetectorModel(alpha, dark)
        series = coincidence_rate(src, setting, det, det, policy).value
        ora = enumerate_rate(src, setting, det, det, 14)
        err = abs(series - ora.value)
        worst_ratio = max(worst_ratio, err / (1e-9 + ora.tail_bound))
        cells += 1
    ok = worst_ratio <= 1.0
    worst_gap = 0.0
    a = 1e-3
    det = DetectorModel(a)
    for mu in (0.01, 0.1, 0.5):
        src = PairSource(SourceKind.INDIS_ENTANGLED, mu)
        closed = closed_form_rates(SourceKind.INDIS_ENTANGLED, mu, a, a).r_hplus
        for model in HplusModel:
            got = coincidence_rate(src, Setting.HPLUS, det, det, policy, model).value
            worst_gap = max(worst_gap, abs(got - closed) / closed)
    ok &= worst_gap <= 10 * a
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _report(7, ok, f"{cells} cells, worst |series - oracle| at {worst_ratio:.3f} of "
                   f"(1e-9 + tail); diagonal-basis models within {worst_gap:.2e} of the "
                   f"closed form (tol {10 * a:.0e}); {dt:.1f}s (budget 60s)")


def test_acceptance_08_monte_carlo_grid():
    t0 = time.perf_counter()
    policy = TruncationPolicy()
    worst_z = 0.0
    worst_cell = None
    cells = []
    for idx, (kind, setting, mu, alpha, dark) in enumerate(_grid_cells()):
        src = PairSource(kind, mu)
        det = DetectorModel(alpha, dark)
        series = coincidence_rate(src, setting, det, det, policy).value
        est = mc_rate(src, setting, det, det, MC_TRIALS, MC_SEED_BASE + idx)
        se = max(est.std_error, math.sqrt(series * (1.0 - series) / MC_TRIALS))
        z = abs(est.mean - series) / se
        if z > worst_z:
            worst_z, worst_cell = z, (kind.value, setting.value, mu, alpha, dark)
        cells.append((src, setting, det, MC_SEED_BASE + idx, est))
    ok = worst_z <= 4.0
    # bit-level reproducibility of two representative grid cells
    for src, setting, det, seed, est in (cells[0], cells[-1]):
        again = mc_rate(src, setting, det, det, MC_TRIALS, seed)
        ok &= again.mean == est.mean and again.std_error == est.std_error
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    _report(8, ok, f"{len(cells)} cells at {MC_TRIALS:.0e} trials, worst z = {worst_z:.2f} "
                   f"(limit 4) at {worst_cell}; reruns bit-identical; {dt:.2f}s (budget 120s)")


def test_acceptance_09_timebin():
    ok = True
    for mu, a_s, a_i, d_s, d_i in ((0.2, 0.1, 0.1, 0.0, 0.0), (0.4, 0.3, 0.2, 1e-4, 2e-4)):
        acc = (mu * a_s / 4 + d_s) * (mu * a_i / 4 + d_i)
        dis = {
            TimebinPort.AA: mu * a_s * a_i / 8 + acc,
            TimebinPort.AB: acc,
            TimebinPort.APLUS: mu * a_s * a_i / 16 + acc,
        }
        dark = mu * a_s * d_i / 4 + mu * a_i * d_s / 4 + d_s * d_i
        indis = {
            TimebinPort.AA: (mu * mu / 8 + mu / 8) * a_s * a_i + dark,
            TimebinPort.AB: mu * mu * a_s * a_i / 16 + dark,
            TimebinPort.APLUS: (3 * mu * mu / 32 + mu / 16) * a_s * a_i + dark,
        }
        for kind, table in ((SourceKind.DIS_ENTANGLED, dis), (SourceKind.INDIS_ENTANGLED, indis)):
            for port, want in table.items():
                got = timebin_rate(kind, port, mu, a_s, a_i, d_s, d_i,
                                   RateMethod.CLOSED_FORM).value
                ok &= got == want
    worst = 0.0
    for kind in ENTANGLED:
        aa = timebin_rate(kind, TimebinPort.AA, 0.1, 0.01, 0.01).value
        hh = coincidence_rate(PairSource(kind, 0.1), Setting.HH,
                              DetectorModel(0.01), DetectorModel(0.01)).value
        worst = max(worst, abs(aa - hh / 4) / (hh / 4))
    ok &= worst <= 0.05
    _report(9, ok, f"closed forms exact, same-slot rate within {worst:.4f} of HH/4 (tol 0.05)")


def test_acceptance_10_dark_count_optimum():
    a, d = 0.01, 1e-5
    lo, hi = 1e-5, 1.0

    def grid_best(kind):
        best_mu, best_v = lo, -1.0
        for j in range(10_000):
            mu = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * j / 9_999)
            rep = closed_form_rates(kind, mu, a, a, d, d)
            v = (rep.r_hh - rep.r_hv) / (rep.r_hh + rep.r_hv)
            if v > best_v:
                best_mu, best_v = mu, v
        return best_mu

    ok = True
    rels = []
    for kind in ENTANGLED:
        res = optimize_mu(kind, a, a, d, d, Objective.MAX_VISIBILITY, (lo, hi))
        ref = grid_best(kind)
        rel = abs(res.mu - ref) / ref
        rels.append(rel)
        ok &= lo < res.mu < hi and rel <= 1e-3 and res.unimodal
        clean = optimize_mu(kind, a, a, 0.0, 0.0, Objective.MAX_VISIBILITY, (lo, hi))
        ok &= clean.mu == lo
    _report(10, ok, f"interior optimum vs 1e4-point grid scan: rel errors "
                    f"{rels[0]:.2e}/{rels[1]:.2e} (tol 1e-3); dark-free case returns "
                    f"the lower endpoint exactly")
