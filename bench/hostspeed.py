"""Host-speed references and the quantile estimator of the end-to-end metrics.

On a shared host the CPU's speed changes from second to second and from
minute to minute as other tenants load it: a fixed Python loop ran 2.6 to
3.7 million iterations per second over eight consecutive seconds on a
2-vCPU Xeon guest, and the mean cell time of the oracle grid moved by 20%
between 20-second windows.  That drift moves every timing of a run.

So every op is bracketed by a short fixed computation that does not
involve biphoton (a *reference*), and the op's latency is scaled by the
reference's nominal time over the mean of the two reference times around
it: the latency the op would have had on a host where the reference takes
its nominal time.  Each workload uses a reference of the same kind of
work as its hot path, because a slow-down hits array code and interpreter
code differently.  On that guest, bracketing cut the spread of the oracle
grid's 20-second window means from 9% to 3%; with the quantile estimator
below and a pass count fixed by the run length, the spread of the
end-to-end timings over ten runs fell from 5-22% to 1-5%.
"""

from __future__ import annotations

import math
import time

import numpy as np

_A = np.random.default_rng(7).random((16, 16))
_B = np.arange(16.0)


def sampling() -> None:
    """Random draws, masks and counts over 2e5-element arrays, as in Monte-Carlo sampling."""
    rng = np.random.default_rng(12345)
    pairs = rng.poisson(0.3, 200_000)
    u = rng.random(200_000)
    hist = np.bincount(pairs[u < 0.7])
    if not int(hist.sum()) + int(np.count_nonzero(pairs * u > 0.1)) > 0:
        raise AssertionError("sampling reference broke")


def interpreter() -> None:
    """Exact sums in interpreted loops and 16x16 linear algebra, as in series sums,
    CLI parsing and tomography."""
    total = 0.0
    for n in range(2, 72):
        total += math.fsum(math.comb(n, k) * 0.5 ** n for k in range(n + 1))
    for _ in range(20):
        total += float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
        total += float(np.linalg.eigvalsh(_A + _A.T)[0])
    if not math.isfinite(total):
        raise AssertionError("interpreter reference broke")


class Pacer:
    """Times a reference and scales latencies to the host speed where it takes `nominal_s`."""

    def __init__(self, work, nominal_s: float) -> None:
        self.work = work
        self.nominal_s = nominal_s
        self.samples: list[float] = []

    def reference(self) -> float:
        t0 = time.perf_counter()
        self.work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor from seconds as measured between two reference times to nominal seconds."""
        return 2.0 * self.nominal_s / (before + after)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    It is a mean of all order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) mass over each one's rank interval.  A workload's op times
    cluster by op kind, and a plain order statistic jumps from one
    cluster to the next when noise swaps two ops across its rank (13%
    at the oracle grid's p90); this estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    if n == 0 or a <= 1.0 or b <= 1.0:
        raise ValueError(f"too few samples ({n}) for the {p} quantile")
    steps = 64
    t = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps])
    return float(weights @ x / weights.sum())
