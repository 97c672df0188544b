"""Benchmark of biphoton: one workload, one seed, one run.

    python3 bench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

One client runs the workload's ops back to back in this process (a
closed loop), as many passes as take ``--seconds`` of op time at the
nominal host speed, and never fewer than 150 ops.  Every output is
then checked.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it first makes an untraced run in a fresh
process, then replays the same ops layer by layer under trace spans in
this fresh process, checks that the replay reproduces every number bit
for bit, and reports per-layer metrics.

End-to-end timings are reported at a nominal host speed: every op and
every set-up is bracketed by a fixed reference computation that does not
involve biphoton, and its time is scaled by the reference's nominal time
over the mean of the two reference times around it (see `hostspeed`).
The timings as measured are printed next to them.  The number of passes
depends only on ``--seconds``, so every run does the same work.

Every metric is printed by name with its unit, followed by the verdict;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Caches are
never warmed or cleared: each run is a fresh process, so cold-cache
costs land in the ops that trigger them, as they do for a CLI user.
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool, set before numpy is imported
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import adapter  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
MIN_OPS = 150
SETUP_RUNS = 11
# each workload's reference and its nominal time in seconds, and the op
# time of one pass at the nominal host speed, from which the pass count
# follows; all measured on a 2-vCPU Xeon guest
PACE = {"oracle-grid": (hostspeed.sampling, 0.0085, 6.0),
        "series-sweep": (hostspeed.interpreter, 0.0032, 0.21),
        "tomography-scan": (hostspeed.interpreter, 0.0032, 0.6)}
SETUP_PACE = (hostspeed.interpreter, 0.0032)

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}

_CALLS = ("distributions.truncation_index", "detection.click_prob",
          "polarization.per_x_coincidence", "polarization.coincidence_rate",
          "timebin.timebin_rate", "tomography.reconstruct", "oracle.enumerate_rate")
_MS = ("distributions.truncation_index", "distributions.pmf_values", "detection.click_prob",
       "polarization.per_x_coincidence", "polarization.coincidence_rate",
       "polarization.single_rate", "metrics.visibility_exact", "metrics.car",
       "metrics.optimize_mu", "timebin.timebin_rate", "tomography.assemble_r",
       "tomography.reconstruct", "tomography.concurrence", "oracle.mc_rate",
       "oracle.enumerate_rate")
_PLUS = "polarization.plus_port_distribution"
PER_LAYER = (
    {f"{s}.calls": "calls/op" for s in _CALLS}
    | {f"{s}.ms": "ms/op" for s in _MS}
    | {f"{_PLUS}.cold_calls": "calls/op", f"{_PLUS}.cold_ms": "ms/op",
       f"{_PLUS}.warm_ms": "ms/op", "distributions.series_terms": "terms/op",
       "oracle.mc_rate.trials": "trials/op", "oracle.mc_rate.ns_per_trial": "ns/trial",
       "oracle.mc.zero_pair_share": "share", "cli.main.calls": "calls/op",
       "cli.main.ms": "ms/op", "cli.output_bytes": "B/op", "trace.overhead_s": "s"}
)


def p90(samples: list[float]) -> float:
    """Harrell-Davis 90th percentile; with n >= 150 samples, at least 10 of
    them lie beyond it."""
    if len(samples) < MIN_OPS:
        raise ValueError(f"p90 needs at least {MIN_OPS} samples, got {len(samples)}")
    return hostspeed.quantile(samples, 0.9)


# the child reads the system-wide monotonic clock once its imports return,
# so neither its exit nor the parent's wake-up is counted
_SETUP_CHILD = "import biphoton, biphoton.cli, time; print(repr(time.monotonic()))"


def measure_setup(runs: int, pacer: hostspeed.Pacer) -> list[tuple[float, float]]:
    """(seconds as measured, nominal seconds) from spawning a fresh interpreter
    until `import biphoton, biphoton.cli` returns in it, for each of `runs` spawns."""
    env = dict(os.environ, PYTHONPATH=str(adapter.SRC))
    times = []
    for _ in range(runs):
        before = pacer.reference()
        t0 = time.monotonic()
        child = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=env, cwd=adapter.ROOT,
                               check=True, capture_output=True, text=True, timeout=60)
        elapsed = float(child.stdout) - t0
        times.append((elapsed, elapsed * pacer.scale(before, pacer.reference())))
    return times


def _timed(ops: list, pacer: hostspeed.Pacer) -> list:
    """Run ops back to back, with the reference timed before and after each.

    Returns one record (op, result, seconds as measured, nominal seconds)
    per op.
    """
    records = []
    before = pacer.reference()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = workloads.execute(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        elapsed = time.perf_counter() - t0
        after = pacer.reference()
        records.append((op, result, elapsed, elapsed * pacer.scale(before, after)))
        before = after
    return records


def pass_count(workload: str, seconds: float, ops_per_pass: int) -> int:
    """Passes that take `seconds` of op time at the nominal host speed, and at
    least MIN_OPS ops."""
    return max(math.ceil(MIN_OPS / ops_per_pass), round(seconds / PACE[workload][2]))


def run_ops(workload: str, seed: int, seconds: float, workdir: Path, pacer: hostspeed.Pacer):
    """The timed phase: the passes, then the reruns.

    Returns the records of the passes and of the reruns, and the number of
    passes.
    """
    first = workloads.generate(workload, seed, 0, workdir)
    n_passes = pass_count(workload, seconds, len(first))
    passes: list = []
    for index in range(n_passes):
        ops = workloads.generate(workload, seed, index, workdir) if index else first
        workloads.write_inputs(ops)
        passes += _timed(ops, pacer)
    return passes, _timed(workloads.reruns(workload, seed, workdir), pacer), n_passes


def _bits(result):
    if isinstance(result, dict):
        return tuple(float(v).hex() for v in result.values())
    return tuple(result)


def verify(records: list) -> list[str]:
    """Check every op; an op repeated with the same inputs must match bit for bit."""
    failures = []
    first = {}
    pooled = workloads.check_mc(records)
    for i, (op, result, *_) in enumerate(records):
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        elif i in pooled:
            problem = pooled[i]
        elif op.key in first:
            problem = None if _bits(result) == _bits(first[op.key]) else "rerun differs"
        else:
            first[op.key] = result
            try:
                problem = workloads.check(op, result)
            except Exception as exc:  # a malformed output fails its op
                problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"op {i} ({op.label}): {problem}")
    return failures


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "threads": THREAD_ENV}


def _print_metrics(metrics: dict, units: dict, notes: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name:48s} {value:14.6g} {unit}{notes.get(name, '')}")
        out[name] = {"value": value, "unit": unit}
    return out


def _verdict(failures: list[str], attempted: int) -> None:
    for line in failures[:20]:
        print("FAILED", line)
    print(f"verdict: {'correct' if not failures else 'INCORRECT'}, "
          f"{len(failures)} of {attempted} ops failed")


def untraced(args, workdir: Path) -> dict:
    work, nominal_s, _ = PACE[args.workload]
    pacer = hostspeed.Pacer(work, nominal_s)
    setup_pacer = hostspeed.Pacer(*SETUP_PACE)
    # half the set-ups before the timed phase and half after, so the
    # median samples the machine over the whole run
    setups = measure_setup(SETUP_RUNS // 2, setup_pacer)
    timed, reruns, passes = run_ops(args.workload, args.seed, args.seconds, workdir, pacer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += measure_setup(SETUP_RUNS - SETUP_RUNS // 2, setup_pacer)
    records = timed + reruns
    failures = verify(records)
    n, k = len(records), len(timed)
    speed = statistics.median(pacer.samples) / nominal_s
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {passes} passes and "
          f"{len(reruns)} reruns; reference at {speed:.3f} x its nominal time "
          f"(median of {len(pacer.samples)})")

    def summary(nominal: bool) -> dict:
        ms = [(scaled if nominal else elapsed) * 1e3 for _, _, elapsed, scaled in timed]
        return {"setup_s": statistics.median(setup[nominal] for setup in setups),
                "ops_per_s": k / sum(ms) * 1e3, "op_p50_ms": hostspeed.quantile(ms, 0.5),
                "op_p90_ms": p90(ms)}

    print("as measured:", ", ".join(f"{name} {value:.6g}"
                                    for name, value in summary(False).items()))
    metrics = summary(True) | {"peak_rss_mb": rss_mb}
    beyond = sum(scaled * 1e3 > metrics["op_p90_ms"] for *_, scaled in timed)
    notes = {"setup_s": f"  (median of {SETUP_RUNS} fresh interpreters)",
             "op_p50_ms": f"  ({k} samples)",
             "op_p90_ms": f"  ({k} samples, {beyond} beyond it)"}
    printed = _print_metrics(metrics, END_TO_END, notes)
    _verdict(failures, n)
    if args.dump:
        cli_ops = [(op, res, lat) for op, res, lat, _ in records
                   if isinstance(op, workloads.CliOp)]
        args.dump.write_text(json.dumps({
            "passes": passes,
            "latency_s": [lat for _, _, lat, _ in records],
            "results": [{"error": repr(res)} if isinstance(res, Exception) else res
                        for _, res, _, _ in records],
            "failed": len(failures),
            "cli": {"calls": len(cli_ops), "ms": sum(lat for _, _, lat in cli_ops) * 1e3,
                    "bytes": sum(len(res[1].encode()) for _, res, _ in cli_ops
                                 if not isinstance(res, Exception))},
        }))
    return {"correct": not failures, "attempted": n, "failed": len(failures),
            "metrics": printed}


def _layer_metrics(tr: Tracer, n: int, cli: dict, overhead_s: float) -> dict:
    totals = tr.totals()

    def calls(span):
        return totals.get(span, {}).get("calls", 0) / n

    def ms(span):
        return totals.get(span, {}).get("ns", 0) / 1e6 / n

    trials = tr.counts["oracle.mc_rate.trials"]
    out = {f"{s}.calls": calls(s) for s in _CALLS} | {f"{s}.ms": ms(s) for s in _MS}
    out |= {
        f"{_PLUS}.cold_calls": calls(_PLUS + ".cold"),
        f"{_PLUS}.cold_ms": ms(_PLUS + ".cold"),
        f"{_PLUS}.warm_ms": ms(_PLUS + ".warm"),
        "distributions.series_terms": tr.counts["distributions.series_terms"] / n,
        "oracle.mc_rate.trials": trials / n,
        "oracle.mc_rate.ns_per_trial":
            totals.get("oracle.mc_rate", {}).get("ns", 0) / trials if trials else 0.0,
        "oracle.mc.zero_pair_share":
            tr.counts["oracle.mc.zero_pair_trials"] / trials if trials else 0.0,
        "cli.main.calls": cli["calls"] / n,
        "cli.main.ms": cli["ms"] / n,
        "cli.output_bytes": cli["bytes"] / n,
        "trace.overhead_s": overhead_s,
    }
    return out


def _print_shares(tr: Tracer, labels: list[str]) -> None:
    """Where each kind of op spends its replay time, by layer self time."""
    for label, by_name in sorted(tr.self_ns_by_label(labels).items()):
        total = sum(by_name.values())
        top = ", ".join(f"{name} {ns / total:.1%}" for name, ns in by_name.most_common(4))
        print(f"self-time share in {label} ops ({total / 1e9:.2f} s): {top}")


def traced(args, workdir: Path) -> dict:
    dump = workdir / "untraced.json"
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--dump", str(dump)],
        capture_output=True, text=True, timeout=175)
    if child.returncode != 0:
        sys.stderr.write(child.stdout + child.stderr)
        raise SystemExit(f"the untraced run exited with {child.returncode}")
    data = json.loads(dump.read_text())
    ops = [op for i in range(data["passes"])
           for op in workloads.generate(args.workload, args.seed, i, workdir)]
    ops += workloads.reruns(args.workload, args.seed, workdir)
    if len(ops) != len(data["results"]):
        raise SystemExit("the replay does not see the ops the untraced run made")

    tr = Tracer()
    mismatches = []
    for i, (op, result) in enumerate(zip(ops, data["results"])):
        if "error" in result:
            continue
        tr.op = i
        with tr.span("op"):
            want, got = workloads.replay(op, result, tr)
        if [float(v).hex() for v in want] != [float(v).hex() for v in got]:
            mismatches.append(f"op {i} ({op.label}): replay differs from the entry point")
    traced_s = sum(end - start for _, _, _, name, start, end in tr.spans if name == "op") / 1e9
    overhead_s = traced_s - sum(data["latency_s"])
    n = len(ops)
    print(f"workload {args.workload}, seed {args.seed}: replayed {n} ops traced, "
          f"{len(tr.spans)} spans, {traced_s:.2f} s traced vs "
          f"{sum(data['latency_s']):.2f} s untraced")
    printed = _print_metrics(_layer_metrics(tr, n, data["cli"], overhead_s), PER_LAYER, {})
    _print_shares(tr, [op.label for op in ops])
    spans_path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
    tr.write(spans_path)
    print(f"spans written to {spans_path.relative_to(adapter.ROOT)}")
    failed = data["failed"] + len(mismatches)
    print(f"untraced run: {data['failed']} failed ops; replay: {len(mismatches)} mismatches")
    _verdict(mismatches, n)
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": printed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    print("meta", json.dumps({"machine": machine(), "design": adapter.design_size()}))
    if args.dump:
        result = untraced(args, args.dump.parent)
    else:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            result = (traced if args.trace else untraced)(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
