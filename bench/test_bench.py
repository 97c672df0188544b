"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import random

import pytest

import adapter
import hostspeed
import run
import workloads
from tracing import Tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_in_the_seed(workload, tmp_path):
    first = [workloads.generate(workload, 7, i, tmp_path) for i in range(3)]
    again = [workloads.generate(workload, 7, i, tmp_path) for i in range(3)]
    other = [workloads.generate(workload, 8, i, tmp_path) for i in range(3)]
    assert first == again
    assert first != other
    assert first[0] != first[1]
    assert workloads.reruns(workload, 7, tmp_path) == workloads.reruns(workload, 7, tmp_path)


@pytest.mark.parametrize("n", range(run.MIN_OPS, 400))
def test_p90_leaves_ten_samples_beyond_it(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    cut = run.p90(samples)
    assert sum(s > cut for s in samples) >= 10
    assert abs(sum(s <= cut for s in samples) - 0.9 * n) <= 0.03 * n


def test_p90_refuses_fewer_than_min_ops_samples():
    with pytest.raises(ValueError):
        run.p90([1.0] * (run.MIN_OPS - 1))


def test_quantile_moves_smoothly_across_a_gap_between_clusters():
    # 115 ops at 7 ms and 13 at 8 ms, as in one oracle-grid pass: the
    # nearest-rank p90 sits at the gap and jumps by 1 ms when one op
    # crosses it; the Harrell-Davis estimate moves by a small fraction
    low, high = [7.0] * 115, [8.0] * 13
    before = hostspeed.quantile(low + high, 0.9)
    after = hostspeed.quantile(low[1:] + high + [8.0], 0.9)
    assert 7.0 < before < after < 8.0
    assert after - before < 0.2


def test_quantile_of_equal_samples_is_that_value():
    assert hostspeed.quantile([3.5] * 200, 0.5) == pytest.approx(3.5, rel=1e-12)


def test_scaling_reports_latency_at_the_nominal_reference_time():
    pacer = hostspeed.Pacer(hostspeed.interpreter, nominal_s=0.002)
    # a host twice as slow as nominal: references took 4 ms around the op
    assert 0.1 * pacer.scale(0.004, 0.004) == pytest.approx(0.05)
    assert pacer.reference() > 0 and len(pacer.samples) == 1


def test_pass_count_depends_only_on_seconds():
    assert run.pass_count("oracle-grid", 30, 128) == round(30 / run.PACE["oracle-grid"][2])
    assert run.pass_count("tomography-scan", 1, 10) * 10 >= run.MIN_OPS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_replay_reproduces_entry_points_bit_for_bit(workload, tmp_path):
    ops = workloads.generate(workload, 3, 0, tmp_path)
    if workload == "oracle-grid":
        ops = [dataclasses.replace(op, trials=20_000) for op in ops[::7]]
    workloads.write_inputs(ops)
    tr = Tracer()
    for i, op in enumerate(ops):
        # the replay reads results back from JSON, as a traced run does
        result = json.loads(json.dumps(workloads.execute(op)))
        tr.op = i
        want, got = workloads.replay(op, result, tr)
        assert [float(v).hex() for v in want] == [float(v).hex() for v in got], op
    assert tr.totals()


def test_checks_pass_on_real_output_and_catch_a_wrong_rate(tmp_path):
    ops = workloads.generate("series-sweep", 5, 0, tmp_path)
    op = next(op for op in ops if op.command == "timebin" and op.params["port"] == "aa")
    code, text, err = workloads.execute(op)
    assert workloads.check(op, (code, text, err)) is None
    header, columns, rows = adapter.parse_csv(text)
    rate = float(rows[0][1])
    bad = text.replace(rows[0][1], format(rate + 1e-9, ".17g"), 1)
    assert "enumeration" in workloads.check(op, (code, bad, err))
    assert "header" in workloads.check(op, (code, text.replace("# alpha_s=", "# alpha_s=1"), err))


def test_verify_flags_a_rerun_that_differs(tmp_path):
    cell = workloads.generate("oracle-grid", 1, 0, tmp_path)[0]
    good = {"series": 0.1, "enum": 0.1, "tail": 0.0, "mc_mean": 0.1, "mc_se": 1e-3}
    assert run.verify([(cell, good, 0.0, 0.0), (cell, dict(good), 0.0, 0.0)]) == []
    differs = run.verify([(cell, good, 0.0, 0.0),
                          (cell, dict(good, mc_mean=0.1000001), 0.0, 0.0)])
    assert len(differs) == 1 and "rerun differs" in differs[0]
    far = run.verify([(cell, dict(good, mc_mean=0.2), 0.0, 0.0)])
    assert len(far) == 1 and "z =" in far[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((adapter.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
