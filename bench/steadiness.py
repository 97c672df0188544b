"""Steadiness record: run every workload with several seeds and record spreads.

    python3 bench/steadiness.py --runs 10 --out bench/baseline.json

Each run is `BENCHMARK.json`'s command with one seed; seeds are
``--first-seed``, ``--first-seed + 1``, ...  For every end-to-end metric
the record keeps the values, their median and quartiles, and the spread
(q3 - q1) / median next to the metric's bound.  With ``--trace`` it also
makes one traced run per workload and keeps its per-layer metrics and
self-time shares.  The machine block, the design size and the git commit
go with it, so the file is the baseline a later change is compared to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def _git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--trace", action="store_true", help="add one traced run each")
    parser.add_argument("--note", action="append", default=[], help="text kept in the record")
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"git_sha": _git_sha(), "command": spec["command"],
              "run_seconds": spec["run_seconds"], "runs": args.runs,
              "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "notes": args.note, "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        ops = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, lines = _run(spec, workload, seed, 0)
            if not result["correct"]:
                print("\n".join(lines[-25:]))
                steady = False
            ops.append(result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if "meta" not in record:
                record["meta"] = json.loads(lines[0].split(" ", 1)[1])
        entry = {"ops_per_run": ops, "end_to_end": {}}
        for name, vals in values.items():
            stats = _spread(vals) | {"bound": bounds[name]}
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] <= bounds[name] / 3 else "  WIDE"
            steady &= not flag
            print(f"{workload:16s} {name:12s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:7.2%} bound {bounds[name]:.0%}{flag}")
        if args.trace:
            result, lines = _run(spec, workload, args.first_seed, 1)
            entry["traced"] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "shares": [ln for ln in lines if ln.startswith("self-time share")],
            }
            print("\n".join(entry["traced"]["shares"]))
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
