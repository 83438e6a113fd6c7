"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py          # inputs and metric declarations
    python3 bench/selfcheck.py --run    # also short runs of every workload

Checks that the same seed gives byte-identical inputs for every
workload, that ``BENCHMARK.json`` declares exactly the metrics the runs
print, with the same units, and (with ``--run``) that every run's last
line carries every declared metric with its unit and no failed
operation. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402


def _digests(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_inputs(seed: int, scratch: str) -> list[str]:
    problems = []
    for workload in run.WORKLOAD_NAMES:
        digests = []
        for copy in ("a", "b"):
            out = os.path.join(scratch, f"{workload}-{copy}")
            run.make_inputs(workload, seed, out)
            digests.append(_digests(out))
        if digests[0] != digests[1]:
            problems.append(f"{workload}: seed {seed} gave different inputs twice")
        print(f"inputs {workload}: {len(digests[0])} files, identical={digests[0] == digests[1]}")
    return problems


def check_declarations(spec: dict) -> list[str]:
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != dict(run.E2E):
        problems.append(f"end_to_end {e2e} != printed {dict(run.E2E)}")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, unit, _ in PER_LAYER}
    if per_layer != printed:
        problems.append("per_layer differs from layers.PER_LAYER: "
                        f"{sorted(set(per_layer) ^ set(printed))}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("workload names differ from run.WORKLOAD_NAMES")
    print(f"declarations: {len(e2e)} end-to-end, {len(per_layer)} per-layer metrics")
    return problems


def check_runs(spec: dict, seed: int) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            line = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(line)}")
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ from {key}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload} trace={trace}: {line['failed']} failed")
            print(f"run {workload} trace={trace}: {len(got)} metrics, "
                  f"attempted {line['attempted']}, failed {line['failed']}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--run", action="store_true", help="also make short runs")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    scratch = os.path.join(ROOT, ".bench_work", "selfcheck")
    shutil.rmtree(scratch, ignore_errors=True)
    problems = check_declarations(spec) + check_inputs(args.seed, scratch)
    if args.run:
        problems += check_runs(spec, args.seed)
    for p in problems:
        print("FAIL:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
