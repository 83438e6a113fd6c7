"""Benchmark entry point: one workload per process, one JSON result line.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

The run generates the workload's inputs from ``--seed`` in a child
process, sets up several times, measures for ``--seconds`` seconds and
checks the outputs. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0``. Under ``--trace 1``
the run measures half its time untraced and half traced, and reports the
per-layer metrics plus the tracing overhead. The line before it holds
the details: environment, corpus shape, input hashes, the metrics under
their workload-specific names, and any failed check. Work files go to
``.bench_work/`` under the repository root; the package's stderr
(graph diagnostics are logged one per edge) goes to a file there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train", "generate", "atlas")
BLAS_THREADS = 1          # closed loop, one caller: no BLAS thread fan-out
SETUP_REPEATS = 3
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_items_per_s", "1/s"),
    ("main_call_p50_ms", "ms"),
    ("side_items_per_s", "1/s"),
)


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _hash_inputs(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def make_inputs(workload: str, seed: int, out: str) -> None:
    """Write the workload's inputs in a child process, so the generator's
    memory never counts toward this process's peak."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "corpus.py"),
         "--workload", workload, "--seed", str(seed), "--out", out],
        check=True, timeout=600, stdout=subprocess.DEVNULL,
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads
    from layers import UNITS, layer_metrics
    from tracing import Tracer

    work = os.path.join(ROOT, ".bench_work", f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    make_inputs(workload, seed, inputs)
    with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    run = workloads.WORKLOADS[workload]

    def context(secs, repeats, tracer=None):
        return workloads.Context(inputs=inputs, work=work, seed=seed, seconds=secs,
                                 setup_repeats=repeats, tracer=tracer)

    tracer = None
    with open(os.path.join(work, "stderr.log"), "w", encoding="utf-8") as err, \
            contextlib.redirect_stderr(err):
        if trace:
            ctx_u = context(seconds / 2, 1)
            untraced = run(ctx_u)
            tracer = Tracer()
            tracer.install()
            try:
                ctx = context(seconds / 2, 1, tracer)
                result = run(ctx)
            finally:
                tracer.uninstall()
            ctx.attempted += ctx_u.attempted
            ctx.failed += ctx_u.failed
            ctx.failures += ctx_u.failures
            tracer.write(os.path.join(work, "spans.tsv"))
            values = layer_metrics(tracer, result, untraced)
            metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        else:
            ctx = context(seconds, SETUP_REPEATS)
            result = run(ctx)
            result["e2e"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {name: {"value": float(result["e2e"][name]), "unit": unit}
                       for name, unit in E2E}

    detail = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": _environment(seed),
        "inputs": info,
        "inputs_sha256": _hash_inputs(inputs),
        "named_metrics": result["named"],
        "shape": result["shape"],
        "unscaled_metrics": result["unscaled"],
        "samples": {name: [[round(t, 6), round(c, 6)] for t, c in ctx.pairs(name)]
                    for name in ctx.samples},
        "failures": ctx.failures,
        "absent_trace_targets": tracer.absent if tracer else [],
    }
    line = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": line}, fh, indent=1, sort_keys=True)
    return detail, line


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    lines = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(out[-1])
        print(json.dumps({"workload": name, **lines[name]}, sort_keys=True))
    for name, line in lines.items():
        for metric, mv in sorted(line["metrics"].items()):
            print(f"{name:9s} {metric:52s} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{n}.{m}": mv for n, v in lines.items() for m, mv in v["metrics"].items()},
    }, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ifthen benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "ifthen", "__init__.py")):
        print(f"bench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import ifthen

    if not os.path.abspath(ifthen.__file__).startswith(SRC + os.sep):
        print(f"bench: imported ifthen from {ifthen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    detail, line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
