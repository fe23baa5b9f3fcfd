"""End-to-end benchmark of the HERO reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload skills --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
layers' public entry points and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run manifest
with every result is written to ``.perfbench_out/`` (and, traced, the
spans as JSON lines).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_definition() -> dict:
    """``BENCHMARK.json``: the metric tables, each name with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def watch_engines(records: list) -> None:
    """Record every ``VectorEnv``'s fast-path verdict as it is built."""
    from repro.envs.vector_env import VectorEnv

    original = VectorEnv.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        records.append((self.fast_path, self.fallback_reason))

    VectorEnv.__init__ = init


def peak_rss_mb() -> float:
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def reap_processes() -> None:
    """Stop every process the run started and wait for each to end.

    ``multiprocessing`` starts a resource-tracker process the first time
    shared memory is created (the async workload's queues and parameter
    server) and leaves it to outlive the benchmark; stop it here, after
    joining any child still alive.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        reap_processes()


def run(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import manifest
    import metrics
    import tracing
    import workloads
    from serveload import SLOTS

    spec = load_definition()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = args.seed % 2**31
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    engines: list = []
    watch_engines(engines)
    ctx = workloads.Context(
        seed=seed,
        seconds=args.seconds,
        workdir=workdir,
        tracer=tracing.Tracer() if args.trace else None,
    )
    started = time.time()
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    except Exception as exc:  # e.g. an actor or socket error: the run fails
        traceback.print_exc()
        ctx.checks.check(False, f"workload raised {type(exc).__name__}: {exc}")
        print(json.dumps({
            "correct": False,
            "attempted": ctx.checks.attempted,
            "failed": ctx.checks.failed,
            "metrics": {},
        }))
        return 1
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for fast, reason in engines:
        ctx.checks.check(fast and reason is None, f"VectorEnv fast path ({reason})")
    checks = ctx.checks
    out["peak_rss_mb"] = peak_rss_mb()
    out["error_rate"] = checks.failed / max(checks.attempted, 1)

    if args.trace:
        values = metrics.per_layer(
            ctx.tracer, out, sum(not fast for fast, _ in engines), SLOTS
        )
        table = [(m["name"], m["unit"], values[m["name"]]) for m in spec["per_layer"]]
    else:
        table = [(m["name"], m["unit"], out[m["name"]]) for m in spec["end_to_end"]]
    reported = [(name, unit, out[name]) for name, unit, _ in metrics.REPORTED]
    run_manifest = manifest.collect(ROOT, args, seed, workloads)

    print(f"perfbench {args.workload} seed={seed} trace={args.trace}")
    for key in ("nproc", "cpu_model", "blas", "blas_threads", "dtype", "git_rev", "dirty"):
        print(f"  {key:<14} {run_manifest[key]}")
    for name, unit, value in table + reported:
        print(f"  {name:<42} {value:.6g} {unit}")
    print(f"  serve_p99_ms samples: {out['serve_samples']}")
    if not args.trace:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in out["raw"].items())
        print(f"  unscaled (host speed as measured): {raw}")
    if "overlap" in out:
        print(f"  overlap: {out['overlap']} (nproc={run_manifest['nproc']})")
    if args.trace:
        coverage = values["tracing.coverage"]
        print(f"  span coverage of training: {coverage:.1%} (aim >= 95%)")
        print(f"  tracing.overhead: {values['tracing.overhead']:+.1%}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")

    correct = checks.failed == 0 and all(math.isfinite(v) for _, _, v in table)
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    if ctx.tracer is not None:
        ctx.tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
    record = {
        "manifest": run_manifest,
        "started": started,
        "metrics": {name: value for name, _, value in table + reported},
        "details": {
            key: out[key]
            for key in (
                "episodes_per_s_passes", "raw_passes", "factors", "serve_samples", "raw", "table2",
                "overlap", "staleness",
            )
            if key in out
        },
        "failures": checks.failures,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, unit, value in table
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
