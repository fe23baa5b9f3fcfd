#!/usr/bin/env python
"""CI perf gate: fail when hot-path microbenchmarks regress.

Compares a ``pytest --benchmark-json`` results file against a baseline and
exits non-zero when any gated benchmark's mean time slowed down by more
than the threshold (default 30%).

Usage (from the repository root)::

    # the gated pytest node ids this checkout defines, one per line
    python benchmarks/check_regression.py --node-ids

    # produce results
    PYTHONPATH=src python -m pytest $(python benchmarks/check_regression.py --node-ids) \
        -q --benchmark-only --benchmark-json=bench.json

    # gate against the committed reference baseline
    python benchmarks/check_regression.py bench.json

    # refresh the baseline (run on the reference machine)
    python benchmarks/check_regression.py bench.json --update-baseline

In CI the baseline is regenerated from the merge base on the same runner
(see .github/workflows/ci.yml), so the comparison is machine-consistent;
the committed ``perf_baseline.json`` serves local development, where
absolute times are only comparable on similar hardware.  Both CI steps
take their node ids from ``--node-ids``, so ``GATED_BENCHMARKS`` below is
the one list of gated benchmarks; at an older merge base it prints only
the ones that checkout defines.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# The hot-path guards: one scalar env step, one optimiser-in-the-loop MLP
# step, one vectorized env step, one batched baseline act/step/observe
# cycle, one batched greedy-evaluation act/step cycle, one fused update
# round (HERO team + skill + IDQN through core.update_engine), one async
# actor-learner round trip (parameter-snapshot publish/read +
# transition-payload put/get through the shared-memory plumbing), one
# 2-actor merge round through the ActorFanIn round-robin (the
# staleness fan-out drain), one full-slot micro-batched inference
# pass of the serving stack (32 client slots through one stacked
# forward), the same fused update round at --dtype float32 (guards
# the mixed-precision speedup: a float32-only regression — e.g. a
# silent float64 upcast — moves this gate without moving the float64
# one), and one cross-family fused update round each for MADDPG and
# MAAC (the actor-through-critic VJP engines — guards the stacked
# ReLU kernels and the attention-critic fast paths).  Each name (the
# pytest test name, and the key in perf_baseline.json) maps to the file
# under benchmarks/ that defines it.
GATED_BENCHMARKS = {
    "test_env_step_throughput": "bench_substrates.py",
    "test_mlp_forward_backward": "bench_substrates.py",
    "test_vector_env_step": "bench_vector_rollout.py",
    "test_baseline_vector_cycle": "bench_baseline_rollout.py",
    "test_eval_vector_cycle": "bench_eval_rollout.py",
    "test_update_engine_cycle": "bench_update_phase.py",
    "test_update_engine_cycle_f32": "bench_update_phase.py",
    "test_update_engine_cycle_maddpg": "bench_update_phase.py",
    "test_update_engine_cycle_maac": "bench_update_phase.py",
    "test_actor_learner_roundtrip": "bench_actor_learner.py",
    "test_actor_fanin_roundtrip": "bench_actor_learner.py",
    "test_inference_batch_cycle": "bench_inference_service.py",
}
DEFAULT_BASELINE = Path(__file__).resolve().parent / "perf_baseline.json"
DEFAULT_THRESHOLD = 0.30


def gated_node_ids(root: Path = Path(".")) -> list[str]:
    """``benchmarks/<file>::<name>`` for each gated benchmark that the
    checkout at ``root`` defines (a merge base may predate some)."""
    node_ids = []
    for name, filename in GATED_BENCHMARKS.items():
        path = root / "benchmarks" / filename
        if path.is_file() and re.search(
            rf"^def {name}\(", path.read_text(), re.MULTILINE
        ):
            node_ids.append(f"benchmarks/{filename}::{name}")
    return node_ids


def load_means(path: Path) -> dict[str, float]:
    """Extract {benchmark name: mean seconds} from either file format.

    Accepts both the raw ``--benchmark-json`` output and the compact
    baseline format this script writes.
    """
    if not path.exists():
        raise SystemExit(f"{path}: no such file (run pytest with --benchmark-json?)")
    with open(path) as handle:
        payload = json.load(handle)
    if "benchmarks" not in payload:
        raise SystemExit(f"{path}: not a benchmark results file")
    benches = payload["benchmarks"]
    if isinstance(benches, dict):  # compact baseline format
        return {name: entry["mean"] for name, entry in benches.items()}
    means = {}
    for bench in benches:  # pytest-benchmark format
        means[bench["name"]] = bench["stats"]["mean"]
    return means


def write_baseline(means: dict[str, float], path: Path) -> None:
    gated = {
        name: {"mean": mean}
        for name, mean in sorted(means.items())
        if name in GATED_BENCHMARKS
    }
    payload = {
        "note": (
            "Reference means (seconds) for the CI perf gate; refresh with "
            "check_regression.py <results.json> --update-baseline"
        ),
        "benchmarks": gated,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", type=Path, nargs="?", help="pytest --benchmark-json output"
    )
    parser.add_argument(
        "--node-ids",
        action="store_true",
        help="print the gated pytest node ids defined in the current "
        "directory's checkout, one per line, and exit",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown (0.30 = fail beyond +30%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the gated means from RESULTS into the baseline and exit",
    )
    args = parser.parse_args(argv)

    if args.node_ids:
        node_ids = gated_node_ids()
        if not node_ids:
            print("no gated benchmark found under ./benchmarks", file=sys.stderr)
            return 1
        print("\n".join(node_ids))
        return 0
    if args.results is None:
        parser.error("RESULTS is required unless --node-ids is given")

    current = load_means(args.results)
    if args.update_baseline:
        write_baseline(current, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load_means(args.baseline)
    failures = []
    print(f"{'benchmark':32s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}")
    for name in GATED_BENCHMARKS:
        if name not in baseline:
            print(f"{name:32s} {'--':>10s} {'--':>10s}  (not in baseline, skipped)")
            continue
        if name not in current:
            failures.append(f"{name}: missing from results (benchmark removed?)")
            continue
        ratio = current[name] / baseline[name]
        verdict = "" if ratio <= 1.0 + args.threshold else "  << REGRESSION"
        print(
            f"{name:32s} {baseline[name] * 1e6:8.1f}us {current[name] * 1e6:8.1f}us "
            f"{ratio:6.2f}x{verdict}"
        )
        if ratio > 1.0 + args.threshold:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(limit {1.0 + args.threshold:.2f}x)"
            )
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
