"""The perf gate's one list of gated microbenchmarks (``--node-ids``)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "check_regression.py"


def node_ids(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--node-ids"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_node_ids_cover_every_gated_benchmark_in_this_checkout():
    out = node_ids(ROOT)
    assert out.returncode == 0, out.stderr
    ids = out.stdout.split()
    assert len(ids) == 12
    for node_id in ids:
        path, name = node_id.split("::")
        assert f"def {name}(" in (ROOT / path).read_text()


def test_node_ids_keep_only_what_an_older_checkout_defines(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "bench_substrates.py").write_text(
        "def test_env_step_throughput(benchmark):\n    pass\n"
    )
    (bench / "bench_update_phase.py").write_text(
        "def test_update_engine_cycle(benchmark):\n    pass\n"
        "# test_update_engine_cycle_f32 is only mentioned here\n"
    )
    out = node_ids(tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "benchmarks/bench_substrates.py::test_env_step_throughput",
        "benchmarks/bench_update_phase.py::test_update_engine_cycle",
    ]


def test_node_ids_fail_without_any_gated_benchmark(tmp_path):
    out = node_ids(tmp_path)
    assert out.returncode == 1
    assert out.stdout == ""
