"""``run_jobs``: independent jobs side by side on the usable CPUs.

Placement is fixed for the first W jobs (job 0 in this process, job k in
child k), results come back in job order wherever a job ran, and every
failure path (a child that raises, a child that dies, an exception here)
names the job and leaves no child process behind.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.utils import jobs
from repro.utils.jobs import Job, run_jobs, usable_cpus


def _pid_after(seconds: float, index: int) -> tuple:
    time.sleep(seconds)
    return index, os.getpid()


def _raise(message: str):
    raise ValueError(message)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _run_in_worker(job_list):
    return run_jobs(job_list)


def _die_leaving_a_grandchild():
    """Start a grandchild (it inherits this worker's end of the result
    pipe), then die in the middle of the nested jobs."""
    run_jobs([Job("kill", _kill_self), Job("grandchild", _pid_after, (5.0, 0))])


@pytest.fixture
def cpus(monkeypatch):
    """Pretend this process may run on ``n`` CPUs."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


def test_usable_cpus_reads_the_affinity_set(cpus):
    cpus(3)
    assert usable_cpus() == 3


def test_first_placements_are_fixed_and_results_in_job_order(cpus):
    cpus(3)
    parent = os.getpid()
    results = run_jobs(
        [Job(f"job {i}", _pid_after, (0.3 if i == 0 else 0.0, i)) for i in range(3)]
    )
    assert [index for index, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == parent
    assert len(set(pids)) == 3  # jobs 1 and 2 each ran in their own child
    assert mp.active_children() == []


@pytest.mark.parametrize("slow", ["parent", "child"])
def test_jobs_past_the_first_w_land_anywhere_in_order(cpus, slow):
    """With a slow job 0 the child claims the rest; with a slow job 1 this
    process does.  Either way the results come back in job order."""
    cpus(2)
    parent = os.getpid()
    delays = [1.0, 0.0] if slow == "parent" else [0.0, 1.0]
    job_list = [Job("job 0", _pid_after, (delays[0], 0)),
                Job("job 1", _pid_after, (delays[1], 1))]
    job_list += [Job(f"job {i}", _pid_after, (0.0, i)) for i in range(2, 8)]
    results = run_jobs(job_list)
    assert [index for index, _ in results] == list(range(8))
    pids = [pid for _, pid in results]
    assert pids[0] == parent and pids[1] != parent
    claimed_by_parent = sum(pid == parent for pid in pids[2:])
    if slow == "parent":
        assert claimed_by_parent < 6  # the child claimed some of the tail
    else:
        assert claimed_by_parent > 0  # this process claimed some of the tail
    assert mp.active_children() == []


def test_child_exception_names_the_job_with_its_traceback(cpus):
    cpus(2)
    with pytest.raises(RuntimeError, match="'boom'") as info:
        run_jobs([
            Job("fine", _pid_after, (0.0, 0)),
            Job("boom", _raise, ("injected job failure",)),
        ])
    assert "ValueError: injected job failure" in str(info.value)
    assert "Traceback" in str(info.value)
    assert mp.active_children() == []


def test_claimed_job_failure_names_that_job(cpus):
    """A job past the first W that fails in the child is named too."""
    cpus(2)
    with pytest.raises(RuntimeError, match="'third'") as info:
        run_jobs([
            Job("first", _pid_after, (2.0, 0)),
            Job("second", _pid_after, (0.0, 1)),
            Job("third", _raise, ("late failure",)),
        ])
    assert "ValueError: late failure" in str(info.value)
    assert mp.active_children() == []


def test_child_killed_mid_job_names_the_job_and_exit_code(cpus):
    cpus(2)
    with pytest.raises(RuntimeError, match="'killed'") as info:
        run_jobs([Job("fine", _pid_after, (0.0, 0)), Job("killed", _kill_self)])
    assert f"code {-signal.SIGKILL}" in str(info.value)
    assert mp.active_children() == []


def test_dead_child_is_seen_while_its_grandchild_holds_the_pipe(cpus):
    """The child's death is noticed at once, not when the grandchild that
    shares its end of the pipe finally exits."""
    cpus(2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="'dies'") as info:
        run_jobs([Job("fine", _pid_after, (0.0, 0)), Job("dies", _die_leaving_a_grandchild)])
    assert time.perf_counter() - start < 4.0
    assert f"code {-signal.SIGKILL}" in str(info.value)
    assert mp.active_children() == []


def test_parent_exception_terminates_the_children(cpus):
    cpus(2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent side"):
        run_jobs([
            Job("parent", _raise, ("parent side",)),
            Job("long", _pid_after, (60.0, 1)),
        ])
    assert time.perf_counter() - start < 30.0
    assert mp.active_children() == []


def test_one_usable_cpu_runs_in_process(cpus, monkeypatch):
    cpus(1)

    def no_children(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(jobs.mp, "get_context", no_children)
    results = run_jobs([Job(f"job {i}", _pid_after, (0.0, i)) for i in range(3)])
    assert results == [(i, os.getpid()) for i in range(3)]


def test_daemonic_worker_runs_in_process():
    """A pool worker (daemonic, may not start children) runs every job
    itself, in order."""
    ctx = mp.get_context()
    job_list = [Job(f"job {i}", _pid_after, (0.0, i)) for i in range(3)]
    with ctx.Pool(1) as pool:
        results = pool.apply(_run_in_worker, (job_list,))
    pool.join()
    assert [index for index, _ in results] == [0, 1, 2]
    assert len({pid for _, pid in results}) == 1
    assert results[0][1] != os.getpid()
    assert mp.active_children() == []
