"""Run independent jobs side by side, one worker process per usable CPU.

:func:`run_jobs` is the one place the program fans work that shares no
state out to child processes: Algorithm 2's two skills
(:func:`repro.core.trainer.train_low_level_skills`), the methods of a
training sweep (:func:`repro.experiments.common.train_all_methods`) and
each method's Table 2 / Fig. 11 scoring.  Every caller's result is
bitwise the one of running its jobs one after the other, because each
job builds what it touches from its arguments and shares no state with
the others.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Callable, NamedTuple

from ..nn.tensor import get_default_dtype, set_default_dtype

_POLL_S = 0.1  # how often a waiting parent checks that a child is alive


class Job(NamedTuple):
    """``fn(*args)``, named in errors.  ``fn`` is a module-level function,
    so a ``spawn`` or ``forkserver`` child can import it."""

    name: str
    fn: Callable
    args: tuple = ()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # no affinity API off Linux
        return os.cpu_count() or 1


def run_jobs(jobs) -> list:
    """Run ``jobs`` on ``W = min(len(jobs), usable_cpus())`` workers and
    return their results in job order.

    Placement: this process runs job 0 and child ``k`` starts on job
    ``k`` (``0 < k < W``), so the first ``W`` placements are fixed; after
    its first job every worker claims the next unclaimed one from a shared
    counter.  Put the longest job first: it runs here while the children
    share out the rest.  Children use the platform's default start method
    (fork on Linux), replay this process's compute dtype, and are not
    daemonic, so a job may start processes of its own (a nested
    :func:`run_jobs`, async actors).  A child sends its results once,
    after its last job.

    With one usable CPU, or inside a daemonic process (a
    ``multiprocessing.Pool`` worker, which may not start children), the
    jobs run here, in order.

    A child that raises or dies raises ``RuntimeError`` here naming its
    job, with the child's traceback or exit code.  An exception here
    terminates the children; every child is joined on every path.
    """
    jobs = list(jobs)
    workers = min(len(jobs), usable_cpus())
    if workers <= 1 or mp.current_process().daemon:
        return [job.fn(*job.args) for job in jobs]

    ctx = mp.get_context()
    next_job = ctx.Value("i", workers)  # jobs below it are claimed
    running = ctx.Array("i", range(workers), lock=False)  # each child's job
    float_dtype = get_default_dtype().name
    results = [None] * len(jobs)
    children, receivers = [], []
    try:
        for slot in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            receivers.append(receiver)
            with sender:  # the child holds its own end
                child = ctx.Process(
                    target=_worker_main,
                    args=(sender, float_dtype, jobs, slot, next_job, running),
                    name=f"repro-job-{jobs[slot].name}",
                    daemon=False,
                )
                child.start()
            children.append(child)
        for index in _claimed(0, next_job, len(jobs)):
            results[index] = jobs[index].fn(*jobs[index].args)
        for slot, (child, receiver) in enumerate(zip(children, receivers), 1):
            reply = _reply(child, receiver)
            if reply is None:
                child.join()
                raise RuntimeError(
                    f"job {jobs[running[slot]].name!r}: its worker process "
                    f"exited with code {child.exitcode} before sending its result"
                )
            if reply[0] != "ok":
                raise RuntimeError(
                    f"job {jobs[running[slot]].name!r} failed in its worker "
                    f"process:\n{reply[1]}"
                )
            for index, value in reply[1].items():
                results[index] = value
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for receiver in receivers:
            receiver.close()
    return results


def _claimed(first: int, next_job, total: int):
    """Job indices one worker runs: ``first``, then each one it claims."""
    index = first
    while True:
        yield index
        with next_job.get_lock():
            index = next_job.value
            if index >= total:
                return
            next_job.value = index + 1


def _reply(child, receiver):
    """The child's one message, or ``None`` if it exited without one.

    Polls rather than blocking in ``recv``: a grandchild forked by the
    child inherits the child's end of the pipe, so a child that died does
    not always close it."""
    while not receiver.poll(_POLL_S):
        if not child.is_alive():
            if not receiver.poll():
                return None
            break
    try:
        return receiver.recv()
    except EOFError:
        return None


def _worker_main(sender, float_dtype: str, jobs: list, slot: int, next_job, running) -> None:
    """Child ``slot`` of :func:`run_jobs`: run job ``slot``, then claim more.

    ``float_dtype`` replays the parent's compute dtype (a spawned
    interpreter starts at the float64 default).  Sends
    ``("ok", {index: result})`` once, or ``("error", traceback)``;
    ``running[slot]`` names the job in either case.
    """
    try:
        set_default_dtype(float_dtype)
        results = {}
        for index in _claimed(slot, next_job, len(jobs)):
            running[slot] = index
            results[index] = jobs[index].fn(*jobs[index].args)
        sender.send(("ok", results))
    except Exception:
        sender.send(("error", traceback.format_exc()))
    finally:
        sender.close()
