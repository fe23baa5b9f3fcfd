"""Span tracer that wraps the program's public entry points from outside.

Only the traced run (``--trace 1``) installs it; untraced runs call the
program untouched.  Each wrapper records one span per call: name, start,
end, parent span (the innermost open span on the same thread) and an
optional request id.  Spans stay in memory and are written out as JSON
lines when the run ends.  A span's self time is its duration minus the
time its child spans cover; because spans on one thread nest strictly,
the summed self time of all spans equals the wall time they cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pickle
import threading
import time
from collections import defaultdict


class Span:
    """One timed call.  ``rid`` ties the spans of one serve request."""

    __slots__ = ("name", "start", "end", "parent", "rid", "note", "child_s")

    def __init__(self, name: str, start: float, parent, rid=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.note = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        # slot -> round of the serve request currently in flight on it.
        self.inflight: dict[int, int] = {}
        self.enabled = True
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None, rid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, rid=None) -> Span:
        """Add a finished span measured by the caller (no parent)."""
        span = Span(name, start, None, rid)
        span.end = end
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced
        call.  ``name`` is a span name or a callable of the call's
        arguments returning one; ``on_result(span, args, result)`` may
        annotate the span after the call returns."""
        original = vars(owner)[attr]
        namer = name if callable(name) else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(namer(args) if namer else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    @contextlib.contextmanager
    def paused(self):
        """Call through untraced: for the harness's own use of the layers."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self, since: float) -> dict[str, dict]:
        """Per-name ``calls`` and ``self_s`` of spans started at or after
        ``since``."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span in self.spans:
            if span.start >= since:
                out[span.name]["calls"] += 1
                out[span.name]["self_s"] += span.self_s
        return out

    def covered_s(self, start: float, end: float) -> float:
        """Wall time inside [start, end] covered by top-level spans (one
        thread's: the training loops run on the main thread)."""
        covered = 0.0
        for span in self.spans:
            if span.parent is not None:
                continue
            lo, hi = max(span.start, start), min(span.end, end)
            if hi > lo:
                covered += hi - lo
        return covered

    def write(self, path: str) -> None:
        ids = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for k, span in enumerate(self.spans):
                row = {
                    "id": k,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                }
                if span.rid is not None:
                    row["rid"] = span.rid
                fh.write(json.dumps(row) + "\n")


def paused(tracer: Tracer | None):
    """``tracer.paused()``, or nothing to pause in an untraced run."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


class _TracedPickle:
    """Stand-in for the ``pickle`` module inside one module: ``loads`` is
    traced, everything else forwards to the real module."""

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def loads(self, data, *args, **kwargs):
        if not self._tracer.enabled:
            return pickle.loads(data, *args, **kwargs)
        span = self._tracer.open(self._name)
        try:
            return pickle.loads(data, *args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, attr):
        return getattr(pickle, attr)


_ENGINE_NAMES = {
    "heroteam": "hero",
    "sacagent": "sac",
    "independentdqn": "idqn",
    "coma": "coma",
    "maddpg": "maddpg",
    "maac": "maac",
}


def engine_span_name(args) -> str:
    kind = type(args[0].target).__name__.lower()
    return f"core.update_engine.{_ENGINE_NAMES.get(kind, kind)}"


def _note_starved(span: Span, args, result) -> None:
    # SAC updates return None when the buffer is too small to sample.
    span.note = result is None


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.baselines import base as baselines_base
    from repro.baselines.coma import COMA
    from repro.baselines.idqn import IndependentDQN
    from repro.baselines.maac import MAAC
    from repro.baselines.maddpg import MADDPG
    from repro.core import batched, low_level, trainer
    from repro.core.update_engine import UpdateEngine
    from repro.distributed import actor_learner, queues
    from repro.distributed.parameter_server import ParameterServer
    from repro.envs import skill_envs, testbed, vector_env, wrappers
    from repro.experiments import common
    from repro.serving.server import HeroPolicySession
    from repro.training.replay import ReplayBuffer

    wrap = tracer.wrap
    for cls in (skill_envs.LaneKeepingEnv, skill_envs.LaneChangeEnv):
        wrap(cls, "step", "envs.skill_envs.step")
    wrap(low_level.SACAgent, "act", "core.low_level.act")
    wrap(UpdateEngine, "update", engine_span_name, on_result=_note_starved)
    wrap(ReplayBuffer, "push", "training.replay.push")
    wrap(ReplayBuffer, "sample", "training.replay.sample")
    # train_skill is called through the name trainer.py imported.
    wrap(trainer, "train_skill", "core.low_level.train_skill")

    wrap(vector_env.VectorEnv, "step", "envs.vector_env.step")
    wrap(wrappers.VectorBaselineEnv, "step", "envs.wrappers.step")
    wrap(testbed.RealWorldTestbed, "step", "envs.testbed.step")
    wrap(batched.BatchedHeroRunner, "act", "core.batched.act")
    wrap(batched.BatchedHeroRunner, "after_step", "core.batched.after_step")
    for cls in (baselines_base.MARLAlgorithm, IndependentDQN, COMA, MADDPG, MAAC):
        for attr in ("act_batch", "observe_batch"):
            if attr in vars(cls):
                wrap(cls, attr, f"baselines.{attr}")
    # Evaluators are module functions called through imported names, so
    # each importing module's binding is wrapped.
    for module in (trainer, common, actor_learner):
        wrap(module, "evaluate_hero_vectorized", "core.trainer.evaluate")
    for module in (trainer, common):
        wrap(module, "evaluate_hero", "core.trainer.evaluate")
    for module in (baselines_base, common, actor_learner):
        wrap(module, "evaluate_marl_vectorized", "baselines.evaluate")
    for module in (baselines_base, common):
        wrap(module, "evaluate_marl", "baselines.evaluate")

    def note_flush(span: Span, args, result) -> None:
        # A slot has at most one request in flight, so the round the load
        # generator last submitted for it names the request being served.
        span.rid = [(tracer.inflight.get(r.slot), r.slot) for r in args[1]]

    wrap(HeroPolicySession, "act", "serving.session.act", on_result=note_flush)

    wrap(queues.ActorFanIn, "get", "distributed.fanin.get")
    wrap(ParameterServer, "publish", "distributed.param_server.publish")
    tracer._undo.append((queues, "pickle", queues.pickle))
    queues.pickle = _TracedPickle(tracer, "distributed.queue.decode")
