"""What ``BENCHMARK.json`` cannot hold, and the per-layer computation.

``BENCHMARK.json`` defines the gated end-to-end metrics and the per-layer
metrics.  ``REPORTED`` are printed and recorded with every result but not
gated: their spread across seeds does not fit a regression bound (see
``perfbench/README.md``).  ``MOVES`` names, for each per-layer metric, the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import numpy as np

# name, unit, what it is
REPORTED = [
    ("eval_reward", "reward", "greedy/deterministic episode reward after training"),
    ("collision_rate", "ratio", "HERO collision rate (Table 2 row on team)"),
    ("serve_p50_ms", "ms", "decision latency median at the nominal rate"),
    ("serve_p99_ms", "ms", "decision latency p99 at the nominal rate"),
    ("socket_p50_ms", "ms", "one-connection round trip through the socket"),
    ("peak_rss_mb", "MB", "peak resident memory of the process and its children"),
    ("error_rate", "ratio", "failed checks and requests over attempted"),
]

_SKILLS = "skills episodes_per_s"
_TEAM = "team episodes_per_s"
_ASYNC = "async episodes_per_s"
_SERVE = "every workload serve_p50_ms (reported)"
_QUEUE = "every workload serve_p99_ms (reported)"

MOVES = {
    "envs.skill_envs.step.calls": _SKILLS,
    "envs.skill_envs.step.self_s": _SKILLS,
    "core.low_level.act.calls": _SKILLS,
    "core.low_level.act.self_s": _SKILLS,
    "core.update_engine.sac.calls": _SKILLS,
    "core.update_engine.sac.self_s": _SKILLS,
    "core.update_engine.sac.useful_ratio": _SKILLS,
    "training.replay.push.self_s": _SKILLS,
    "training.replay.sample.self_s": _SKILLS,
    "core.update_engine.hero.calls": "team and async episodes_per_s",
    "core.update_engine.hero.self_s": "team and async episodes_per_s",
    **{
        f"core.update_engine.{m}.{k}": _TEAM
        for m in ("idqn", "coma", "maddpg", "maac")
        for k in ("calls", "self_s")
    },
    "envs.vector_env.step.calls": _TEAM,
    "envs.vector_env.step.self_s": _TEAM,
    "envs.vector_env.fallbacks": _TEAM,
    "envs.wrappers.step.calls": _TEAM,
    "envs.wrappers.step.self_s": _TEAM,
    "envs.testbed.step.self_s": _TEAM,
    "core.batched.act.calls": _TEAM,
    "core.batched.act.self_s": _TEAM,
    "core.batched.after_step.calls": _TEAM,
    "core.batched.after_step.self_s": _TEAM,
    "baselines.act_batch.self_s": _TEAM,
    "baselines.observe_batch.self_s": _TEAM,
    "core.trainer.evaluate.self_s": _TEAM,
    "baselines.evaluate.self_s": _TEAM,
    "core.low_level.train_skill.self_s": _TEAM,
    "serving.checkpoint.save_s": "none gated: deploy time, every workload",
    "serving.checkpoint.load_s": "none gated: deploy time, every workload",
    "serving.session.act.calls": _SERVE,
    "serving.session.act.self_s": _SERVE,
    "serving.flush_size.mean": _QUEUE,
    "serving.batch_fill": _QUEUE,
    "serving.queue_wait.p50_ms": _QUEUE,
    "serving.queue_wait.p99_ms": _QUEUE,
    "serving.socket.overhead_ms": "every workload socket_p50_ms (reported)",
    "load.late_ms": "none: generator lateness, never claimed",
    "distributed.fanin.get.calls": _ASYNC,
    "distributed.fanin.get.wait_s": _ASYNC,
    "distributed.param_server.publish.calls": _ASYNC,
    "distributed.param_server.publish.self_s": _ASYNC,
    "distributed.queue.get.self_s": _ASYNC,
    "distributed.staleness.mean": _ASYNC,
    "tracing.overhead": "none: traced over untraced run time",
    "tracing.coverage": "none: traced span coverage of training",
}


def per_layer(tracer, out: dict, fallbacks: int, slots: int) -> dict:
    """Every ``MOVES`` metric's value from the traced run's spans and outputs.

    Totals cover the traced training pass and the serving after it; layers
    a workload does not run read 0.
    """
    since, train_end = out["train_window"]
    totals = tracer.totals(since)
    values: dict[str, float] = {}
    # ``<span>.calls`` and ``<span>.self_s`` read the span's totals; the
    # metrics defined otherwise are overwritten below.
    for name in MOVES:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            values[name] = totals.get(span, {"calls": 0, "self_s": 0.0})[kind]

    sac = [
        s for s in tracer.spans
        if s.name == "core.update_engine.sac" and s.start >= since
    ]
    values["core.update_engine.sac.useful_ratio"] = (
        sum(1 for s in sac if not s.note) / len(sac) if sac else 0.0
    )
    values["envs.vector_env.fallbacks"] = fallbacks

    values["serving.checkpoint.save_s"] = out["save_s"]
    values["serving.checkpoint.load_s"] = out["load_s"]
    flushes = [
        s for s in tracer.spans
        if s.name == "serving.session.act" and s.start >= since
    ]
    open_loop = [s for s in flushes if s.start < out["socket_start"]]
    socket = [s for s in flushes if s.start >= out["socket_start"]]
    sizes = [len(s.rid) for s in open_loop]
    values["serving.flush_size.mean"] = float(np.mean(sizes)) if sizes else 0.0
    values["serving.batch_fill"] = values["serving.flush_size.mean"] / slots
    submitted = out["submitted"]
    waits = [
        (s.start - submitted[rid]) * 1e3
        for s in open_loop
        for rid in map(tuple, s.rid)
        if rid in submitted
    ]
    values["serving.queue_wait.p50_ms"] = _pct(waits, 50)
    values["serving.queue_wait.p99_ms"] = _pct(waits, 99)
    trips = out["socket_trips"]
    overhead = [t - s.duration * 1e3 for t, s in zip(trips, socket)]
    values["serving.socket.overhead_ms"] = _pct(overhead, 50)
    values["load.late_ms"] = out["late_ms"]

    # Payload decode is a child span, so the fan-in's self time is waiting.
    values["distributed.fanin.get.wait_s"] = totals.get(
        "distributed.fanin.get", {"self_s": 0.0}
    )["self_s"]
    values["distributed.queue.get.self_s"] = totals.get(
        "distributed.queue.decode", {"self_s": 0.0}
    )["self_s"]
    values["distributed.staleness.mean"] = out.get("staleness", 0.0)

    values["tracing.overhead"] = out["tracing_overhead"]
    values["tracing.coverage"] = (
        tracer.covered_s(since, train_end) / (train_end - since)
    )
    return values


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
