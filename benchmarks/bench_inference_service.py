"""Inference-service throughput: micro-batched serving vs per-request loop.

Not a paper table — this is the latency/throughput guard for the PR 7
serving stack.  The paper frames HERO as a distributed *online*
decision-maker (each vehicle queries its policy every step), so decision
throughput is the metric: with 32 concurrent clients, a
:class:`repro.PolicyServer` that fuses requests into one stacked forward
(``max_batch_size=32``) must answer **at least 3x** faster than the same
serving stack handling one request per forward (``max_batch_size=1`` —
the per-request scalar loop), with p50/p99 latency reported.  Both servers
answer in alternating paired windows
(``bench_update_phase._time_rounds_paired``) and the assert reads the
median paired ratio.

``test_inference_batch_cycle`` records the per-cycle cost of one
full-slot batched inference pass for the CI perf gate
(``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
from bench_update_phase import _time_rounds_paired

from repro import HeroTeam, PolicyServer, TrainingConfig, load_policy, train_hero
from repro.config import ScenarioConfig
from repro.envs import CooperativeLaneChangeEnv, VectorEnv
from repro.serving import split_hero_batch
from repro.serving.server import HeroPolicySession

N_CLIENTS = 32
TARGET_SPEEDUP = 3.0
ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_ROUNDS", "30"))


def _make_checkpoint(tmp_path: str) -> str:
    """A lightly-trained team checkpoint (serving-realistic weights)."""
    scenario = ScenarioConfig(episode_length=30)
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
    path = os.path.join(tmp_path, "team.npz")
    train_hero(
        env, team, episodes=2, config=config, eval_every=0, checkpoint_path=path
    )
    return path


def _slot_requests(scenario: ScenarioConfig, num_slots: int) -> list:
    """One representative observation request per client slot."""
    vec_env = VectorEnv(num_slots, scenario=scenario)
    obs = vec_env.reset(list(range(num_slots)))
    return split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading)


def _run_clients(server: PolicyServer, requests: list, rounds: int):
    """32 client threads, round-synchronised; returns (seconds, latencies)."""
    barrier = threading.Barrier(len(requests) + 1)
    latencies: list[list[float]] = [[] for _ in requests]

    def client(slot: int) -> None:
        for _ in range(rounds):
            barrier.wait()
            t0 = time.perf_counter()
            server.submit(requests[slot])
            latencies[slot].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(len(requests))
    ]
    for t in threads:
        t.start()
    start = time.perf_counter()
    for _ in range(rounds):
        barrier.wait()  # release one synchronized round of requests
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return elapsed, np.array([v for per_slot in latencies for v in per_slot])


def test_serving_throughput_vs_scalar(tmp_path):
    """The ISSUE 7 acceptance check: >= 3x micro-batched throughput at 32
    concurrent clients, p50/p99 reported.

    Both sides run the identical serving stack — queue, futures, session —
    differing only in ``max_batch_size`` (32 vs 1), so the ratio isolates
    what micro-batching buys.  Like the other wall-clock benches, the
    ratio is report-only under ``CI`` (shared runners are noisy; absolute
    regressions are caught by the perf-gate job) and a hard assert
    locally.
    """
    path = _make_checkpoint(str(tmp_path))
    policy = load_policy(path)
    requests = _slot_requests(policy.scenario, N_CLIENTS)

    def server(batch: int) -> PolicyServer:
        return PolicyServer(
            load_policy(path), num_slots=N_CLIENTS,
            max_batch_size=batch, max_wait_us=500.0,
        )

    # One call serves ROUNDS synchronised rounds of 32 requests.  The
    # batched side gets TARGET_SPEEDUP times the calls so both halves of a
    # window span comparable wall time at the target ratio.
    total = N_CLIENTS * ROUNDS
    batched_calls = int(TARGET_SPEEDUP)
    with server(1) as scalar, server(N_CLIENTS) as batched:
        speedup, scalar_s, batched_s = _time_rounds_paired(
            lambda: _run_clients(scalar, requests, ROUNDS),
            lambda: _run_clients(batched, requests, ROUNDS),
            1,
            rounds_b=batched_calls,
        )
        _, latencies = _run_clients(batched, requests, ROUNDS)

    p50, p99 = np.percentile(latencies, [50, 99])
    print(
        f"\nbatched: {total * batched_calls / batched_s:.0f} req/s "
        f"(p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms) | "
        f"per-request: {total / scalar_s:.0f} req/s | "
        f"{speedup:.2f}x (median paired ratio)"
    )
    if os.environ.get("CI"):
        if speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_SPEEDUP}x target "
                "(report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_SPEEDUP, (
        f"micro-batched serving only {speedup:.2f}x over the per-request "
        f"loop (need >= {TARGET_SPEEDUP}x, median paired ratio): "
        f"{batched_s:.3f}s for {total * batched_calls} vs {scalar_s:.3f}s "
        f"for {total} requests from {N_CLIENTS} clients"
    )


def test_inference_batch_cycle(benchmark, tmp_path):
    """One full-slot batched inference pass (32 slots) for the perf gate."""
    path = _make_checkpoint(str(tmp_path))
    policy = load_policy(path)
    session = HeroPolicySession(policy.controller, N_CLIENTS)
    requests = _slot_requests(policy.scenario, N_CLIENTS)
    session.act(requests)  # warm: first pass selects every slot's option

    benchmark(lambda: session.act(requests))


def test_served_actions_match_reference_sample(tmp_path):
    """Cheap liveness cross-check that the benched path answers with the
    reference greedy actions (the full parity matrix lives in
    tests/test_serving.py)."""
    from repro.core.batched import BatchedHeroRunner

    path = _make_checkpoint(str(tmp_path))
    scenario = load_policy(path).scenario
    vec_env = VectorEnv(4, scenario=scenario)
    runner = BatchedHeroRunner(load_policy(path).controller, vec_env)
    obs = vec_env.reset([0, 1, 2, 3])
    ref = runner.act(obs, epsilon=0.0, explore=False)
    session = HeroPolicySession(load_policy(path).controller, 4)
    served = session.act(split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading))
    assert np.array_equal(ref, np.stack(served))
