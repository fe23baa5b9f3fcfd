"""The three workloads: skills, team and async.

Every workload is a train -> checkpoint -> serve journey through the
public API; the training phase differs:

* ``skills`` -- Algorithm 2 (both SAC skills, fused updates).  The skills
  are scored deterministically, then a HERO team over them (untrained
  high level) is checkpointed and served.
* ``team`` -- Algorithm 1 plus the four baselines at ``--num-envs 8
  --fused-updates`` and the Table 2 testbed, then HERO is served.
* ``async`` -- HERO Algorithm 1 on the actor-learner stack (one actor,
  staleness 2), then HERO is served.

Each workload repeats its fixed-budget training pass while the next pass
fits in 75% of ``--seconds`` and reports the median rate; the rest of the
time serves.  The traced run instead makes an untraced warm-up pass, an
untraced reference pass and a traced pass, all on the same seed; the
last two's ratio is the tracing overhead.  Every gated time is scaled to the reference host speed
(see ``hostspeed``); untraced runs sample the host's speed throughout
their set-ups and training passes.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from repro import (
    HeroTeam,
    TrainingConfig,
    load_policy,
    make_baseline,
    save_checkpoint,
    train_hero,
    train_low_level_skills,
)
from repro.core import BatchedHeroRunner, SkillLibrary, UpdateEngine, train_skill
from repro.distributed import ParameterServer, ShmRingQueue
from repro.envs import (
    CooperativeLaneChangeEnv,
    LaneChangeEnv,
    LaneKeepingEnv,
    VectorEnv,
    low_level_obs_dim,
    make_baseline_env,
    make_baseline_vector_env,
)
from repro.experiments.common import METHOD_NAMES, bench_scenario, train_all_methods
from repro.experiments.table2 import run_table2
from repro.utils.seeding import episode_reset_seeds

import tracing
from hostspeed import Speedometer
from serveload import record_rollout, serve_phase

NUM_ENVS = 8
SKILL_FLOOR = 10  # episodes per skill: the experiment harness's minimum
SKILL_EPISODES = 20  # per skill, per skills pass
TEAM_SCALE = 0.008  # of Table I's 14,000 episodes: 112 per method
ASYNC_EPISODES = 96
EVAL_EPISODES = 10  # deterministic scoring episodes per skill
RECORD_STEPS = 200  # recorded rounds; longer loads wrap around
TRAIN_SHARE = 0.75  # of --seconds on training workloads; the rest serves
# Set-ups per run, median reported: cheap ones repeat more to steady it.
SETUPS = {"skills": 25, "team": 9, "async": 25}


@dataclass
class Checks:
    """Correctness checks, counted into the error rate."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def finite_series(self, logger, label: str) -> None:
        """Every logged loss and reward must be finite."""
        for name in logger.names():
            if any(key in name for key in ("loss", "reward", "_nll")):
                ok = bool(np.isfinite(logger.values(name)).all())
                self.check(ok, f"{label} {name} finite")


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: str
    tracer: tracing.Tracer | None = None
    checks: Checks = field(default_factory=Checks)
    speed: Speedometer = field(default_factory=Speedometer)

    def ticking(self):
        """Sample the host's speed while the block runs; not in the traced
        run, where the samples would be charged to the open spans."""
        if self.tracer is None:
            return self.speed.ticking()
        return contextlib.nullcontext()


def sub_seed(seed: int, k: int) -> int:
    """Seed of pass ``k``; pass 0 runs on the workload seed itself."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def setup_times(ctx: Context, setup, count: int) -> list:
    """``count`` runs of ``setup(seed)``, each in seconds at the reference
    speed."""
    times = []
    with ctx.ticking():
        for _ in range(count):
            ctx.speed.sample()
            start = time.perf_counter()
            setup(ctx.seed)
            end = time.perf_counter()
            times.append(ctx.speed.at_reference(start, end))
        ctx.speed.sample()
    return times


def training_config(seed: int, episodes: int = 1, **overrides) -> TrainingConfig:
    """``--num-envs 8 --fused-updates`` on the benchmark scenario, with the
    exploration schedule the experiment harness gives HERO."""
    config = TrainingConfig(seed=seed, num_envs=NUM_ENVS, fused_updates=True)
    for key, value in overrides.items():
        setattr(config, key, value)
    config.scenario = bench_scenario()
    config.epsilon_start = 0.4
    config.epsilon_end = 0.05
    config.epsilon_decay_episodes = max(episodes // 2, 1)
    config.entropy_coef = 0.02
    return config


def hero_team(config: TrainingConfig, skill_state: dict, seed: int) -> HeroTeam:
    """A HERO team over skills loaded from ``skill_state`` (fresh RNGs)."""
    skills = SkillLibrary(
        low_level_obs_dim(config.scenario),
        np.random.default_rng(seed),
        hyper=config.hyper,
    )
    skills.load_state_dict(skill_state)
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)
    return HeroTeam(
        env, np.random.default_rng(seed), hyper=config.hyper, skills=skills,
        lr=2e-3, batch_size=128,
    )


def floor_skills(ctx: Context, seed: int) -> dict:
    """Algorithm 2 at the harness's floor budget; returns the skill state."""
    skills, logger = train_low_level_skills(training_config(seed), episodes=SKILL_FLOOR)
    ctx.checks.finite_series(logger, "floor skills")
    return skills.state_dict()


def deploy(ctx: Context, team: HeroTeam, label: str) -> dict:
    """Checkpoint ``team``, load it back and record the rollout to replay."""
    path = os.path.join(ctx.workdir, f"{label}.npz")
    _, save_s = timed(
        lambda: save_checkpoint(
            path, team, scenario=team.env.scenario, rewards=team.env.rewards,
            hyper=team.hyper,
        )
    )
    _, load_s = timed(load_policy, path)
    gc.collect()  # loaded teams hold reference cycles
    # The recording stands in for the clients' own envs: harness work.
    with tracing.paused(ctx.tracer):
        rec = record_rollout(path, ctx.seed, RECORD_STEPS)
    gc.collect()
    return {"path": path, "rec": rec, "save_s": save_s, "load_s": load_s}


def serve(ctx: Context, deployed: dict, seconds: float) -> dict:
    served = serve_phase(deployed["path"], deployed["rec"], seconds, ctx.tracer)
    ctx.checks.count(served["attempted"], served["failed"], "serve requests")
    served["save_s"] = deployed["save_s"]
    served["load_s"] = deployed["load_s"]
    served["serve_collision_rate"] = float(np.mean(deployed["rec"].collisions))
    return served


def training_passes(ctx: Context, run_pass) -> dict:
    """Run ``run_pass(k)`` as the module docstring describes; returns the
    median rate, the tracing overhead and the first pass's outputs.  A
    pass returns its episode count and the ``window`` it trained in."""
    speed = ctx.speed

    def rate(result) -> float:
        return result["episodes"] / speed.at_reference(*result["window"])

    if ctx.tracer is not None:
        passes = []
        for k in range(3):  # warm-up (the first pass runs cold), reference, traced
            if k == 2:
                tracing.install(ctx.tracer)
            speed.sample()
            passes.append(run_pass(0))
            speed.sample()
            gc.collect()
        _, reference, traced = passes
        return {
            "episodes_per_s": rate(traced),
            "tracing_overhead": rate(reference) / rate(traced) - 1.0,
            "train_window": traced["window"],
            "raw_passes": [p["window"][1] - p["window"][0] for p in passes],
            "first": reference,
        }
    budget = ctx.seconds * TRAIN_SHARE
    first = None
    rates, raw, factors = [], [], []
    start = time.perf_counter()
    with ctx.ticking():
        while True:
            speed.sample()
            result = run_pass(len(rates))
            first = first or result  # later passes' objects are dropped
            speed.sample()
            rates.append(rate(result))
            lo, hi = result["window"]
            raw.append(result["episodes"] / (hi - lo))
            # Each kernel's ratio alone, to refit MEMORY_SHARE from results.
            factors.append([speed.factor(lo, hi, share) for share in (0.0, 1.0)])
            del result
            gc.collect()  # free this pass's cyclic garbage before the next
            elapsed = time.perf_counter() - start
            if elapsed * (len(rates) + 1) / len(rates) > budget:
                break
    return {
        "episodes_per_s": statistics.median(rates),
        "episodes_per_s_passes": rates,
        "raw_passes": raw,
        "factors": factors,
        "raw": {"episodes_per_s": statistics.median(raw)},
        "first": first,
    }


# ---------------------------------------------------------------------------
# skills
# ---------------------------------------------------------------------------


def score_skill(env, agent, seed: int) -> float:
    totals = []
    for reset_seed in episode_reset_seeds(seed, EVAL_EPISODES):
        obs = env.reset(seed=int(reset_seed))
        done, total = False, 0.0
        while not done:
            obs, reward, done, _ = env.step(agent.act(obs, deterministic=True))
            total += reward
        totals.append(total)
    return float(np.mean(totals))


def skills_setup(seed: int) -> None:
    """Build Algorithm 2's objects and run one warm-up episode per skill."""
    config = training_config(seed)
    skills = SkillLibrary(
        low_level_obs_dim(config.scenario), np.random.default_rng(seed),
        hyper=config.hyper,
    )
    for env_cls, agent in (
        (LaneKeepingEnv, skills.driving_in_lane),
        (LaneChangeEnv, skills.lane_change),
    ):
        env = env_cls(config.scenario, config.rewards)
        train_skill(env, agent, episodes=1, seed=seed, engine=UpdateEngine(agent))


def run_skills(ctx: Context) -> dict:
    setup = setup_times(ctx, skills_setup, SETUPS["skills"])

    def one_pass(k: int) -> dict:
        seed = sub_seed(ctx.seed, k)
        config = training_config(seed)
        start = time.perf_counter()
        skills, logger = train_low_level_skills(config, episodes=SKILL_EPISODES)
        keeping = score_skill(
            LaneKeepingEnv(config.scenario, config.rewards),
            skills.driving_in_lane, seed + 900,
        )
        changing = score_skill(
            LaneChangeEnv(config.scenario, config.rewards),
            skills.lane_change, seed + 901,
        )
        end = time.perf_counter()
        ctx.checks.finite_series(logger, f"skills pass {k}")
        ctx.checks.check(
            bool(np.isfinite([keeping, changing]).all()), f"skills pass {k} scores"
        )
        return {
            "episodes": 2 * SKILL_EPISODES,
            "window": (start, end),
            "eval_reward": (keeping + changing) / 2.0,
            "skills": skills,
            "config": config,
        }

    out = training_passes(ctx, one_pass)
    first = out.pop("first")
    # Serve the trained skills under a fresh high level: the hierarchy a
    # user deploys right after Algorithm 2.
    team = hero_team(first["config"], first["skills"].state_dict(), ctx.seed)
    out.update(serve(ctx, deploy(ctx, team, "skills"), ctx.seconds * (1 - TRAIN_SHARE)))
    out["setup_s"] = statistics.median(setup)
    out["eval_reward"] = first["eval_reward"]
    out["collision_rate"] = out["serve_collision_rate"]
    return out


# ---------------------------------------------------------------------------
# team
# ---------------------------------------------------------------------------


def team_setup(seed: int) -> None:
    """Build every method's controller, env batch and update engine, and
    take one batched step with each."""
    scenario = bench_scenario()
    seeds = [int(s) for s in episode_reset_seeds(seed, NUM_ENVS)]
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, np.random.default_rng(seed))
    UpdateEngine(team)
    vec = VectorEnv(NUM_ENVS, scenario=scenario)
    try:
        vec.step(BatchedHeroRunner(team, vec).act(vec.reset(seeds)))
    finally:
        vec.close()
    for name in METHOD_NAMES[1:]:
        algo = make_baseline(name, make_baseline_env(scenario=scenario), seed=seed)
        UpdateEngine(algo)
        bvec = make_baseline_vector_env(NUM_ENVS, scenario=scenario)
        try:
            bvec.step(algo.act_batch(bvec.reset(seeds)))
        finally:
            bvec.close()


def run_team(ctx: Context) -> dict:
    setup = setup_times(ctx, team_setup, SETUPS["team"])

    def one_pass(k: int) -> dict:
        seed = sub_seed(ctx.seed, k)
        start = time.perf_counter()
        result = train_all_methods(
            scale=TEAM_SCALE, seed=seed, skill_scale=0.0,
            num_envs=NUM_ENVS, fused_updates=True,
        )
        rows = run_table2(seed=seed, result=result)["rows"]
        end = time.perf_counter()
        for name, trained in result.methods.items():
            ctx.checks.finite_series(trained.logger, f"team {name}")
        for name, row in rows.items():
            for key, value in row.items():
                ctx.checks.check(0.0 <= value <= 1.0, f"table2 {name} {key} in [0, 1]")
        hero = result.methods["hero"]
        algorithm1 = len(METHOD_NAMES) * len(hero.logger.values("hero/episode_reward"))
        return {
            "episodes": algorithm1 + 2 * SKILL_FLOOR,
            "window": (start, end),
            "team": hero.controller,
            "eval_reward": float(hero.logger.values("hero/eval_episode_reward")[-1]),
            "collision_rate": float(rows["hero"]["collision_rate"]),
            "table2": rows,
        }

    out = training_passes(ctx, one_pass)
    first = out.pop("first")
    out.update(serve(ctx, deploy(ctx, first["team"], "team"), ctx.seconds * (1 - TRAIN_SHARE)))
    out["setup_s"] = statistics.median(setup)
    out["eval_reward"] = first["eval_reward"]
    out["collision_rate"] = first["collision_rate"]
    out["table2"] = first["table2"]
    return out


# ---------------------------------------------------------------------------
# async
# ---------------------------------------------------------------------------


def async_setup(skill_state: dict, seed: int) -> None:
    """Build what the learner builds before its first round: the HERO team
    over the trained skills, its update engine, the parameter server with
    the actors' snapshot published once, an actor queue, and the eval env
    batch with one batched step."""
    config = training_config(seed)
    team = hero_team(config, skill_state, seed)
    UpdateEngine(team)
    actors = [team.agents[a].high_level.actor for a in team.env.agents]
    snapshot = np.concatenate([p.data.ravel() for a in actors for p in a.parameters()])
    server = ParameterServer({"actor": snapshot.size})
    queue = ShmRingQueue()
    vec = VectorEnv(NUM_ENVS, scenario=config.scenario, rewards=config.rewards)
    try:
        server.publish({"actor": snapshot})
        seeds = [int(s) for s in episode_reset_seeds(seed, NUM_ENVS)]
        vec.step(BatchedHeroRunner(team, vec).act(vec.reset(seeds)))
    finally:
        vec.close()
        queue.close()
        queue.release()
        server.release()


def run_async(ctx: Context) -> dict:
    # The skills are trained once, untimed: set-up times only what the
    # async workload itself builds over them.
    skill_state = floor_skills(ctx, ctx.seed)
    setup = setup_times(
        ctx, lambda seed: async_setup(skill_state, seed), SETUPS["async"]
    )

    def one_pass(k: int) -> dict:
        seed = sub_seed(ctx.seed, k)
        config = training_config(
            seed, ASYNC_EPISODES, async_actors=True, num_actors=1, max_staleness=2
        )
        team = hero_team(config, skill_state, seed)
        start = time.perf_counter()
        # An actor error raises here and fails the run.
        logger = train_hero(
            team.env, team, episodes=ASYNC_EPISODES, config=config,
            updates_per_episode=4,
        )
        end = time.perf_counter()
        ctx.checks.finite_series(logger, f"async pass {k}")
        staleness = logger.values("hero/snapshot_staleness")
        return {
            "episodes": ASYNC_EPISODES,
            "window": (start, end),
            "team": team,
            "eval_reward": float(logger.values("hero/eval_episode_reward")[-1]),
            "collision_rate": float(logger.values("hero/eval_collision_rate")[-1]),
            "staleness": float(np.mean(staleness)) if len(staleness) else 0.0,
        }

    out = training_passes(ctx, one_pass)
    first = out.pop("first")
    out.update(serve(ctx, deploy(ctx, first["team"], "async"), ctx.seconds * (1 - TRAIN_SHARE)))
    out["setup_s"] = statistics.median(setup)
    out["eval_reward"] = first["eval_reward"]
    out["collision_rate"] = first["collision_rate"]
    out["staleness"] = first["staleness"]
    # The learner and one actor need a core each for the overlap to show.
    out["overlap"] = "verified" if (os.cpu_count() or 1) >= 2 else "unverified"
    return out


WORKLOADS = {
    "skills": run_skills,
    "team": run_team,
    "async": run_async,
}
