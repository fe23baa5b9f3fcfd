"""Opponent-modeling demo (Sec. III-C / Fig. 10).

Trains HERO briefly, then compares each agent's opponent-model predictions
against the options the other agents actually executed on fresh episodes:
prediction accuracy well above the 25% uniform baseline demonstrates that
the decentralized agents really learned each other's policies from
observed histories alone.

Usage::

    python examples/opponent_modeling_demo.py --episodes 300
"""

import argparse

import numpy as np

from repro.config import TrainingConfig
from repro.core import BatchedHeroRunner, HeroTeam, train_hero, train_low_level_skills
from repro.core.options import OPTION_NAMES
from repro.envs import CooperativeLaneChangeEnv, VectorEnv, VectorStepper
from repro.experiments.common import bench_scenario


def greedy_episode(team, seed: int) -> tuple[list, dict]:
    """One greedy episode on a one-env batch.

    Returns the per-step ``(state, options)`` pairs — every agent's
    high-level state ``(agents, Dh)`` and the options the agents execute
    ``(agents,)`` — and the episode summary.
    """
    vec = VectorEnv(1, scenario=team.env.scenario, rewards=team.env.rewards)
    runner = BatchedHeroRunner(team, vec)
    obs = vec.reset([seed])
    steps = []
    while True:
        actions = runner.act(obs, epsilon=0.0, explore=False)
        steps.append((VectorStepper.flatten_high(obs)[0], runner._option[0].copy()))
        obs, _, dones, infos = vec.step(actions)
        if dones[0]:
            return steps, infos[0]["episode"]


def prediction_accuracy(team, episodes: int, seed: int) -> dict[str, float]:
    """Greedy rollouts; score each agent's per-step opponent predictions."""
    rng = np.random.default_rng(seed)
    agents = team.env.agents
    hits = {agent: 0 for agent in agents}
    totals = {agent: 0 for agent in agents}
    for _ in range(episodes):
        steps, _ = greedy_episode(team, int(rng.integers(0, 2**31 - 1)))
        for state, options in steps:
            for k, agent in enumerate(agents):
                model = team.agents[agent].high_level.opponent_model
                predicted = model.predict_probs_batch(state[[k]])[0].argmax(axis=-1)
                actual = np.delete(options, k)
                hits[agent] += int((predicted == actual).sum())
                totals[agent] += len(actual)
    return {agent: hits[agent] / max(totals[agent], 1) for agent in agents}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--skill-episodes", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = TrainingConfig(seed=args.seed)
    config.scenario = bench_scenario()
    config.epsilon_decay_episodes = max(args.episodes // 2, 1)

    skills, _ = train_low_level_skills(config, episodes=args.skill_episodes)
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)
    team = HeroTeam(
        env, np.random.default_rng(args.seed), hyper=config.hyper,
        skills=skills, batch_size=128, lr=2e-3,
    )
    logger = train_hero(
        env, team, episodes=args.episodes, config=config, updates_per_episode=4
    )

    print("\nOpponent-model NLL (vehicle 2's perspective, Fig. 10):")
    for name in logger.names():
        if name.startswith("hero/vehicle_1/opponent_") and name.endswith("_nll"):
            values = logger.values(name)
            print(f"  {name}: first={values[0]:.3f} last={values[-1]:.3f}")

    print("\nPrediction accuracy on fresh greedy episodes (uniform = 0.25):")
    accuracy = prediction_accuracy(team, episodes=10, seed=args.seed + 99)
    for agent, acc in accuracy.items():
        print(f"  {agent}: {acc:.2%}")

    print("\nSample greedy episode with option traces:")
    steps, summary = greedy_episode(team, args.seed + 7)
    for k, agent in enumerate(env.agents):
        trace = [OPTION_NAMES[options[k]] for _, options in steps[:15]]
        print(f"  {agent}: {' '.join(t[:4] for t in trace)}")
    print(f"  outcome: {summary}")


if __name__ == "__main__":
    main()
