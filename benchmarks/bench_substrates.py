"""Micro-benchmarks for the substrates (autodiff, simulator, bus).

Not a paper table — these guard the cost model the experiment harness
relies on: one env step, one SAC update, one high-level update and one
bus exchange must each stay cheap enough that the 14,000-episode
paper-scale run is tractable on a laptop.  Updates run through the fused
engines, the only update path.
"""

from types import SimpleNamespace

import numpy as np

from repro.config import ScenarioConfig
from repro.core import SACAgent, UpdateEngine
from repro.core.hero import HeroAgent
from repro.core.high_level import HighLevelAgent
from repro.core.update_engine import HeroTeamUpdateEngine
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv
from repro.nn import MLP, Adam, Tensor, mse_loss
from repro.training.replay import OptionTransition


def test_env_step_throughput(benchmark):
    env = CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=10**9))
    env.reset(seed=0)
    actions = {agent: np.array([0.08, 0.0]) for agent in env.agents}

    benchmark(lambda: env.step(actions))


def test_mlp_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    net = MLP(32, [32, 32], 4, rng)
    opt = Adam(net.parameters(), lr=1e-3)
    x = rng.standard_normal((128, 32))
    y = rng.standard_normal((128, 4))

    def step():
        opt.zero_grad()
        loss = mse_loss(net(Tensor(x)), y)
        loss.backward()
        opt.step()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_sac_update(benchmark):
    agent = SACAgent(
        obs_dim=12,
        action_dim=2,
        rng=np.random.default_rng(0),
        action_low=np.array([0.0, -0.2]),
        action_high=np.array([0.2, 0.2]),
        batch_size=128,
    )
    rng = np.random.default_rng(1)
    for _ in range(256):
        agent.observe(
            rng.standard_normal(12), rng.uniform(-0.1, 0.1, 2),
            rng.uniform(-1, 1), rng.standard_normal(12), False,
        )
    result = benchmark(UpdateEngine(agent).update)
    assert result is not None


def test_high_level_update(benchmark):
    """One high-level agent's step: the team engine over a lone agent."""
    agent = HighLevelAgent(
        obs_dim=19, num_options=4, num_opponents=2,
        rng=np.random.default_rng(0), batch_size=128,
    )
    rng = np.random.default_rng(1)
    for _ in range(256):
        agent.store_transition(
            OptionTransition(
                rng.standard_normal(19), int(rng.integers(0, 4)),
                rng.integers(0, 4, 2), float(rng.uniform(-1, 1)),
                rng.standard_normal(19), False, int(rng.integers(1, 5)),
            )
        )
        agent.opponent_model.record(rng.standard_normal(19), rng.integers(0, 4, 2))
    team = SimpleNamespace(agents={"vehicle_0": HeroAgent("vehicle_0", agent)})
    result = benchmark(HeroTeamUpdateEngine(team).update)
    assert result


def test_bus_exchange(benchmark):
    """One stacked exchange of 4 agents over an 8-env batch."""
    service = DistributedObservationService(
        [f"vehicle_{i}" for i in range(4)], latency_steps=2, drop_probability=0.1, seed=0
    )
    options = np.arange(32).reshape(8, 4) % 4
    benchmark(lambda: service.exchange(options))
