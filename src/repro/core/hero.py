"""HERO agent: hierarchical decision-making with opponent modeling.

:class:`HeroTeam` is the set of learning vehicles sharing one skill
library — the paper pre-trains skills once and shares them across
vehicles.  Each vehicle is a :class:`HeroAgent`: its
:class:`~repro.core.high_level.HighLevelAgent` chooses options, which the
shared :class:`~repro.core.low_level.SkillLibrary` executes.  The team
holds learnable state only; acting (option execution with asynchronous
termination, Sec. III-B) runs through
:class:`~repro.core.batched.BatchedHeroRunner` over a batch of one or
more envs, and :meth:`HeroTeam.store` writes the experience the runner
hands back.  The team's gradient step is
:class:`~repro.core.update_engine.HeroTeamUpdateEngine`: every agent's
critic, actor and opponent predictors update as three stacked families.
"""

from __future__ import annotations

import numpy as np

from ..config import PaperHyperparameters
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from .high_level import HighLevelAgent
from .low_level import SkillLibrary
from .options import OptionSet


class HeroAgent:
    """One vehicle's learner: its id and high-level agent."""

    def __init__(self, agent_id: str, high_level: HighLevelAgent):
        self.agent_id = agent_id
        self.high_level = high_level


class HeroTeam:
    """All learning vehicles with a shared skill library."""

    def __init__(
        self,
        env: CooperativeLaneChangeEnv,
        rng: np.random.Generator,
        hyper: PaperHyperparameters | None = None,
        skills: SkillLibrary | None = None,
        option_set: OptionSet | None = None,
        opponent_mode: str = "model",
        lr: float = 1e-3,
        batch_size: int = 128,
        observation_service=None,
    ):
        """``env`` is the team's template env (scenario, agents, spaces);
        rollouts and evaluations step their own envs.

        ``observation_service`` (optional): a
        :class:`repro.distributed.DistributedObservationService`; when set,
        agents learn opponents' options from bus messages (delayed, lossy)
        instead of reading them directly — the paper's true DTDE setting.
        """
        self.env = env
        self.observation_service = observation_service
        self.hyper = hyper or PaperHyperparameters()
        self.option_set = option_set or OptionSet()
        obs_dim_high = env.high_level_obs_dim
        obs_dim_low = env.low_level_obs_dim + 1  # + merge direction flag
        num_agents = len(env.agents)

        self.skills = skills or SkillLibrary(
            obs_dim_low, rng, self.option_set, self.hyper
        )
        self.agents: dict[str, HeroAgent] = {}
        for agent_id in env.agents:
            seed = int(rng.integers(0, 2**31 - 1))
            high = HighLevelAgent(
                obs_dim_high,
                num_options=self.option_set.num_options,
                num_opponents=num_agents - 1,
                rng=np.random.default_rng(seed),
                hyper=self.hyper,
                lr=lr,
                batch_size=batch_size,
                opponent_mode=opponent_mode,
            )
            self.agents[agent_id] = HeroAgent(agent_id, high)

    def store(self, experience: tuple) -> None:
        """Write one step's experience, as
        :meth:`~repro.core.batched.BatchedHeroRunner.after_step` returns
        it, into every agent's replay buffer and opponent history
        (Algorithm 1, line 23), and adopt env 0's view of its opponents as
        its last-observed options."""
        transitions, records, observed = experience
        for k, agent in enumerate(self.agents.values()):
            high = agent.high_level
            for transition in transitions[k]:
                high.store_transition(transition)
            if records[k] is not None:
                high.opponent_model.record_batch(*records[k])
            if observed is not None:
                high._last_observed_options = observed[k].copy()

    def acting_families(self) -> dict[str, list]:
        """The networks greedy acting reads, as flat-vector families:
        every agent's actor trunk (``"actor"``) and, when agents model
        their opponents, every opponent predictor's trunk
        (``"opponent"``).  The skills are frozen during high-level
        training and belong to neither.  The async actors' parameter
        server slots and the recorded interleaved evaluations copy these."""
        highs = [agent.high_level for agent in self.agents.values()]
        families = {"actor": [high.actor.trunk for high in highs]}
        if highs[0].num_opponents and highs[0].opponent_mode == "model":
            families["opponent"] = [
                predictor.trunk
                for high in highs
                for predictor in high.opponent_model.predictors
            ]
        return families

    # ------------------------------------------------------------------
    # Persistence: checkpoint the whole team (skills + every agent).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"skills.{k}": v for k, v in self.skills.state_dict().items()}
        for agent_id, agent in self.agents.items():
            state.update(
                {
                    f"{agent_id}.{k}": v
                    for k, v in agent.high_level.state_dict().items()
                }
            )
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.skills.load_state_dict(
            {k[len("skills."):]: v for k, v in state.items() if k.startswith("skills.")}
        )
        for agent_id, agent in self.agents.items():
            prefix = f"{agent_id}."
            agent.high_level.load_state_dict(
                {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            )

    def save(self, path) -> None:
        """Write a full-team checkpoint as one ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})
