"""The shared stepping interface behind every vectorized rollout consumer.

One engine steps batches of cooperative lane-change environments:
:class:`~repro.envs.vector_env.VectorEnv`, all ``N`` envs in stacked NumPy
arrays in one process.  :class:`PoseStepper` stands in for it where a
:class:`~repro.core.batched.BatchedHeroRunner` acts for envs stepped
elsewhere: the serving stack's client slots, and the scalar env (or
Table 2 testbed) that :func:`~repro.core.trainer.evaluate_hero` steps.

Everything downstream — :class:`~repro.core.batched.BatchedHeroRunner`,
:class:`~repro.core.trainer.BatchedRolloutWorker`, ``train_hero``,
``train_marl_vectorized`` and both vectorized evaluators — programs
against this surface only.  :class:`VectorStepper` names that surface in
one place:

========================  ====================================================
member                    contract
========================  ====================================================
``num_envs``              batch size ``N``
``num_agents``/``agents`` learning vehicles per env (shared across the batch)
``scenario``/``rewards``  the shared configuration dataclasses
``observation_spaces``    per-agent spaces of the template environment
``action_spaces``         per-agent spaces of the template environment
``high_level_obs_dim``    flat dim of ``s_h = [lidar, speed, laneID]``
``low_level_obs_dim``     flat dim of the feature-mode ``s_l``
``track``                 shared track geometry (read-only)
``template_env``          a live scalar env for static probing (never stepped
                          by the engine; e.g. rebuilding replicas of it)
``fast_path``             whether steps run on the stacked kernels
``fallback_reason``       why they do not (``None`` on the fast path) —
                          surface it in logs, never swallow it
``reset(seeds)``          reset all envs; stacked observation dict
``reset_env(i, seed)``    reset one env; its ``(num_agents, ...)`` obs rows
``step(actions)``         ``(obs, rewards, dones, infos)`` with auto-reset
``agent_d``               learning vehicles' exact lateral positions (n, a)
``agent_heading``         learning vehicles' exact heading errors (n, a)
``lane_ids``              post-step (pre-auto-reset) lane ids (n, a)
``lane_deviation``        post-step distance to lane centre (n, a)
``close()``               release engine resources; idempotent
========================  ====================================================

The interface also carries the repo's reproducibility contract: the
engine returns **bit-for-bit** the observations, rewards, dones and
episode summaries of the scalar environment for the same action and
reset-seed streams (``tests/test_vector_env.py`` locks it).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

ObsBatch = dict[str, np.ndarray]


class VectorStepper:
    """Base class naming the vectorized stepping surface (see module doc).

    Subclasses provide the attributes and methods tabulated above;  the
    base class only implements the observation-flattening helpers every
    consumer shares and the default no-op :meth:`close`.
    """

    num_envs: int
    num_agents: int
    agents: list[str]

    # ------------------------------------------------------------------
    # Lifecycle + stepping (implemented by engines)
    # ------------------------------------------------------------------
    def reset(self, seeds: int | Sequence[int | None] | None = None) -> ObsBatch:
        """Reset every environment; returns stacked observations."""
        raise NotImplementedError

    def reset_env(self, i: int, seed: int | None = None) -> dict[str, np.ndarray]:
        """Reset just environment ``i``; returns its per-agent obs rows."""
        raise NotImplementedError

    def step(
        self, actions: np.ndarray
    ) -> tuple[ObsBatch, np.ndarray, np.ndarray, list[dict[str, Any]]]:
        """Advance every environment one step (auto-reset on done)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release engine resources; default engines hold none."""

    # ------------------------------------------------------------------
    # Flattening helpers (stacked counterparts of the scalar staticmethods)
    # ------------------------------------------------------------------
    @staticmethod
    def flatten_high(obs: ObsBatch) -> np.ndarray:
        """Stacked s_h = [lidar, speed, laneID]; shape (num_envs, agents, Dh)."""
        return np.concatenate([obs["lidar"], obs["speed"], obs["lane_onehot"]], axis=-1)

    @staticmethod
    def flatten_low(obs: ObsBatch) -> np.ndarray:
        """Stacked s_l = [features, speed, laneID]; shape (num_envs, agents, Dl)."""
        if "features" not in obs:
            raise KeyError("low-level flat obs requires observation_mode='features'")
        return np.concatenate(
            [obs["features"], obs["speed"], obs["lane_onehot"]], axis=-1
        )


class PoseStepper:
    """Pose-only stand-in for a :class:`VectorStepper`.

    The batched runner needs a stepper for construction metadata
    (scenario, track, sizes) and, per ``act``, the exact pose arrays.
    Here the ``num_envs`` rows are envs stepped elsewhere (served client
    slots, the scalar env of :func:`~repro.core.trainer.evaluate_hero`):
    their owner writes each row's ``agent_d``/``agent_heading`` before
    acting, by hand or (one env) with :meth:`read_poses`.  Nothing is
    stepped — ``after_step`` is never called on a runner over this
    stepper, so the step-side surface (``lane_ids``, ``lane_deviation``)
    does not exist.

    ``env`` is any scalar env of the scenario; it is only read.
    """

    def __init__(self, env, num_envs: int):
        self.scenario = env.scenario
        self.track = env.track
        self.agents = list(env.agents)
        self.num_envs = num_envs
        self.num_agents = len(self.agents)
        self.high_level_obs_dim = env.high_level_obs_dim
        self.agent_d = np.zeros((num_envs, self.num_agents))
        self.agent_heading = np.zeros((num_envs, self.num_agents))

    def read_poses(self, env) -> None:
        """Copy ``env``'s learning vehicles' exact pose into the first row."""
        for k, agent in enumerate(self.agents):
            state = env.vehicle(agent).state
            self.agent_d[0, k] = state.d
            self.agent_heading[0, k] = state.heading
