"""Vectorized batched rollouts: step N lane-change games with stacked state.

The paper trains over ~14,000 episodes; stepping one
:class:`~repro.envs.lane_change_env.CooperativeLaneChangeEnv` at a time
leaves the hot path in per-vehicle Python loops: one lidar raycast and one
feature vector per agent per step, each paying numpy's per-call cost on
single numbers.  :class:`VectorEnv` steps ``N`` environment instances
synchronously with all vehicle state held in stacked NumPy arrays:

* kinematics, collision tests, merge bookkeeping and team rewards are
  evaluated for all ``N * num_vehicles`` vehicles in one shot; lane ids
  are computed once per step and shared by the merge bookkeeping and the
  observation,
* observations (lidar + feature vectors) are produced by one call into the
  shared :meth:`~repro.envs.sensors.Lidar.scan_batch` raycast kernel,
* resets are stacked too: construction, :meth:`~VectorEnv.reset`,
  :meth:`~VectorEnv.reset_env` and auto-resets place the vehicles through
  each scalar env's state-only reset (the RNG draws of its ``reset``) and
  observe just the reset rows with the stacked kernels,
* finished environments auto-reset: the returned row holds the first
  observation of the next episode and ``infos[i]`` carries the finished
  episode's summary plus its terminal observation; a step observes the
  next states and the terminal states in the same stacked call.

The vectorized step reproduces the scalar environment **bitwise**: every
arithmetic expression mirrors the scalar code path elementwise, and the
lidar goes through the very same kernel (``tests/test_vector_env.py`` locks
this in).

Fast path vs fallback
---------------------

The stacked fast path is only taken when every wrapped environment shares a
configuration the vectorized kernels can express:

* the exact :class:`~repro.envs.lane_change_env.CooperativeLaneChangeEnv`
  class (a subclass may override dynamics the kernels would silently drop),
* identical scenario / reward / track parameters across the batch,
* a scripted traffic policy with a vectorized kernel:
  :class:`~repro.envs.traffic.SlowLeader`,
  :class:`~repro.envs.traffic.LaneKeepingCruiser` or
  :class:`~repro.envs.traffic.StationaryObstacle`.

``SlowLeader`` and ``StationaryObstacle`` are self-contained (each scripted
vehicle's command depends only on its own pre-step state), so all
vehicles, scripted and learning, move in one batched kinematics pass.
``LaneKeepingCruiser`` *reads other
vehicles' state* (it brakes toward the nearest same-lane leader), and the
scalar environment moves scripted vehicles sequentially — vehicle ``k``'s
controller sees vehicles ``j < k`` already moved.  Its vectorized kernel
therefore loops over scripted vehicles in the same order, one batched
update per vehicle across all envs, which keeps the fast path bitwise
exact at the cost of a short Python loop (over vehicles, not envs).

Anything else falls back to stepping and resetting the wrapped scalar
environments one by one, so behaviour is always correct even when it is
not fast:
:attr:`VectorEnv.fast_path` reports which path is live and
:attr:`VectorEnv.fallback_reason` carries a human-readable explanation of
the first blocking configuration (``None`` on the fast path) — surface it
in logs rather than silently training at scalar speed.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..config import RewardConfig, ScenarioConfig
from ..nn.tensor import get_default_dtype
from ..utils.math_utils import wrap_angle
from .geometry import Track
from .lane_change_env import CooperativeLaneChangeEnv
from .stepping import ObsBatch, VectorStepper
from .traffic import LaneKeepingCruiser, ScriptedPolicy, SlowLeader, StationaryObstacle
from .vehicle import MAX_HEADING_ERROR


def _scripted_policy_params(policy: ScriptedPolicy) -> tuple:
    """The parameters the vectorized scripted kernels read, for equality."""
    if type(policy) is SlowLeader:
        return (policy.speed, policy.steer_gain)
    if type(policy) is LaneKeepingCruiser:
        return (policy.target_speed, policy.safe_gap, policy.steer_gain)
    return ()


class EnvReplicaFactory:
    """Picklable factory replicating one ``CooperativeLaneChangeEnv`` setup.

    The vectorized training loops, the batches scoring their recorded
    evaluations and the async actor processes build their env batches
    from this object; the
    actors' copy must cross the process boundary — a local closure cannot (the
    ``spawn`` start method pickles start-up arguments).  Captures exactly
    what the env constructor takes; ``track`` and ``scripted_policy`` are
    stateless parameter holders, so pickled copies behave identically to
    the parent's instances.
    """

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        track: Track | None = None,
        scripted_policy: ScriptedPolicy | None = None,
    ):
        self.scenario = scenario
        self.rewards = rewards
        self.track = track
        self.scripted_policy = scripted_policy

    @classmethod
    def from_env(cls, env: CooperativeLaneChangeEnv) -> "EnvReplicaFactory":
        """The factory for copies of ``env``: its scenario, rewards, track and
        traffic, so custom traffic reaches every replica (through
        :class:`VectorEnv`'s scalar fallback when it has no kernel) instead
        of being swapped for the defaults.

        Raises ``ValueError`` for anything but the exact
        ``CooperativeLaneChangeEnv`` class: a subclass may override dynamics
        that a replica built from the configuration would silently drop.
        """
        if type(env) is not CooperativeLaneChangeEnv:
            raise ValueError(
                f"cannot replicate a {type(env).__name__}: vectorized rollouts, "
                "evaluation batches and async actors rebuild the env from its "
                "configuration and would silently run different dynamics — use "
                "the stock CooperativeLaneChangeEnv"
            )
        return cls(
            scenario=env.scenario,
            rewards=env.rewards,
            track=env.track,
            scripted_policy=env._scripted_policy,
        )

    def __call__(self) -> CooperativeLaneChangeEnv:
        return CooperativeLaneChangeEnv(
            scenario=self.scenario,
            rewards=self.rewards,
            track=self.track,
            scripted_policy=self.scripted_policy,
        )


class VectorEnv(VectorStepper):
    """Synchronous batch of ``N`` cooperative lane-change environments.

    Implements the :class:`~repro.envs.stepping.VectorStepper` surface
    in-process.
    """

    def __init__(
        self,
        num_envs: int,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        env_fns: Sequence[Callable[[], CooperativeLaneChangeEnv]] | None = None,
        auto_reset: bool = True,
    ):
        if env_fns is not None:
            if len(env_fns) != num_envs:
                raise ValueError(
                    f"expected {num_envs} env_fns, got {len(env_fns)}"
                )
            self._envs = [fn() for fn in env_fns]
        else:
            self._envs = [
                CooperativeLaneChangeEnv(scenario=scenario, rewards=rewards)
                for _ in range(num_envs)
            ]
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        self.num_envs = num_envs
        self.auto_reset = auto_reset
        # Physics runs in float64 regardless of the compute dtype (so
        # trajectories are dtype-independent); observations and rewards are
        # cast once here at the env->policy boundary.  See
        # docs/ARCHITECTURE.md, "Precision".
        self.obs_dtype = np.dtype(get_default_dtype())

        template = self._envs[0]
        self.scenario = template.scenario
        self.rewards = template.rewards
        self.agents = list(template.agents)
        self.num_agents = len(self.agents)
        self.observation_spaces = template.observation_spaces
        self.action_spaces = template.action_spaces
        self.high_level_obs_dim = template.high_level_obs_dim
        self.low_level_obs_dim = template.low_level_obs_dim

        self._fallback_reason = self._fast_path_blocker()
        self._fast = self._fallback_reason is None
        self._allocate_state()
        # Materialise vehicles once so static attributes (radii, speed caps)
        # can be read; any later reset(seed=...) reseeds the per-env RNGs, so
        # this throwaway reset does not perturb seeded rollouts.  Distinct
        # per-env seeds matter for the unseeded path: reset(seeds=None)
        # continues these streams, and N identical streams would hand every
        # env the same initial-condition sequence forever.  The fast path
        # never needs the scalar observation, so it resets state only.
        for i, env in enumerate(self._envs):
            if self._fast:
                env._reset_state(seed=i)
            else:
                env.reset(seed=i)
            self._read_static(i)
            self._sync_from_env(i)
        self._build_constants()

        # Post-step (pre-autoreset) learning-vehicle state, exposed for the
        # batched option-termination logic in repro.core.batched.
        self.lane_ids = np.zeros((self.num_envs, self.num_agents), dtype=np.int64)
        self.lane_deviation = np.zeros((self.num_envs, self.num_agents))

    @property
    def agent_d(self) -> np.ndarray:
        """Learning vehicles' lateral (Frenet ``d``) positions, ``(n, a)``.

        Bitwise equal to each ``vehicle.state.d`` — unlike recovering the
        pose from the normalised feature vector, which reintroduces float
        rounding.  Tracks the observations the env last returned: rows of
        auto-reset envs already hold the next episode's initial state.
        Read-only by convention (a view into the stacked state).
        """
        return self._d[:, : self.num_agents]

    @property
    def agent_heading(self) -> np.ndarray:
        """Learning vehicles' heading errors, ``(n, a)``; see :attr:`agent_d`."""
        return self._heading[:, : self.num_agents]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _fast_path_blocker(self) -> str | None:
        """Why the stacked fast path cannot be used (None when it can).

        The fast path mirrors the scalar arithmetic elementwise, so it is
        only valid when every wrapped env shares a configuration those
        kernels can express: identical scenario / reward / track
        parameters, and a scripted policy with a vectorized kernel
        (:class:`SlowLeader`, :class:`LaneKeepingCruiser`,
        :class:`StationaryObstacle`).
        """
        template = self._envs[0]
        for env in self._envs:
            if type(env) is not CooperativeLaneChangeEnv:
                return (
                    f"env type {type(env).__name__} is not exactly "
                    "CooperativeLaneChangeEnv"
                )
            if env.scenario != template.scenario or env.rewards != template.rewards:
                return "envs differ in scenario or reward configuration"
            policy = env._scripted_policy
            if type(policy) not in (SlowLeader, LaneKeepingCruiser, StationaryObstacle):
                return (
                    f"scripted policy {type(policy).__name__} has no "
                    "vectorized kernel"
                )
            if type(policy) is not type(template._scripted_policy):
                return "envs differ in scripted policy type"
            if _scripted_policy_params(policy) != _scripted_policy_params(
                template._scripted_policy
            ):
                return "envs differ in scripted policy parameters"
            track, ref = env.track, template.track
            if (
                track.length != ref.length
                or track.num_lanes != ref.num_lanes
                or track.lane_width != ref.lane_width
            ):
                return "envs differ in track geometry"
        return None

    @property
    def fast_path(self) -> bool:
        """Whether steps run on the stacked-array path (vs scalar fallback)."""
        return self._fast

    @property
    def fallback_reason(self) -> str | None:
        """Why this instance stepped onto the scalar fallback (None if fast)."""
        return self._fallback_reason

    @property
    def envs(self) -> list[CooperativeLaneChangeEnv]:
        """The wrapped scalar environments.

        On the fast path their vehicle objects are only synchronised at
        reset time; call :meth:`sync_to_envs` before inspecting them.
        """
        return self._envs

    @property
    def track(self):
        """Shared track geometry (identical across the batch; read-only)."""
        return self._envs[0].track

    @property
    def template_env(self) -> CooperativeLaneChangeEnv:
        """A live scalar env for static probing (interface contract).

        Consumers such as :class:`~repro.core.batched.BatchedHeroRunner`
        read option-initiation predicates and vehicle constants from it;
        they must never step it.
        """
        return self._envs[0]

    def _allocate_state(self) -> None:
        cfg = self.scenario
        n, a = self.num_envs, self.num_agents
        v = cfg.num_learning_vehicles + cfg.num_scripted_vehicles
        self._num_vehicles = v
        self._s = np.zeros((n, v))
        self._d = np.zeros((n, v))
        self._heading = np.zeros((n, v))
        self._lin = np.zeros((n, v))
        self._ang = np.zeros((n, v))
        self._distance = np.zeros((n, v))
        self._crashed = np.zeros((n, v), dtype=bool)
        self._radius = np.zeros(v)
        self._max_lin = np.zeros(v)
        self._max_ang = np.zeros(v)
        self._blocked = np.zeros((n, a), dtype=bool)
        self._merged = np.zeros((n, a), dtype=bool)
        self._t = np.zeros(n, dtype=np.int64)
        self._episode_reward = np.zeros(n)
        self._speed_sum = np.zeros(n)
        self._speed_count = np.zeros(n, dtype=np.int64)
        self._collision_happened = np.zeros(n, dtype=bool)

    def _vehicles_of(self, i: int) -> list:
        env = self._envs[i]
        return [env._vehicles[agent] for agent in env.agents] + list(env._scripted)

    def _read_static(self, i: int) -> None:
        for j, vehicle in enumerate(self._vehicles_of(i)):
            self._radius[j] = vehicle.radius
            self._max_lin[j] = vehicle.max_linear_speed
            self._max_ang[j] = vehicle.max_angular_speed

    def _build_constants(self) -> None:
        """Build once what every fast-path step and observation reuses."""
        n, a, v = self.num_envs, self.num_agents, self._num_vehicles
        track = self._envs[0].track
        self._length = track.length
        self._lane_width = track.lane_width
        self._num_lanes = track.num_lanes
        # The road's half width, which is also the offset of lane 0's edge.
        self._half_width = track.num_lanes * track.lane_width / 2.0
        self._lane_centers = (
            -self._half_width + (np.arange(track.num_lanes) + 0.5) * track.lane_width
        )
        self._lane_eye = np.eye(track.num_lanes, dtype=self.obs_dtype)
        # Pairwise contact distances, -inf on the diagonal so a vehicle never
        # collides with itself.
        self._contact = self._radius[:, None] + self._radius[None, :]
        np.fill_diagonal(self._contact, -np.inf)
        self._not_self = ~np.eye(a, v, dtype=bool)
        # Lidar rows are (env, agent) egos scanning every other vehicle in
        # vehicle order, as the scalar scan does (it skips `other is ego`).
        # Observing m state rows uses the first m * a rows of the radii; a
        # step with auto-resets observes up to 2n (every env's next state
        # plus each finished env's last).
        self._lidar_others = np.array(
            [[j for j in range(v) if j != k] for k in range(a)], dtype=np.int64
        ).reshape(a, v - 1)
        self._lidar_radii = np.broadcast_to(
            self._radius[self._lidar_others], (2 * n, a, v - 1)
        ).reshape(-1, v - 1)

    def _sync_from_env(self, i: int) -> None:
        """Pull one scalar env's state into the stacked arrays."""
        env = self._envs[i]
        for j, vehicle in enumerate(self._vehicles_of(i)):
            state = vehicle.state
            self._s[i, j] = state.s
            self._d[i, j] = state.d
            self._heading[i, j] = state.heading
            self._lin[i, j] = state.linear_speed
            self._ang[i, j] = state.angular_speed
            self._distance[i, j] = vehicle.distance_travelled
            self._crashed[i, j] = vehicle.crashed
        for k, agent in enumerate(env.agents):
            self._blocked[i, k] = agent in env._blocked_agents
            self._merged[i, k] = agent in env._merged_agents
        self._t[i] = env._t
        self._episode_reward[i] = env._episode_reward
        self._speed_sum[i] = env._speed_sum
        self._speed_count[i] = env._speed_count
        self._collision_happened[i] = env._collision_happened

    def sync_to_envs(self) -> None:
        """Write the stacked state back into the scalar envs' vehicles.

        The fast path leaves the wrapped environments' Python objects stale;
        call this before rendering or inspecting individual vehicles.
        """
        for i, env in enumerate(self._envs):
            for j, vehicle in enumerate(self._vehicles_of(i)):
                state = vehicle.state
                state.s = float(self._s[i, j])
                state.d = float(self._d[i, j])
                state.heading = float(self._heading[i, j])
                state.linear_speed = float(self._lin[i, j])
                state.angular_speed = float(self._ang[i, j])
                vehicle.distance_travelled = float(self._distance[i, j])
                vehicle.crashed = bool(self._crashed[i, j])
            env._merged_agents = {
                agent for k, agent in enumerate(env.agents) if self._merged[i, k]
            }
            env._t = int(self._t[i])
            env._episode_reward = float(self._episode_reward[i])
            env._speed_sum = float(self._speed_sum[i])
            env._speed_count = int(self._speed_count[i])
            env._collision_happened = bool(self._collision_happened[i])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, seeds: int | Sequence[int | None] | None = None) -> ObsBatch:
        """Reset every environment; returns stacked observations.

        ``seeds`` may be None (each env continues its own RNG stream), one
        int (env ``i`` gets ``seeds + i``), or one seed (or None) per env.
        """
        if seeds is None:
            seed_list = [None] * self.num_envs
        elif isinstance(seeds, (int, np.integer)):
            seed_list = [int(seeds) + i for i in range(self.num_envs)]
        elif len(seeds) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} seeds, got {len(seeds)}")
        else:
            seed_list = [None if seed is None else int(seed) for seed in seeds]
        if self._fast:
            return self._reset_rows(range(self.num_envs), seed_list)
        per_env = []
        for i, (env, seed) in enumerate(zip(self._envs, seed_list)):
            per_env.append(env.reset(seed=seed))
            self._sync_from_env(i)
        return self._stack_obs(per_env)

    def _reset_rows(
        self, rows: Sequence[int], seeds: Sequence[int | None]
    ) -> ObsBatch:
        """Fast-path reset of envs ``rows``, returning just their rows.

        Each scalar env resets its state only (the same RNG draws as its
        ``reset``); one stacked observation of those rows replaces the
        scalar lidar and feature observations.
        """
        for i, seed in zip(rows, seeds):
            self._envs[i]._reset_state(seed)
            self._sync_from_env(i)
        return self._observe_batch(np.asarray(rows))

    def _stack_obs(self, per_env: list[dict[str, dict[str, np.ndarray]]]) -> ObsBatch:
        keys = per_env[0][self.agents[0]].keys()
        return {
            key: np.stack(
                [
                    np.stack([obs[agent][key] for agent in self.agents])
                    for obs in per_env
                ]
            ).astype(self.obs_dtype, copy=False)
            for key in keys
        }

    def reset_env(self, i: int, seed: int | None = None) -> dict[str, np.ndarray]:
        """Reset just environment ``i`` (optionally seeded).

        Returns that env's observation rows stacked over agents, so callers
        driving per-env episode schedules (e.g. seeded per-episode resets in
        :func:`repro.baselines.base.train_marl_vectorized`) can overwrite the
        corresponding rows of a batched observation.
        """
        if not 0 <= i < self.num_envs:
            raise IndexError(f"env index {i} out of range [0, {self.num_envs})")
        if self._fast:
            return {key: value[0] for key, value in self._reset_rows([i], [seed]).items()}
        obs = self._envs[i].reset(seed=seed)
        self._sync_from_env(i)
        return {
            key: np.stack([obs[agent][key] for agent in self.agents]).astype(
                self.obs_dtype, copy=False
            )
            for key in obs[self.agents[0]]
        }

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self, actions: np.ndarray
    ) -> tuple[ObsBatch, np.ndarray, np.ndarray, list[dict[str, Any]]]:
        """Advance every environment one step.

        ``actions`` has shape ``(num_envs, num_agents, 2)``.  Returns
        ``(obs, rewards, dones, infos)`` where observations are stacked
        arrays, ``rewards``/``dones`` are ``(num_envs,)`` (the team reward is
        shared), and finished environments auto-reset with their summary in
        ``infos[i]["episode"]`` and the pre-reset observation in
        ``infos[i]["terminal_observation"]``.
        """
        actions = np.asarray(actions, dtype=np.float64)
        expected = (self.num_envs, self.num_agents, 2)
        if actions.shape != expected:
            raise ValueError(f"actions must have shape {expected}, got {actions.shape}")
        if not self._fast:
            return self._step_fallback(actions)
        return self._step_fast(actions)

    def _step_fast(self, actions: np.ndarray):
        cfg = self.scenario
        rew = self.rewards
        n, a, v = self.num_envs, self.num_agents, self._num_vehicles
        self._t += 1

        travel_before = self._distance[:, :a].copy()

        # --- Kinematics.  The scalar loop moves scripted vehicles first, then
        # the learning vehicles.  Only LaneKeepingCruiser reads other
        # vehicles' state, so only it needs that sequential order (vehicle
        # k's controller sees vehicles j < k already moved).  SlowLeader and
        # StationaryObstacle commands read only their own pre-step state,
        # so every vehicle moves in one pass.
        policy = self._envs[0]._scripted_policy
        if type(policy) is LaneKeepingCruiser:
            for k in range(v - a):
                lin_k, ang_k = self._cruiser_commands(k)
                self._apply_kinematics(
                    slice(a + k, a + k + 1), lin_k[:, None], ang_k[:, None], cfg.dt
                )
            self._apply_kinematics(
                slice(0, a), actions[:, :, 0], actions[:, :, 1], cfg.dt
            )
        else:
            lin_cmd = np.zeros((n, v))
            ang_cmd = np.zeros((n, v))
            lin_cmd[:, :a] = actions[:, :, 0]
            ang_cmd[:, :a] = actions[:, :, 1]
            if type(policy) is SlowLeader:
                lin_cmd[:, a:] = policy.speed
                ang_cmd[:, a:] = self._lane_centering_steer(
                    slice(a, v), policy.steer_gain
                )
            self._apply_kinematics(slice(0, v), lin_cmd, ang_cmd, cfg.dt)

        # --- Collisions: pairwise disc tests across all vehicles per env.
        gap_s = self._signed_gap(self._s[:, :, None], self._s[:, None, :])
        gap_d = self._d[:, None, :] - self._d[:, :, None]
        colliding = np.hypot(gap_s, gap_d) < self._contact
        involved = colliding[:, :a].any(axis=2)
        self._crashed[:, :a] |= involved

        off_road = ~(np.abs(self._d[:, :a]) <= self._half_width)
        failure = involved | off_road
        failure_any = failure.any(axis=1)
        self._collision_happened |= failure_any

        # --- Merge bookkeeping (blocked vehicle settled in the other lane).
        # Lane ids are computed once per step: the observation reuses them.
        lane_all = self._lane_of(self._d)
        lane = lane_all[:, :a]
        deviation = np.abs(self._d[:, :a] - self._lane_centers[lane])
        self._merged |= (
            self._blocked
            & ~self._merged
            & (lane != 0)
            & (deviation < 0.25 * cfg.lane_width)
            & ~failure
        )

        # --- Team reward r_h = alpha * r_col + (1 - alpha) * r_travel.
        # np.mean's own arithmetic (one add.reduce, then a divide by the
        # count) without its per-call wrapper cost.
        travel = np.add.reduce(self._distance[:, :a] - travel_before, axis=1) / a
        r_travel = travel * rew.travel_reward_scale
        r_col = np.where(failure_any, rew.collision_penalty, 0.0)
        rewards = rew.alpha * r_col + (1.0 - rew.alpha) * r_travel
        self._episode_reward += rewards

        self._speed_sum += np.add.reduce(self._lin[:, :a], axis=1) / a
        self._speed_count += 1

        dones = failure_any | (self._t >= cfg.episode_length)
        self.lane_ids = lane
        self.lane_deviation = deviation
        # Stats above accumulate in float64; the returned copy is the
        # boundary cast into the compute dtype.
        rewards = rewards.astype(self.obs_dtype)

        infos: list[dict[str, Any]] = [{"t": t} for t in self._t.tolist()]
        done_rows = np.flatnonzero(dones)
        for i in done_rows:
            infos[i]["episode"] = self._episode_summary(i)
        if not (self.auto_reset and len(done_rows)):
            observations = self._observe_batch(lane_all=lane_all)
            for i in done_rows:
                infos[i]["terminal_observation"] = {
                    key: value[i].copy() for key, value in observations.items()
                }
            return observations, rewards, dones, infos

        # Auto-reset: keep the finished episodes' last state, place the next
        # episodes' vehicles, and observe both in one stacked call — rows
        # [0, n) are the returned observations, rows n + j the terminal
        # observation of done_rows[j].
        terminal = [
            state[done_rows] for state in (self._s, self._d, self._heading, self._lin)
        ]
        lane_terminal = lane_all[done_rows]
        for i in done_rows:
            self._envs[i]._reset_state()
            self._sync_from_env(i)
        lane_all = lane_all.copy()
        lane_all[done_rows] = self._lane_of(self._d[done_rows])
        stacked = self._observe(
            *(
                np.concatenate([now, last])
                for now, last in zip(
                    (self._s, self._d, self._heading, self._lin, lane_all),
                    (*terminal, lane_terminal),
                )
            )
        )
        observations = {key: value[:n] for key, value in stacked.items()}
        for j, i in enumerate(done_rows):
            infos[i]["terminal_observation"] = {
                key: value[n + j] for key, value in stacked.items()
            }
        return observations, rewards, dones, infos

    def _step_fallback(self, actions: np.ndarray):
        """Generic path: step each wrapped env through its own scalar step."""
        n = self.num_envs
        per_env_obs = []
        rewards = np.zeros(n)
        dones = np.zeros(n, dtype=bool)
        infos: list[dict[str, Any]] = []
        for i, env in enumerate(self._envs):
            action_dict = {agent: actions[i, k] for k, agent in enumerate(env.agents)}
            obs, rew, done_dict, info = env.step(action_dict)
            rewards[i] = rew[env.agents[0]]
            dones[i] = done_dict["__all__"]
            step_info: dict[str, Any] = {"t": info["t"]}
            for k, agent in enumerate(env.agents):
                vehicle = env.vehicle(agent)
                self.lane_ids[i, k] = vehicle.lane_id
                self.lane_deviation[i, k] = vehicle.lane_deviation
            if dones[i]:
                step_info["episode"] = info.get("episode", env.episode_summary())
                step_info["terminal_observation"] = {
                    key: np.stack([obs[agent][key] for agent in env.agents])
                    for key in obs[env.agents[0]]
                }
                if self.auto_reset:
                    obs = env.reset()
            self._sync_from_env(i)
            per_env_obs.append(obs)
            infos.append(step_info)
        rewards = rewards.astype(self.obs_dtype, copy=False)
        return self._stack_obs(per_env_obs), rewards, dones, infos

    # ------------------------------------------------------------------
    # Vectorized kinematics and scripted-policy kernels
    # ------------------------------------------------------------------
    def _apply_kinematics(
        self, cols: slice, lin_cmd: np.ndarray, ang_cmd: np.ndarray, dt: float
    ) -> None:
        """Mirror ``Vehicle.apply_action`` elementwise for the given columns
        (crashed vehicles are frozen exactly as the scalar early-return does).
        """
        max_ang = self._max_ang[cols]
        lin = np.clip(lin_cmd, 0.0, self._max_lin[cols])
        ang = np.clip(ang_cmd, -max_ang, max_ang)
        heading = np.clip(
            wrap_angle(self._heading[:, cols] + ang * dt),
            -MAX_HEADING_ERROR,
            MAX_HEADING_ERROR,
        )
        ds = lin * np.cos(heading) * dt
        s = self._wrap(self._s[:, cols] + ds)
        d = self._d[:, cols] + lin * np.sin(heading) * dt
        advance = np.maximum(ds, 0.0)
        crashed = self._crashed[:, cols]
        # A crash ends the episode, so with auto-reset no vehicle is ever
        # crashed here and the freeze below is skipped.
        if crashed.any():
            alive = ~crashed
            lin = np.where(alive, lin, self._lin[:, cols])
            ang = np.where(alive, ang, self._ang[:, cols])
            heading = np.where(alive, heading, self._heading[:, cols])
            s = np.where(alive, s, self._s[:, cols])
            d = np.where(alive, d, self._d[:, cols])
            advance = np.where(alive, advance, 0.0)
        self._lin[:, cols] = lin
        self._ang[:, cols] = ang
        self._heading[:, cols] = heading
        self._s[:, cols] = s
        self._d[:, cols] = d
        self._distance[:, cols] += advance

    def _lane_centering_steer(self, cols: slice, gain: float) -> np.ndarray:
        """Vectorized lane-centering P-controller (traffic module's
        ``_lane_centering_steer``) for the given columns."""
        lane = self._lane_of(self._d[:, cols])
        lateral_error = self._lane_centers[lane] - self._d[:, cols]
        command = gain * lateral_error - 1.5 * gain * self._heading[:, cols]
        return np.clip(command, -0.3, 0.3)

    def _cruiser_commands(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``LaneKeepingCruiser`` command for scripted vehicle
        ``k``.

        Reads the same state the scalar sequential update exposes: learning
        vehicles pre-move, scripted vehicles ``j < k`` already moved.
        """
        policy: LaneKeepingCruiser = self._envs[0]._scripted_policy
        col = self.num_agents + k
        angular = self._lane_centering_steer(slice(col, col + 1), policy.steer_gain)

        # Brake toward the nearest same-lane leader within safe_gap
        # (sequential min over others == global min).
        lane = self._lane_of(self._d[:, col])
        gap = self._signed_gap(self._s[:, col, None], self._s)  # (n, v)
        same_lane = self._lane_of(self._d) == lane[:, None]
        mask = same_lane & (gap > 0.0) & (gap < policy.safe_gap)
        mask[:, col] = False
        blend = gap / policy.safe_gap
        candidates = np.where(
            mask,
            blend * policy.target_speed + (1 - blend) * self._lin,
            np.inf,
        )
        speed = np.minimum(policy.target_speed, candidates.min(axis=1))
        return speed, angular[:, 0]

    # ------------------------------------------------------------------
    # Vectorized geometry (each expression mirrors the scalar code path)
    # ------------------------------------------------------------------
    def _wrap(self, s: np.ndarray) -> np.ndarray:
        wrapped = np.mod(s, self._length)
        return np.where(wrapped >= self._length, 0.0, wrapped)

    def _signed_gap(self, s_from: np.ndarray, s_to: np.ndarray) -> np.ndarray:
        gap = self._wrap(s_to - s_from)
        return np.where(gap > self._length / 2.0, gap - self._length, gap)

    def _lane_of(self, d: np.ndarray) -> np.ndarray:
        index = np.floor((d + self._half_width) / self._lane_width).astype(np.int64)
        # np.clip on integers, without its per-call bound checks.
        np.maximum(index, 0, out=index)
        return np.minimum(index, self._num_lanes - 1, out=index)

    # ------------------------------------------------------------------
    # Batched observations
    # ------------------------------------------------------------------
    def _observe_batch(
        self, rows: np.ndarray | None = None, lane_all: np.ndarray | None = None
    ) -> ObsBatch:
        """Observations of every env, or of envs ``rows`` only.

        ``lane_all`` passes in the step's lane ids of every vehicle.
        """
        s, d, heading, lin = self._s, self._d, self._heading, self._lin
        if rows is not None:
            s, d, heading, lin = s[rows], d[rows], heading[rows], lin[rows]
        if lane_all is None:
            lane_all = self._lane_of(d)
        return self._observe(s, d, heading, lin, lane_all)

    def _observe(
        self,
        s: np.ndarray,
        d: np.ndarray,
        heading: np.ndarray,
        lin: np.ndarray,
        lane_all: np.ndarray,
    ) -> ObsBatch:
        """Observations of the given ``(m, num_vehicles)`` state rows.

        Every row is observed independently, so a row's observation does
        not depend on which other rows share the call.
        """
        a, v = self.num_agents, self._num_vehicles
        m = len(s)
        lane_onehot = self._lane_eye[lane_all[:, :a]]
        speed = np.array(lin[:, :a, None], dtype=self.obs_dtype)

        # Lidar: one raycast kernel call for all (env, agent) egos.
        positions = np.stack([s, d], axis=-1)  # (m, v, 2)
        origins = positions[:, :a].reshape(-1, 2)
        headings = heading[:, :a].reshape(-1)
        centers = positions[:, self._lidar_others].reshape(m * a, v - 1, 2)
        lidar = self._envs[0].lidar.scan_batch(
            origins,
            headings,
            centers,
            self._lidar_radii[: m * a],
            half_width=self._half_width,
            track_length=self._length,
        ).reshape(m, a, -1).astype(self.obs_dtype, copy=False)

        features = self._feature_batch(s, d, heading, lin, lane_all, lane_onehot)
        return {
            "lidar": lidar,
            "speed": speed,
            "lane_onehot": lane_onehot,
            "features": features,
        }

    def _feature_batch(
        self,
        s: np.ndarray,
        d: np.ndarray,
        heading: np.ndarray,
        lin: np.ndarray,
        lane_all: np.ndarray,
        lane_onehot: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :func:`repro.envs.sensors.feature_vector` of the envs
        whose state rows are given (``lane_all``: every vehicle's lane)."""
        a, num_lanes = self.num_agents, self._num_lanes
        horizon = 3.0

        lane = lane_all[:, :a]
        deviation = d[:, :a] - self._lane_centers[lane]

        # Signed periodic gap from each ego to every vehicle, self masked.
        gap = self._signed_gap(s[:, :a, None], s[:, None, :])  # (m, a, v)
        same_lane = lane_all[:, None, :] == lane[:, :, None]
        if num_lanes == 2:
            other_lane_id = 1 - lane
        else:
            other_lane_id = lane
        in_other_lane = lane_all[:, None, :] == other_lane_id[:, :, None]

        # Nearest vehicle within the horizon for [forward in the same lane,
        # forward in the other lane, behind in the other lane], stacked on
        # one axis so one masked minimum over vehicles serves all three.
        other = self._not_self & in_other_lane
        mask = np.stack([self._not_self & same_lane, other, other], axis=-2)
        gaps = np.stack([gap, gap, -gap], axis=-2)  # (m, a, 3, v)
        candidates = np.where(mask & (gaps > 0.0) & (gaps < horizon), gaps, horizon)
        nearest = candidates.min(axis=-1) / horizon  # (m, a, 3)

        # Allocated in the boundary dtype: every assignment below computes
        # in float64 and rounds exactly once on store.
        features = np.empty((len(s), a, 3 + num_lanes + 3), dtype=self.obs_dtype)
        features[:, :, 0] = deviation / self._lane_width
        features[:, :, 1] = heading[:, :a]
        features[:, :, 2] = lin[:, :a]
        features[:, :, 3 : 3 + num_lanes] = lane_onehot
        features[:, :, 3 + num_lanes :] = nearest
        return features

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _episode_summary(self, i: int) -> dict[str, float]:
        blocked = max(int(self._blocked[i].sum()), 1)
        count = int(self._speed_count[i])
        return {
            "episode_reward": float(self._episode_reward[i]),
            "collision": float(self._collision_happened[i]),
            "merge_success_rate": int(self._merged[i].sum()) / blocked,
            "mean_speed": float(self._speed_sum[i]) / count if count else 0.0,
            "length": float(self._t[i]),
        }

    # The flatten_high / flatten_low staticmethods are inherited from
    # VectorStepper (repro.envs.stepping) so the engine, the serving
    # stepper and all consumers share one observation layout definition.
