"""Batched policy inference: the one HERO actor.

:class:`BatchedHeroRunner` drives one :class:`~repro.core.hero.HeroTeam`
across the ``N`` environments of a
:class:`~repro.envs.stepping.VectorStepper` — the
:class:`~repro.envs.vector_env.VectorEnv` in training and in scoring a
run's recorded evaluations (``N == 1`` included), and the pose-only
:class:`~repro.envs.stepping.PoseStepper` where the envs are somewhere
else: the serving stack's client slots and the scalar env (or Table 2
testbed) :func:`~repro.core.trainer.evaluate_hero` steps.  The runner
only uses the shared stepping surface and flattens everything into
stacked arrays:

* low-level skill execution runs one ``(N, obs_dim)`` forward pass per
  (agent, skill) pair — batched over environments, grouped per agent so
  that at ``N == 1`` every network call has the per-agent ``(1, obs_dim)``
  shape (BLAS matmuls are not row-wise bit-stable across batch sizes, so
  shape-identical calls are what make greedy evaluation at one env
  bit-for-bit reproducible across the evaluators and the served policy),
* high-level option selection batches, per agent, every environment whose
  option just terminated through one actor forward,
* opponent intention inference goes through the opponent model's batched
  ``predict_probs_batch``,
* steering controllers read the exact vehicle pose from the stepper's
  ``agent_d`` / ``agent_heading`` arrays instead of un-normalising the
  feature vector (bit-identical to the controllers in
  :mod:`repro.envs.control`, which read ``vehicle.state`` directly).

Option machinery: each agent re-selects on its own clock when its option
terminates (asynchronous termination, Sec. III-B), rewards accumulate
into SMDP transitions, and keep-lane coasts at the previous speed with
lane-centering steering.  Every selection within a step sees the
*pre-step* options of the other agents.

Experience: the runner writes nothing into the team.
:meth:`BatchedHeroRunner.after_step` returns the experience completed
since its previous call and keeps none of it; the caller writes it with
:meth:`~repro.core.hero.HeroTeam.store`.

Opponent observations: without a bus, an agent's stored opponent options
and its opponent-model records are the other agents' executing options.
When the team carries a
:class:`~repro.distributed.DistributedObservationService` (the paper's
DTDE setting), they are what the agent last *heard* over the delayed,
lossy bus instead: :meth:`BatchedHeroRunner.after_step` exchanges every
env's executing options before recording.  Only a runner that calls
``after_step`` advances the bus.

Greedy evaluation (:func:`repro.core.trainer.evaluate_hero_vectorized`,
:func:`repro.core.trainer.evaluate_hero` and the scoring of a training
run's recorded evaluations) drives :meth:`BatchedHeroRunner.act` with
``explore=False`` and **never calls** :meth:`BatchedHeroRunner.after_step`:
each agent selects one option at episode start and runs its skill to the
end of the episode, without completing transitions, recording opponents
or exchanging.  Scoring selects each record's rows on their own
(:meth:`BatchedHeroRunner.select_options`), with that record's snapshot
loaded into the team.
"""

from __future__ import annotations

import numpy as np

from ..config import OptionBounds
from ..envs.control import HEADING_CAP, HEADING_GAIN
from ..envs.stepping import VectorStepper
from ..envs.vehicle import Vehicle
from ..nn import get_default_dtype, one_hot, sample_categorical
from ..training.replay import OptionTransition
from .hero import HeroTeam
from .options import KEEP_LANE, LANE_CHANGE, _always, _can_change_lane

__all__ = ["BatchedHeroRunner"]


class BatchedHeroRunner:
    """Vectorized acting/learning plumbing for one team over N envs."""

    def __init__(self, team: HeroTeam, vec_env: VectorStepper):
        self.team = team
        self.vec_env = vec_env
        self.agents = list(team.env.agents)
        self.option_set = team.option_set
        self.num_envs = vec_env.num_envs
        self.num_agents = vec_env.num_agents
        self.num_options = self.option_set.num_options
        self.num_opponents = self.num_agents - 1

        track = vec_env.track
        self._track = track
        self._lane_centers = np.array(
            [track.lane_center(lane) for lane in range(track.num_lanes)]
        )
        # The default option set's initiation predicates depend only on the
        # track, so availability is one static mask, probed with a vehicle
        # on the track.  A custom predicate could inspect per-step vehicle
        # state, which a mask baked at construction would silently freeze —
        # reject it.
        for option in self.option_set:
            if option.initiation not in (_always, _can_change_lane):
                raise ValueError(
                    f"option {option.name!r} has a custom initiation "
                    "predicate; the batched runner precomputes a static "
                    "availability mask and cannot evaluate state-dependent "
                    "initiation sets"
                )
        probe = Vehicle(0, track)
        self._available = np.array(
            [option.can_initiate(probe) for option in self.option_set]
        )
        self._bounds = self._bound_table(self.option_set)

        n, a = self.num_envs, self.num_agents
        # Column k's opponents, in agent order: (a, a - 1).
        self._others = np.array(
            [[j for j in range(a) if j != k] for k in range(a)], dtype=np.int64
        ).reshape(a, max(a - 1, 0))
        obs_dim = vec_env.high_level_obs_dim
        self._option = np.full((n, a), KEEP_LANE, dtype=np.int64)
        self._steps_in_option = np.zeros((n, a), dtype=np.int64)
        self._start_lane = np.zeros((n, a), dtype=np.int64)
        self._target_lane = np.zeros((n, a), dtype=np.int64)
        self._acc_reward = np.zeros((n, a))
        self._needs_new = np.ones((n, a), dtype=bool)
        self._pending_valid = np.zeros((n, a), dtype=bool)
        self._pending_obs = np.zeros((n, a, obs_dim), dtype=get_default_dtype())
        self._pending_other = np.zeros((n, a, max(self.num_opponents, 1)), np.int64)
        self._observed_other = np.zeros((n, a, max(self.num_opponents, 1)), np.int64)
        # Per agent, the transitions completed since the last after_step.
        self._transitions: list[list[OptionTransition]] = [[] for _ in range(a)]
        self.sync_observed_options()
        self._last_action = np.zeros((n, a, 2))
        self.lane_change_attempts = np.zeros(n, dtype=np.int64)
        self.lane_change_successes = np.zeros(n, dtype=np.int64)
        self.start_all()

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        for i in range(self.num_envs):
            self.start_episode(i)

    def sync_observed_options(self, rows=slice(None)) -> None:
        """Pull each agent's last-observed opponent options from the team.

        ``opponent_mode='observed'`` actors condition on
        ``HighLevelAgent._last_observed_options``, which rollouts update as
        episodes run.  A runner built mid-training (e.g. a fresh evaluation
        runner) starts from zeroed state; broadcasting the team's current
        values into the env ``rows`` (default: all) makes their next option
        selection see the opponents the team last observed.  Called at
        construction, by :func:`repro.core.trainer.evaluate_hero_vectorized`
        before each evaluation sweep and by :meth:`select_options`.
        """
        if not self.num_opponents:
            return
        for k, agent_id in enumerate(self.agents):
            hl = self.team.agents[agent_id].high_level
            self._observed_other[rows, k] = hl._last_observed_options

    def start_episode(self, i: int | np.ndarray) -> None:
        """Reset per-env execution state of env(s) ``i``."""
        self._option[i] = KEEP_LANE
        self._steps_in_option[i] = 0
        self._acc_reward[i] = 0.0
        self._needs_new[i] = True
        self._pending_valid[i] = False
        self._last_action[i] = (self.vec_env.scenario.initial_speed, 0.0)
        self.lane_change_attempts[i] = 0
        self.lane_change_successes[i] = 0

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def act(
        self,
        obs: dict[str, np.ndarray],
        epsilon: float | np.ndarray = 0.0,
        explore: bool = True,
    ) -> np.ndarray:
        """Batched primitive actions for every (env, agent) pair.

        ``epsilon`` may be a scalar or a per-env ``(num_envs,)`` array (each
        env can sit at a different point of the exploration schedule).
        Returns actions of shape ``(num_envs, num_agents, 2)``.
        """
        high = VectorStepper.flatten_high(obs)  # (n, a, Dh)
        lane = obs["lane_onehot"].argmax(axis=-1)  # (n, a)
        epsilon = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), (self.num_envs,))

        if self._needs_new.any():
            self._choose_options(high, lane, epsilon, explore)
        return self._low_level_actions(obs, lane, explore)

    def select_options(self, obs: dict[str, np.ndarray], rows) -> None:
        """Greedy option selection for the env ``rows`` only.

        Every agent of those rows that awaits an option picks it as
        :meth:`act` would with ``explore=False``, from the team's acting
        parameters and last-observed opponent options as they are now;
        the other rows keep waiting.  Scoring recorded evaluations loads
        one record's snapshot into the team, selects that record's rows
        and moves on to the next record, so every row starts its episode
        with its own record's options.
        """
        self.sync_observed_options(rows)
        only = np.zeros(self.num_envs, dtype=bool)
        only[rows] = True
        self._choose_options(
            VectorStepper.flatten_high(obs),
            obs["lane_onehot"].argmax(axis=-1),
            np.zeros(self.num_envs),
            explore=False,
            only=only,
        )

    def _choose_options(
        self,
        high: np.ndarray,
        lane: np.ndarray,
        epsilon: np.ndarray,
        explore: bool,
        only: np.ndarray | None = None,
    ) -> None:
        needs = self._needs_new.copy()
        if only is not None:
            needs &= only[:, None]
        chosen = self._option.copy()
        for k, agent_id in enumerate(self.agents):
            rows = np.flatnonzero(needs[:, k])
            if rows.size == 0:
                continue
            hl = self.team.agents[agent_id].high_level
            obs_rows = high[rows, k]
            self._flush(k, rows, next_obs=obs_rows, done=False)

            rep = self._opponent_input(hl, obs_rows, rows, k)
            logits = hl.actor.logits_inference(
                np.concatenate([obs_rows, rep], axis=-1)
            )
            logits = np.where(self._available, logits, -1e9)
            if explore:
                choice = sample_categorical(logits, hl._rng)
                random_mask = hl._rng.uniform(size=rows.size) < epsilon[rows]
                if random_mask.any():
                    choices = np.flatnonzero(self._available)
                    choice = np.where(
                        random_mask,
                        hl._rng.choice(choices, size=rows.size),
                        choice,
                    )
            else:
                choice = logits.argmax(axis=-1)
            chosen[rows, k] = choice

        # Start the chosen options of every selecting (env, agent) pair at
        # once; every selection above saw the pre-step options.
        changing = needs & (chosen == LANE_CHANGE)
        num_lanes = self._track.num_lanes
        if num_lanes == 2:
            target_lane = np.where(changing, 1 - lane, lane)
        elif num_lanes > 1:
            target_lane = np.where(changing, (lane + 1) % num_lanes, lane)
        else:
            target_lane = lane
        if self.num_opponents:
            np.copyto(self._pending_other, self._heard_options(), where=needs[..., None])
        np.copyto(self._option, chosen, where=needs)
        np.copyto(self._start_lane, lane, where=needs)
        np.copyto(self._target_lane, target_lane, where=needs)
        np.copyto(self._pending_obs, high, where=needs[..., None])
        self._steps_in_option[needs] = 0
        self._acc_reward[needs] = 0.0
        self._pending_valid |= needs
        self._needs_new[needs] = False
        self.lane_change_attempts += changing.sum(axis=1)

    def _opponent_input(
        self, hl, obs_rows: np.ndarray, rows: np.ndarray, k: int
    ) -> np.ndarray:
        """Batched opponent-intention representation (one actor's view)."""
        batch = len(obs_rows)
        if hl.num_opponents == 0:
            return np.zeros((batch, 0), dtype=get_default_dtype())
        if hl.opponent_mode == "model":
            return hl.opponent_model.predict_probs_batch(obs_rows).reshape(batch, -1)
        if hl.opponent_mode == "observed":
            return one_hot(self._observed_other[rows, k], hl.num_options).reshape(
                batch, -1
            )
        return np.zeros(
            (batch, hl.num_opponents * hl.num_options), dtype=get_default_dtype()
        )

    # ------------------------------------------------------------------
    # Low-level skill execution (the (N*agents, obs) forward passes)
    # ------------------------------------------------------------------
    def _low_level_actions(
        self, obs: dict[str, np.ndarray], lane: np.ndarray, explore: bool
    ) -> np.ndarray:
        n, a = self.num_envs, self.num_agents
        option = self._option
        keep = option == KEEP_LANE
        changing = option == LANE_CHANGE
        merge_direction = np.where(
            changing,
            np.sign(self._target_lane - self._start_lane).astype(get_default_dtype()),
            0.0,
        )
        obs_low = np.concatenate(
            [
                obs["features"],
                obs["speed"],
                obs["lane_onehot"],
                merge_direction[..., None],
            ],
            axis=-1,
        )  # (n, a, obs_dim)

        # Exact vehicle pose: the control.py controllers read vehicle.state
        # directly, so read the same doubles from the stepper instead of
        # un-normalising the feature vector (which rounds).
        d = self.vec_env.agent_d
        heading = self.vec_env.agent_heading

        # One (n_rows, obs_dim) forward per (agent, skill) pair.  Grouping
        # by agent column — not one flattened (n*a, obs_dim) batch — gives
        # every network call at num_envs == 1 the per-agent (1, obs_dim)
        # shape in agent order, which is what makes greedy evaluation
        # bit-for-bit reproducible; BLAS matmuls do not guarantee row-wise
        # equality across batch sizes.  The driving-in-lane skill executes
        # slow-down and accelerate (shared network, per-option bounds).
        # Everything after the forwards is elementwise, so it runs once
        # over all pairs.
        skills = self.team.skills
        raw = np.zeros((n, a, 2))
        raw_dtype = raw.dtype
        driving_cols = (~keep & ~changing).T
        changing_cols = changing.T
        for k in range(a):
            for skill, column in (
                (skills.driving_in_lane, driving_cols[k]),
                (skills.lane_change, changing_cols[k]),
            ):
                rows = np.flatnonzero(column)
                if rows.size:
                    out = self._skill_forward(skill, obs_low[rows, k], explore)
                    raw[rows, k] = out
                    raw_dtype = out.dtype
        bounded = self._clip_bounds(raw, option).astype(raw_dtype, copy=False)

        # Keep-lane: coast at the previous linear speed with lane-centering
        # steering (repro.envs.control.lane_keep_command, vectorized).
        lateral_error = self._lane_centers[lane] - d
        keep_angular = np.clip(0.8 * lateral_error - 1.5 * 0.8 * heading, -0.1, 0.1)

        # Lane change: steering sign from the merge-direction controller
        # (repro.envs.control.lane_change_steer_sign, vectorized).
        target_d = self._lane_centers[self._target_lane]
        desired = np.clip(
            HEADING_GAIN * (target_d - d), -HEADING_CAP, HEADING_CAP
        )
        heading_error = desired - heading
        sign = np.where(np.abs(heading_error) <= 1e-6, 0.0, np.sign(heading_error))

        actions = np.empty((n, a, 2))
        actions[..., 0] = np.where(keep, self._last_action[..., 0], bounded[..., 0])
        actions[..., 1] = np.where(
            keep,
            keep_angular,
            np.where(changing, sign * np.abs(bounded[..., 1]), bounded[..., 1]),
        )
        self._last_action = actions.copy()
        return actions

    @staticmethod
    def _skill_forward(skill, obs_rows: np.ndarray, explore: bool) -> np.ndarray:
        """One batched SAC-actor forward for every row needing this skill."""
        return skill.actor.act_batch(obs_rows, skill._rng if explore else None)

    @staticmethod
    def _bound_table(option_set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-option action bounds as stacked arrays.

        Returns ``(low, high, signed)``: ``(num_options, 2)`` bounds, with
        ``+/-inf`` for options without bounds (which pass every value
        through unchanged), and whether the angular bound keeps the sign
        (a non-negative angular low).
        """
        num_options = option_set.num_options
        low = np.full((num_options, 2), -np.inf)
        high = np.full((num_options, 2), np.inf)
        signed = np.zeros(num_options, dtype=bool)
        for index in range(num_options):
            bounds: OptionBounds | None = option_set[index].bounds
            if bounds is not None:
                low[index], high[index] = bounds.as_arrays()
                signed[index] = low[index, 1] >= 0.0
        return low, high, signed

    def _clip_bounds(self, raw: np.ndarray, option: np.ndarray) -> np.ndarray:
        """Clip each ``(env, agent)`` row to its option's bounds, in float64.

        A non-negative angular low bound is one-sided: the angular
        magnitude is clipped and its sign kept (zero counts as positive).
        """
        low, high, signed = self._bounds
        low, high = low[option], high[option]
        out = np.clip(raw, low, high)
        angular = raw[..., 1]
        sign = np.sign(angular)
        sign[sign == 0.0] = 1.0
        out[..., 1] = np.where(
            signed[option],
            sign * np.clip(np.abs(angular), low[..., 1], high[..., 1]),
            out[..., 1],
        )
        return out

    # ------------------------------------------------------------------
    # Learning plumbing
    # ------------------------------------------------------------------
    def after_step(
        self,
        next_obs: dict[str, np.ndarray],
        rewards: np.ndarray,
        dones: np.ndarray,
        infos: list[dict],
    ) -> tuple[list[dict], tuple]:
        """Account rewards and option termination for one env step.

        Returns ``(stats, experience)``: one stats dict per env that
        finished an episode this step (episode summary plus the env's
        lane-change counters), and ``(transitions, records, observed)``
        for :meth:`~repro.core.hero.HeroTeam.store`.  Per agent in env
        order, those are the SMDP transitions completed since the previous
        call, this step's opponent-model ``(obs, options)`` batch (``None``
        unless ``opponent_mode='model'``), and env 0's ``(agents,
        agents - 1)`` view of the opponents (``None`` without opponents).
        """
        next_high = VectorStepper.flatten_high(next_obs)  # reset obs for done envs
        done_idx = np.flatnonzero(dones)
        terminal_high = next_high.copy()
        for i in done_idx:
            term = infos[i]["terminal_observation"]
            terminal_high[i] = np.concatenate(
                [term["lidar"], term["speed"], term["lane_onehot"]], axis=-1
            )

        self._acc_reward += np.asarray(rewards)[:, None]
        self._steps_in_option += 1

        # Asynchronous option termination (vectorized OptionSet betas).
        lane = self.vec_env.lane_ids
        deviation = self.vec_env.lane_deviation
        reached = (lane == self._target_lane) & (
            deviation < 0.25 * self._track.lane_width
        )
        is_change = self._option == LANE_CHANGE
        terminated = np.where(
            is_change,
            reached | (self._steps_in_option >= self.option_set.lane_change_max_steps),
            self._steps_in_option >= self.option_set.option_duration,
        )
        success = terminated & is_change & reached
        self.lane_change_successes += success.sum(axis=1)

        service = self.team.observation_service
        if service is not None:
            service.exchange(self._option)
        records, observed = self._record_opponents(terminal_high)

        stats: list[dict] = []
        for i in done_idx:
            for k in range(self.num_agents):
                self._flush(k, np.array([i]), next_obs=terminal_high[[i], k], done=True)
            stats.append(
                {
                    "env": int(i),
                    "episode": infos[i]["episode"],
                    "lane_change_attempts": int(self.lane_change_attempts[i]),
                    "lane_change_successes": int(self.lane_change_successes[i]),
                }
            )
        if len(done_idx):
            self.start_episode(done_idx)  # also flags their first selection
        self._needs_new |= terminated
        experience = (self._transitions, records, observed)
        self._transitions = [[] for _ in range(self.num_agents)]
        return stats, experience

    def _heard_options(self) -> np.ndarray:
        """``(n, a, a - 1)`` options each agent observes of its opponents:
        their executing options, or what it last heard over the team's
        bus."""
        service = self.team.observation_service
        if service is None:
            return self._option[:, self._others]
        return service.observed_options(self.num_envs)

    def _record_opponents(self, next_high: np.ndarray) -> tuple[list, np.ndarray | None]:
        """This step's per-agent opponent-model records (one row per env)
        and env 0's view of the opponents."""
        if not self.num_opponents:
            return [None] * self.num_agents, None
        # The records are views of next_high and observed, which are both
        # fresh each step and never written after this.
        observed = self._heard_options()  # (n, a, a - 1)
        self._observed_other[:] = observed
        records = [
            (next_high[:, k], observed[:, k])
            if self.team.agents[agent_id].high_level.opponent_mode == "model"
            else None
            for k, agent_id in enumerate(self.agents)
        ]
        return records, observed[0]

    def _flush(self, k: int, rows: np.ndarray, next_obs: np.ndarray, done: bool) -> None:
        """Complete agent ``k``'s pending SMDP transitions in ``rows``."""
        for idx, i in enumerate(rows):
            if not self._pending_valid[i, k] or self._steps_in_option[i, k] == 0:
                continue
            other = (
                self._pending_other[i, k].copy()
                if self.num_opponents
                else np.zeros(1, dtype=np.int64)
            )
            self._transitions[k].append(
                OptionTransition(
                    obs=self._pending_obs[i, k].copy(),
                    option=int(self._option[i, k]),
                    other_options=other,
                    reward=float(self._acc_reward[i, k]),
                    next_obs=next_obs[idx].copy(),
                    done=done,
                    steps=int(self._steps_in_option[i, k]),
                )
            )
            self._pending_valid[i, k] = False
