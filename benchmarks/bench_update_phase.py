"""Update-phase microbenchmark: fused engine vs. the seed per-loop path.

Not a paper table — this is the scaling guard for the gradient-update hot
path added by ISSUE 4.  The *seed reference* below reconstructs the update
step as it shipped before the fused engine landed: an unfused tape graph
(one matmul node plus one add node per Linear), TD targets built on the
autograd tape, the SAC actor pass backpropagating through the critic, a
per-parameter Python Adam loop, and one network update at a time.  The
engines' correctness oracle is ``tests/reference_updates.py`` (the
per-network steps on the fused tape and the flat ``repro.nn.Adam``, which
``tests/test_update_engine.py`` holds every engine to); here the seed
reconstruction is only the *timing* baseline.

The contract: at the batch sizes the in-tree paper-reproduction
experiments train with (high-level/IDQN 128, SAC 256 — see
``experiments/common.py``), one fused update round for HERO skills +
high-level team + IDQN is **at least 3x** faster than the seed per-loop
round.  At Table I's batch 1024 the update is BLAS-bound and the fused
gain drops to ~1.8x (documented in docs/REPRODUCING.md).

ISSUE 9 adds the precision axis: the same fused round built under
``--dtype float32`` must be **at least 1.7x** faster than the float64
build at Table I's batch 1024 (``test_float32_update_speedup``) — the
BLAS-bound regime where halving element width pays directly — and
``test_update_engine_cycle_f32`` records the float32 round for the CI
perf gate next to the float64 ``test_update_engine_cycle``.

ISSUE 10 closes the family: the cross-family engines for MADDPG and MAAC
(actor gradient routed through a frozen stacked critic family) are each
measured against their own seed reconstruction — the per-agent Python
loop over unfused tape graphs with per-parameter Adam, exactly the shape
the delegation fallback used to run — and must clear the same **3x** bar
(``test_maddpg_update_speedup`` / ``test_maac_update_speedup``).
``test_update_engine_cycle_maddpg`` / ``_maac`` feed the gate.

``test_update_phase_speedup`` and the two per-method checks measure and
assert their ratios in alternating paired windows
(``_assert_paired_speedup``); the ``benchmark``-fixture tests record
per-cycle costs that feed the CI perf gate
(``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

from repro.baselines import make_baseline
from repro.config import ScenarioConfig
from repro.core import HeroTeam, UpdateEngine
from repro.core.low_level import SACAgent
from repro.envs import CooperativeLaneChangeEnv, make_baseline_env
from repro.nn import (
    Tensor,
    clip_grad_norm,
    entropy_from_logits,
    gumbel_softmax,
    mse_loss,
    nll_loss,
    one_hot,
    sample_categorical,
    soft_update,
    softmax,
)
from repro.nn.functional import log_softmax
from repro.nn.layers import Identity, Linear
from repro.nn.networks import LOG_STD_MAX, LOG_STD_MIN
from repro.nn.tensor import concatenate, default_dtype
from repro.training.replay import OptionTransition
from repro.utils.jobs import usable_cpus

TARGET_SPEEDUP = 3.0
TARGET_F32_SPEEDUP = 1.7  # float32 over float64, fused round, batch 1024
N_UPDATE_ROUNDS = int(os.environ.get("REPRO_BENCH_UPDATE_STEPS", "20"))
HIGH_LEVEL_BATCH = 128  # experiments/common.py train_hero_method batch size
SAC_BATCH = 256  # SACAgent default (skill training)
IDQN_BATCH = 128  # baseline default
TABLE1_BATCH = 1024  # Table I batch size (the BLAS-bound regime)


# ----------------------------------------------------------------------
# Seed-style building blocks (the pre-engine implementation, for timing)
# ----------------------------------------------------------------------
class SeedAdam:
    """The seed per-parameter Adam loop, expression for expression."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for param in self.params:
            param.grad = None

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _tape_forward(net, x: Tensor) -> Tensor:
    """Seed-style unfused forward: matmul node + add node per Linear."""
    for child in net.children:
        if isinstance(child, Linear):
            x = x @ child.weight
            if child.bias is not None:
                x = x + child.bias
        elif isinstance(child, Identity):
            pass
        else:
            x = child(x)
    return x


def _seed_infer(net, x: np.ndarray) -> np.ndarray:
    """The seed Sequential.infer: allocating adds and np.where relu."""
    from repro.nn.layers import ReLU

    x = np.asarray(x, dtype=np.float64)
    for child in net.children:
        if isinstance(child, Linear):
            x = x @ child.weight.data
            if child.bias is not None:
                x = x + child.bias.data
        elif isinstance(child, ReLU):
            x = np.where(x > 0, x, 0.0)
        elif isinstance(child, Identity):
            pass
        else:
            x = child(Tensor(x)).data
    return x


def _seed_probs_inference(policy, obs: np.ndarray) -> np.ndarray:
    logits = _seed_infer(policy.trunk.net, obs)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _seed_opponent_rep_batch(high, obs: np.ndarray) -> np.ndarray:
    """Seed HighLevelAgent._opponent_rep_batch (mode 'model'): one
    probs_inference per opponent predictor."""
    batch = len(obs)
    if high.num_opponents == 0:
        return np.zeros((batch, 0))
    probs = np.stack(
        [
            _seed_probs_inference(pred, obs)
            for pred in high.opponent_model.predictors
        ],
        axis=1,
    )
    return probs.reshape(batch, -1)


def _seed_sample(policy, obs, rng):
    """Seed SquashedGaussianPolicy.sample on the unfused tape."""
    out = _tape_forward(policy.trunk.net, Tensor(np.asarray(obs, dtype=np.float64)))
    mean = out[:, : policy.action_dim]
    log_std = out[:, policy.action_dim :].clip(LOG_STD_MIN, LOG_STD_MAX)
    std = log_std.exp()
    noise = Tensor(rng.standard_normal(mean.shape))
    pre_tanh = mean + std * noise
    squashed = pre_tanh.tanh()
    action = squashed * Tensor(policy._action_scale) + Tensor(policy._action_offset)
    log_prob = (-0.5 * ((noise * noise) + Tensor(np.log(2.0 * np.pi))) - log_std).sum(
        axis=-1
    )
    inner = Tensor(np.log(2.0)) - pre_tanh - (pre_tanh * -2.0).softplus()
    log_prob = log_prob - (inner * 2.0).sum(axis=-1)
    log_prob = log_prob - float(np.sum(np.log(policy._action_scale)))
    return action, log_prob


def _seed_q(qnet, obs, action) -> Tensor:
    action = action if isinstance(action, Tensor) else Tensor(action)
    x = concatenate([Tensor(obs), action], axis=-1)
    return _tape_forward(qnet.trunk.net, x).squeeze(-1)


def _seed_min_q(twin, obs, action) -> Tensor:
    return _seed_q(twin.q1, obs, action).minimum(_seed_q(twin.q2, obs, action))


def seed_sac_update(agent: SACAgent, critic_opt: SeedAdam, actor_opt: SeedAdam):
    """The seed SACAgent.update: tape targets, actor-through-critic backward."""
    if len(agent.buffer) < agent.batch_size // 4 or len(agent.buffer) < 8:
        return None
    batch = agent.buffer.sample(agent.batch_size, agent._rng)

    next_action, next_log_prob = _seed_sample(
        agent.actor, batch["next_obs"], agent._rng
    )
    target_q = _seed_min_q(agent.target_critic, batch["next_obs"], next_action.detach())
    soft_target = target_q.data - agent.alpha * next_log_prob.data
    y = batch["rewards"] + agent.gamma * (1.0 - batch["dones"]) * soft_target

    q1 = _seed_q(agent.critic.q1, batch["obs"], batch["actions"])
    q2 = _seed_q(agent.critic.q2, batch["obs"], batch["actions"])
    critic_loss = mse_loss(q1, y) + mse_loss(q2, y)
    critic_opt.zero_grad()
    critic_loss.backward()
    clip_grad_norm(agent.critic.parameters(), agent.grad_clip)
    critic_opt.step()

    new_action, log_prob = _seed_sample(agent.actor, batch["obs"], agent._rng)
    # Seed behaviour: the critic is NOT stop-gradiented here; its gradient
    # buffers are filled and thrown away (the wasted backward ISSUE 4's
    # satellite removed from the live path).
    q_new = _seed_min_q(agent.critic, batch["obs"], new_action)
    actor_loss = (log_prob * agent.alpha - q_new).mean()
    actor_opt.zero_grad()
    actor_loss.backward()
    clip_grad_norm(agent.actor.parameters(), agent.grad_clip)
    actor_opt.step()

    if agent.auto_alpha:
        entropy_gap = float((log_prob.data + agent.target_entropy).mean())
        agent._log_alpha -= agent.lr * entropy_gap
        agent._log_alpha = float(np.clip(agent._log_alpha, -10.0, 2.0))
    soft_update(agent.target_critic, agent.critic, agent.tau)
    return {"critic_loss": critic_loss.item(), "actor_loss": actor_loss.item()}


def seed_high_level_update(high, critic_opt, actor_opt, opponent_opts):
    """The seed HighLevelAgent.update (+ opponent model), one network at a time."""
    if len(high.buffer) < max(high.batch_size // 4, 8):
        return None
    batch = high.buffer.sample(high.batch_size, high._rng)
    batch_size = len(batch["obs"])

    own_onehot = one_hot(batch["options"], high.num_options)
    other_onehot = one_hot(batch["other_options"], high.num_options).reshape(
        batch_size, -1
    )
    if high.num_opponents == 0:
        other_onehot = np.zeros((batch_size, 0))

    next_other_rep = _seed_opponent_rep_batch(high, batch["next_obs"])
    next_actor_in = np.concatenate([batch["next_obs"], next_other_rep], axis=-1)
    next_own_probs = _seed_probs_inference(high.actor, next_actor_in)
    target_in = np.concatenate(
        [batch["next_obs"], next_own_probs, next_other_rep], axis=-1
    )
    next_q = _seed_infer(high.target_critic.net, target_in)[:, 0]
    discount = high.gamma ** batch["steps"]
    y = batch["rewards"] + discount * (1.0 - batch["dones"]) * next_q

    critic_in = np.concatenate([batch["obs"], own_onehot, other_onehot], axis=-1)
    q_values = _tape_forward(high.critic.net, Tensor(critic_in)).squeeze(-1)
    critic_loss = mse_loss(q_values, y)
    critic_opt.zero_grad()
    critic_loss.backward()
    clip_grad_norm(high.critic.parameters(), high.grad_clip)
    critic_opt.step()

    other_rep = _seed_opponent_rep_batch(high, batch["obs"])
    actor_in = np.concatenate([batch["obs"], other_rep], axis=-1)
    logits = _tape_forward(high.actor.trunk.net, Tensor(actor_in))
    log_probs = log_softmax(logits, axis=-1)
    probs = log_probs.exp()
    q_all = np.stack(
        [
            _seed_infer(
                high.critic.net,
                np.concatenate(
                    [
                        batch["obs"],
                        one_hot(np.full(batch_size, option), high.num_options),
                        other_onehot,
                    ],
                    axis=-1,
                ),
            )[:, 0]
            for option in range(high.num_options)
        ],
        axis=1,
    )
    if high.use_baseline:
        probs_data = np.exp(log_probs.data)
        advantage = q_all - (probs_data * q_all).sum(axis=1, keepdims=True)
    else:
        advantage = q_all
    entropy = entropy_from_logits(logits).mean()
    actor_loss = -(probs * Tensor(advantage)).sum(axis=1).mean() - (
        entropy * high.entropy_coef
    )
    actor_opt.zero_grad()
    actor_loss.backward()
    clip_grad_norm(high.actor.parameters(), high.grad_clip)
    actor_opt.step()
    soft_update(high.target_critic, high.critic, high.tau)

    model = high.opponent_model
    if high.opponent_mode == "model" and model.num_opponents and len(model.history) >= 8:
        hist = model.history.sample(model.batch_size, high._rng)
        for j, (predictor, opt) in enumerate(zip(model.predictors, opponent_opts)):
            logits = _tape_forward(predictor.trunk.net, Tensor(hist["obs"]))
            log_probs = log_softmax(logits, axis=-1)
            nll = nll_loss(log_probs, hist["options"][:, j])
            entropy = entropy_from_logits(logits).mean()
            loss = nll - entropy * model.entropy_coef
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(predictor.parameters(), model.grad_clip)
            opt.step()
    return {"critic_loss": critic_loss.item(), "actor_loss": actor_loss.item()}


def seed_idqn_update(algo, optimizers):
    """The seed IndependentDQN.update: tape targets, one agent at a time."""
    if any(len(b) < max(algo.batch_size // 4, 8) for b in algo.buffers.values()):
        return None
    losses = {}
    for agent in algo.agent_ids:
        batch = algo.buffers[agent].sample(algo.batch_size, algo._rng)
        q_net = algo.q_networks[agent]
        target_net = algo.target_networks[agent]
        action_idx = batch["actions"].astype(np.int64)
        next_q_target = _tape_forward(
            target_net.trunk.net, Tensor(batch["next_obs"])
        ).data
        if algo.double_q:
            next_best = (
                _tape_forward(q_net.trunk.net, Tensor(batch["next_obs"]))
                .data.argmax(axis=1)
            )
            next_value = np.take_along_axis(
                next_q_target, next_best[:, None], axis=1
            )[:, 0]
        else:
            next_value = next_q_target.max(axis=1)
        y = batch["rewards"] + algo.gamma * (1.0 - batch["dones"]) * next_value
        q_chosen = (
            _tape_forward(q_net.trunk.net, Tensor(batch["obs"]))
            .gather(action_idx, axis=-1)
            .squeeze(-1)
        )
        loss = mse_loss(q_chosen, y)
        optimizers[agent].zero_grad()
        loss.backward()
        clip_grad_norm(q_net.parameters(), algo.grad_clip)
        optimizers[agent].step()
        soft_update(target_net, q_net, algo.tau)
        losses[f"{agent}/q_loss"] = loss.item()
    return losses


def seed_maddpg_update(algo, critic_opts, actor_opts):
    """The seed MADDPG.update: unfused tape, one agent at a time, per-param
    Adam — the shape the delegation fallback ran before the cross-family
    engine (ISSUE 10)."""
    if len(algo.buffer) < max(algo.batch_size // 4, 8):
        return None
    batch = algo.buffer.sample(algo.batch_size, algo._rng)
    batch_size = len(batch["dones"])
    n = algo.num_agents

    joint_obs = batch["obs"].reshape(batch_size, -1)
    joint_next_obs = batch["next_obs"].reshape(batch_size, -1)
    joint_actions = one_hot(batch["actions"], algo.num_actions).reshape(
        batch_size, -1
    )
    target_next = [
        one_hot(
            _seed_infer(
                algo.target_actors[j].trunk.net, batch["next_obs"][:, j]
            ).argmax(-1),
            algo.num_actions,
        )
        for j in range(n)
    ]
    joint_next_actions = np.concatenate(target_next, axis=-1)

    losses = {}
    for i, agent in enumerate(algo.agent_ids):
        target_q = _seed_infer(
            algo.target_critics[i].net,
            np.concatenate([joint_next_obs, joint_next_actions], axis=-1),
        )[:, 0]
        y = batch["rewards"][:, i] + algo.gamma * (1.0 - batch["dones"]) * target_q
        q = _tape_forward(
            algo.critics[i].net,
            Tensor(np.concatenate([joint_obs, joint_actions], axis=-1)),
        ).squeeze(-1)
        critic_loss = mse_loss(q, y)
        critic_opts[i].zero_grad()
        critic_loss.backward()
        clip_grad_norm(algo.critics[i].parameters(), algo.grad_clip)
        critic_opts[i].step()

        logits = _tape_forward(algo.actors[i].trunk.net, Tensor(batch["obs"][:, i]))
        own_action = gumbel_softmax(
            logits, algo._rng, temperature=algo.temperature, hard=True
        )
        other_actions = one_hot(batch["actions"], algo.num_actions)
        pieces = [
            own_action if j == i else Tensor(other_actions[:, j]) for j in range(n)
        ]
        critic_input = concatenate([Tensor(joint_obs)] + pieces, axis=-1)
        critic_params = algo.critics[i].parameters()
        for param in critic_params:
            param.requires_grad = False
        try:
            actor_loss = -_tape_forward(algo.critics[i].net, critic_input).mean()
            actor_opts[i].zero_grad()
            actor_loss.backward()
        finally:
            for param in critic_params:
                param.requires_grad = True
        clip_grad_norm(algo.actors[i].parameters(), algo.grad_clip)
        actor_opts[i].step()

        soft_update(algo.target_critics[i], algo.critics[i], algo.tau)
        soft_update(algo.target_actors[i], algo.actors[i], algo.tau)
        losses[f"{agent}/critic_loss"] = critic_loss.item()
        losses[f"{agent}/actor_loss"] = actor_loss.item()
    return losses


def _seed_attention(attention, queries, keys_values, mask):
    """The seed tape attention: one masked softmax pass per head, then the
    output projection."""
    heads = []
    for head in attention.heads:
        q = head.query_proj(queries)
        k = head.key_proj(keys_values)
        v = head.value_proj(keys_values)
        scores = (q @ k.transpose(0, 2, 1)) * head.scale
        scores = scores + Tensor(np.where(mask, 0.0, -1e9))
        heads.append(softmax(scores, axis=-1) @ v)
    return attention.out_proj(concatenate(heads, axis=-1))


def _seed_logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    max_val = logits.max(axis=-1, keepdims=True)
    return max_val + np.log(np.exp(logits - max_val).sum(axis=-1, keepdims=True))


def _seed_attention_rows(critic, obs, actions):
    """The seed attention-critic forward: unfused encoder/head tape + the
    tape attention, one head-MLP forward per agent."""
    batch = obs.shape[0]
    action_onehot = one_hot(actions, critic.num_actions)
    sa_in = np.concatenate([obs, action_onehot], axis=-1)
    flat_obs = obs.reshape(batch * critic.num_agents, -1)
    flat_sa = sa_in.reshape(batch * critic.num_agents, -1)
    state_emb = _tape_forward(critic.obs_encoder.net, Tensor(flat_obs)).reshape(
        batch, critic.num_agents, -1
    )
    sa_emb = _tape_forward(critic.sa_encoder.net, Tensor(flat_sa)).reshape(
        batch, critic.num_agents, -1
    )
    attended = _seed_attention(critic.attention, state_emb, sa_emb, critic._mask)
    rows = []
    for i in range(critic.num_agents):
        agent_id = np.tile(one_hot(np.array([i]), critic.num_agents), (batch, 1))
        head_in = concatenate(
            [state_emb[:, i], attended[:, i], Tensor(agent_id)], axis=-1
        )
        rows.append(_tape_forward(critic.head.net, head_in))
    return rows


def seed_maac_update(algo, critic_opt, actor_opt):
    """The seed MAAC.update: tape TD targets (target-critic nodes built and
    thrown away), unfused encoder tape, per-param Adam."""
    from repro.nn.functional import log_softmax as _log_softmax

    if len(algo.buffer) < max(algo.batch_size // 4, 8):
        return None
    batch = algo.buffer.sample(algo.batch_size, algo._rng)
    batch_size = len(batch["dones"])
    n = algo.num_agents

    next_actions = np.zeros((batch_size, n), dtype=np.int64)
    next_log_probs = np.zeros((batch_size, n))
    for i in range(n):
        logits = _seed_infer(
            algo.actor.trunk.net, algo._actor_input(batch["next_obs"][:, i], i)
        )
        next_actions[:, i] = sample_categorical(logits, algo._rng)
        row_log_probs = logits - _seed_logsumexp_rows(logits)
        next_log_probs[:, i] = np.take_along_axis(
            row_log_probs, next_actions[:, i][:, None], axis=-1
        )[:, 0]

    target_rows = _seed_attention_rows(
        algo.target_critic, batch["next_obs"], next_actions
    )
    critic_rows = _seed_attention_rows(algo.critic, batch["obs"], batch["actions"])

    critic_loss_total = None
    for i in range(n):
        target_q = np.take_along_axis(
            target_rows[i].data, next_actions[:, i][:, None], axis=-1
        )[:, 0]
        soft_target = target_q - algo.alpha * next_log_probs[:, i]
        y = batch["rewards"][:, i] + algo.gamma * (1.0 - batch["dones"]) * soft_target
        q_chosen = critic_rows[i].gather(
            batch["actions"][:, i][:, None], axis=-1
        ).squeeze(-1)
        loss = mse_loss(q_chosen, y)
        critic_loss_total = (
            loss if critic_loss_total is None else critic_loss_total + loss
        )
    critic_opt.zero_grad()
    critic_loss_total.backward()
    clip_grad_norm(algo.critic.parameters(), algo.grad_clip)
    critic_opt.step()

    q_rows_data = [
        row.data
        for row in _seed_attention_rows(algo.critic, batch["obs"], batch["actions"])
    ]
    actor_loss_total = None
    entropy_total = 0.0
    for i in range(n):
        logits = _tape_forward(
            algo.actor.trunk.net, Tensor(algo._actor_input(batch["obs"][:, i], i))
        )
        log_probs = _log_softmax(logits, axis=-1)
        probs = np.exp(log_probs.data)
        q_data = q_rows_data[i]
        baseline = (probs * q_data).sum(axis=-1)
        sampled = sample_categorical(logits.data, algo._rng)
        advantage = (
            np.take_along_axis(q_data, sampled[:, None], axis=-1)[:, 0] - baseline
        )
        chosen_log_probs = log_probs.gather(sampled[:, None], axis=-1).squeeze(-1)
        target_term = advantage - algo.alpha * chosen_log_probs.data
        loss = -(chosen_log_probs * Tensor(target_term)).mean()
        actor_loss_total = loss if actor_loss_total is None else actor_loss_total + loss
        entropy_total += float(entropy_from_logits(logits).mean().data)
    actor_opt.zero_grad()
    actor_loss_total.backward()
    clip_grad_norm(algo.actor.parameters(), algo.grad_clip)
    actor_opt.step()

    soft_update(algo.target_critic, algo.critic, algo.tau)
    return {
        "critic_loss": critic_loss_total.item(),
        "actor_loss": actor_loss_total.item(),
        "entropy": entropy_total / n,
    }


# ----------------------------------------------------------------------
# Workload setup (synthetically filled buffers, identical on both sides)
# ----------------------------------------------------------------------
def _fill_team(team: HeroTeam, transitions: int = 600) -> None:
    fill = np.random.default_rng(3)
    for agent in team.agents.values():
        high = agent.high_level
        for _ in range(transitions):
            high.store_transition(
                OptionTransition(
                    obs=fill.standard_normal(high.obs_dim),
                    option=int(fill.integers(0, high.num_options)),
                    other_options=fill.integers(
                        0, high.num_options, max(high.num_opponents, 1)
                    ),
                    reward=float(fill.standard_normal()),
                    next_obs=fill.standard_normal(high.obs_dim),
                    done=bool(fill.uniform() < 0.1),
                    steps=int(fill.integers(1, 6)),
                )
            )
        for _ in range(transitions):
            high.opponent_model.record(
                fill.standard_normal(high.obs_dim),
                fill.integers(0, high.num_options, high.num_opponents),
            )


def _make_team(batch_size: int = HIGH_LEVEL_BATCH) -> HeroTeam:
    env = CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=12))
    team = HeroTeam(env, np.random.default_rng(0), batch_size=batch_size)
    _fill_team(team)
    return team


def _make_sac(batch_size: int = SAC_BATCH) -> SACAgent:
    agent = SACAgent(
        obs_dim=20,
        action_dim=2,
        rng=np.random.default_rng(1),
        action_low=np.array([0.0, -0.1]),
        action_high=np.array([0.2, 0.1]),
        batch_size=batch_size,
    )
    fill = np.random.default_rng(42)
    agent.buffer.push_batch(
        fill.standard_normal((2048, 20)),
        fill.uniform(-0.1, 0.2, (2048, 2)),
        fill.standard_normal(2048),
        fill.standard_normal((2048, 20)),
        fill.uniform(size=2048) < 0.1,
    )
    return agent


def _make_idqn(batch_size: int = IDQN_BATCH):
    env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
    algo = make_baseline("idqn", env, seed=0, batch_size=batch_size)
    fill = np.random.default_rng(7)
    for agent in algo.agent_ids:
        algo.buffers[agent].push_batch(
            fill.standard_normal((2048, algo.obs_dim)),
            fill.integers(0, algo.num_actions, (2048, 1)),
            fill.standard_normal(2048),
            fill.standard_normal((2048, algo.obs_dim)),
            fill.uniform(size=2048) < 0.1,
        )
    return algo


def _fill_joint_buffer(algo, transitions: int = 2048) -> None:
    fill = np.random.default_rng(7)
    n = algo.num_agents
    algo.buffer.push_batch(
        fill.standard_normal((transitions, n, algo.obs_dim)),
        fill.integers(0, algo.num_actions, (transitions, n)),
        fill.standard_normal((transitions, n)),
        fill.standard_normal((transitions, n, algo.obs_dim)),
        fill.uniform(size=transitions) < 0.1,
    )


def _make_maddpg(batch_size: int = IDQN_BATCH):
    env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
    algo = make_baseline("maddpg", env, seed=0, batch_size=batch_size)
    _fill_joint_buffer(algo)
    return algo


def _make_maac(batch_size: int = IDQN_BATCH):
    env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
    algo = make_baseline("maac", env, seed=0, batch_size=batch_size)
    _fill_joint_buffer(algo)
    return algo


def _seed_round_fn():
    """One seed-style update round over team + skill + IDQN copies."""
    team = _make_team()
    sac = _make_sac()
    idqn = _make_idqn()
    lr = 1e-3
    team_opts = []
    for agent in team.agents.values():
        high = agent.high_level
        team_opts.append(
            (
                high,
                SeedAdam(high.critic.parameters(), lr),
                SeedAdam(high.actor.parameters(), lr),
                [
                    SeedAdam(pred.parameters(), lr)
                    for pred in high.opponent_model.predictors
                ],
            )
        )
    sac_critic_opt = SeedAdam(sac.critic.parameters(), 3e-3)
    sac_actor_opt = SeedAdam(sac.actor.parameters(), 3e-3)
    idqn_opts = {
        agent: SeedAdam(idqn.q_networks[agent].parameters(), lr)
        for agent in idqn.agent_ids
    }

    def one_round():
        for high, critic_opt, actor_opt, opponent_opts in team_opts:
            seed_high_level_update(high, critic_opt, actor_opt, opponent_opts)
        seed_sac_update(sac, sac_critic_opt, sac_actor_opt)
        seed_idqn_update(idqn, idqn_opts)

    return one_round


def _fused_round_fn(dtype: str = "float64", batch: int | None = None):
    """One fused-engine update round over identical team + skill + IDQN.

    ``dtype`` selects the compute precision the workload is built (and
    run) under; ``batch`` overrides every method's batch size (None keeps
    the per-method experiment defaults).
    """
    with default_dtype(dtype):
        team_engine = UpdateEngine(_make_team(batch or HIGH_LEVEL_BATCH))
        sac_engine = UpdateEngine(_make_sac(batch or SAC_BATCH))
        idqn_engine = UpdateEngine(_make_idqn(batch or IDQN_BATCH))

    def one_round():
        with default_dtype(dtype):
            team_engine.update()
            sac_engine.update()
            idqn_engine.update()

    return one_round


def _usable_cpus() -> int:
    """CPUs this process may schedule on, counted as the program counts
    them for its side-by-side jobs."""
    return usable_cpus()


def _time_rounds_paired(
    fn_a, fn_b, rounds: int, repeats: int = 10, rounds_b: int | None = None
) -> tuple[float, float, float]:
    """Paired-window timing: ``(median per-round ratio a/b, median a, median b)``.

    Each window times ``fn_a`` (``rounds`` calls) and ``fn_b``
    (``rounds_b`` calls, default ``rounds``) back to back, so the slow
    stretches of a noisy shared host land on both sides of that window's
    ratio and cancel; the median over windows then rejects the windows
    where the drift shifted mid-pair.  Two debiasing details:

    - The within-window order alternates between windows: under a
      monotone frequency drift, whichever side runs second is
      systematically (dis)advantaged, and alternating makes consecutive
      windows biased in opposite directions so the median sits on the
      unbiased centre.
    - When the two sides run at very different speeds, ``rounds_b`` lets
      the caller give the fast side more calls so both halves of a window
      span comparable wall time — otherwise a short host stall poisons
      the brief side's measurement disproportionately.

    The ratio is of per-round times, so asymmetric round counts compare
    rates; the returned times are window totals for each side's own round
    count.  This estimates a wall-clock *ratio* far more stably than
    comparing two independent best-of-N minima.  GC is paused around the
    timed blocks so collection pauses don't land inside one side's
    window.
    """
    if rounds_b is None:
        rounds_b = rounds
    fn_a()  # warmup
    fn_b()
    ratios: list[float] = []
    times_a: list[float] = []
    times_b: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for window in range(repeats):
            a_first = window % 2 == 0
            if a_first:
                plan = [(fn_a, rounds), (fn_b, rounds_b)]
            else:
                plan = [(fn_b, rounds_b), (fn_a, rounds)]
            elapsed = []
            for fn, count in plan:
                start = time.perf_counter()
                for _ in range(count):
                    fn()
                elapsed.append(time.perf_counter() - start)
            elapsed_a, elapsed_b = elapsed if a_first else elapsed[::-1]
            ratios.append((elapsed_a / rounds) / (elapsed_b / rounds_b))
            times_a.append(elapsed_a)
            times_b.append(elapsed_b)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return (
        statistics.median(ratios),
        statistics.median(times_a),
        statistics.median(times_b),
    )


def test_update_phase_speedup():
    """The ISSUE 4 acceptance check: fused >= 3x over the seed per-loop path.

    On shared CI runners wall-clock ratios are noisy, so under ``CI`` the
    measurement is report-only (absolute regressions are caught by the
    perf-gate job, which compares single-machine means); locally the ratio
    is a hard assertion.
    """
    _assert_paired_speedup("hero+sac+idqn", _seed_round_fn(), _fused_round_fn())


def test_float32_update_speedup():
    """The ISSUE 9 acceptance check: float32 >= 1.7x over float64 at
    Table I's batch 1024 (the BLAS-bound regime where halving element
    width pays directly in memory bandwidth and SIMD lanes).

    Same CI policy as ``test_update_phase_speedup``: report-only on
    shared runners, hard assertion locally.
    """
    f64_round = _fused_round_fn("float64", batch=TABLE1_BATCH)
    f32_round = _fused_round_fn("float32", batch=TABLE1_BATCH)
    speedup, f64_seconds, f32_seconds = _time_rounds_paired(
        f64_round, f32_round, N_UPDATE_ROUNDS
    )
    print(
        f"\nfloat64 fused: {f64_seconds / N_UPDATE_ROUNDS * 1e3:.2f} ms/round | "
        f"float32 fused: {f32_seconds / N_UPDATE_ROUNDS * 1e3:.2f} ms/round | "
        f"{speedup:.2f}x (batch {TABLE1_BATCH})"
    )
    if os.environ.get("CI"):
        if speedup < TARGET_F32_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_F32_SPEEDUP}x "
                "target (report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_F32_SPEEDUP, (
        f"float32 update phase only {speedup:.2f}x over float64 "
        f"(need >= {TARGET_F32_SPEEDUP}x at batch {TABLE1_BATCH}): "
        f"{f32_seconds:.3f}s vs {f64_seconds:.3f}s for {N_UPDATE_ROUNDS} rounds"
    )


def _assert_paired_speedup(name, seed_round, fused_round):
    """Assert ``fused_round`` >= TARGET_SPEEDUP x ``seed_round`` in
    alternating paired windows (report-only under ``CI``)."""
    # Halved windows, doubled repeats: same total work as the default
    # paired-window shape, but shorter windows leave less room for host
    # drift between a window's seed and fused halves, and the median is
    # taken over twice as many per-window ratios.  The fused side gets
    # TARGET_SPEEDUP times the rounds so both halves of a window span
    # comparable wall time (see _time_rounds_paired).
    rounds = max(N_UPDATE_ROUNDS // 2, 1)
    fused_rounds = int(rounds * TARGET_SPEEDUP)
    speedup, seed_seconds, fused_seconds = _time_rounds_paired(
        seed_round, fused_round, rounds, repeats=20, rounds_b=fused_rounds
    )
    print(
        f"\n{name} seed per-loop: "
        f"{seed_seconds / rounds * 1e3:.2f} ms/round | "
        f"fused engine: {fused_seconds / fused_rounds * 1e3:.2f} ms/round | "
        f"{speedup:.2f}x"
    )
    if os.environ.get("CI"):
        if speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_SPEEDUP}x target "
                "(report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_SPEEDUP, (
        f"{name} fused update phase only {speedup:.2f}x over the seed "
        f"per-loop path (need >= {TARGET_SPEEDUP}x): "
        f"{fused_seconds:.3f}s/{fused_rounds} fused rounds vs "
        f"{seed_seconds:.3f}s/{rounds} seed rounds"
    )


def test_maddpg_update_speedup():
    """ISSUE 10 acceptance: the MADDPG cross-family engine >= 3x over the
    seed per-agent loop (same CI report-only policy as above)."""
    seed_algo = _make_maddpg()
    lr = seed_algo.lr
    critic_opts = [SeedAdam(c.parameters(), lr) for c in seed_algo.critics]
    actor_opts = [SeedAdam(a.parameters(), lr) for a in seed_algo.actors]
    engine = UpdateEngine(_make_maddpg())
    _assert_paired_speedup(
        "maddpg",
        lambda: seed_maddpg_update(seed_algo, critic_opts, actor_opts),
        engine.update,
    )


def test_maac_update_speedup():
    """ISSUE 10 acceptance: the MAAC cross-family engine >= 3x over the
    seed per-agent loop (same CI report-only policy as above)."""
    seed_algo = _make_maac()
    critic_opt = SeedAdam(seed_algo.critic.parameters(), seed_algo.lr)
    actor_opt = SeedAdam(seed_algo.actor.parameters(), seed_algo.lr)
    engine = UpdateEngine(_make_maac())
    _assert_paired_speedup(
        "maac",
        lambda: seed_maac_update(seed_algo, critic_opt, actor_opt),
        engine.update,
    )


def test_update_engine_cycle(benchmark):
    """One fused update round (HERO team + skill + IDQN) for the perf gate."""
    fused_round = _fused_round_fn()
    benchmark(fused_round)


def test_update_engine_cycle_f32(benchmark):
    """The same fused round built under float32, for the perf gate."""
    fused_round = _fused_round_fn("float32")
    benchmark(fused_round)


def test_update_engine_cycle_maddpg(benchmark):
    """One fused MADDPG cross-family update, for the perf gate."""
    engine = UpdateEngine(_make_maddpg())
    benchmark(engine.update)


def test_update_engine_cycle_maac(benchmark):
    """One fused MAAC cross-family update, for the perf gate."""
    engine = UpdateEngine(_make_maac())
    benchmark(engine.update)


def test_fused_round_is_live():
    """Cheap cross-check that the fused round actually trains (loss keys
    present, parameters move); the full equivalence matrix lives in
    tests/test_update_engine.py."""
    engine = UpdateEngine(_make_team())
    before = {
        k: v.copy() for k, v in engine.target.state_dict().items() if "critic" in k
    }
    losses = engine.update()
    assert any(key.endswith("critic_loss") for key in losses)
    after = engine.target.state_dict()
    assert any((before[k] != after[k]).any() for k in before)
