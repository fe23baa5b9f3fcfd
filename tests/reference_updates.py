"""Per-network reference updates: the oracle the fused engines are held to.

Each ``*_update`` function below is one learner's gradient step written
as a per-network tape loop — one network, one autograd graph and one
:class:`repro.nn.Adam` at a time — the implementation the fused families
of :mod:`repro.core.update_engine` replaced.  The optimisers belong to the
caller: :class:`ReferenceEngine` builds them at the learner's ``lr`` and
keeps them for its lifetime, as an ``UpdateEngine`` keeps its
``FamilyAdam``\\ s, so a reference run and an engine run hold the same
optimiser state.

``tests/test_update_engine.py`` compares every engine with these steps:
unit by unit on identical learners, and end to end by substituting
:class:`ReferenceEngine` for ``UpdateEngine`` in the trainer modules.
The comparison is at the tolerance contract of docs/ARCHITECTURE.md
("Update phase", "Precision"), not bitwise: batched GEMMs and the
single-pass gradient-norm reductions sum in another order.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.idqn import IndependentDQN
from repro.baselines.maac import MAAC
from repro.baselines.maddpg import MADDPG
from repro.core.hero import HeroTeam
from repro.core.low_level import SACAgent
from repro.nn import (
    Adam,
    Tensor,
    clip_grad_norm,
    concatenate,
    entropy_from_logits,
    get_default_dtype,
    gumbel_softmax,
    mse_loss,
    nll_loss,
    one_hot,
    sample_categorical,
    soft_update,
    softmax,
)
from repro.nn.functional import log_softmax


# ----------------------------------------------------------------------
# HERO: the high-level agent and its opponent model (Algorithm 1)
# ----------------------------------------------------------------------
def _opponent_rep(high, obs: np.ndarray, other_onehot: np.ndarray) -> np.ndarray:
    """Batched opponent representation, shape (batch, n_opp * n_opt).

    Mode ``model``: the opponent model's predicted distributions at
    ``obs``.  Mode ``observed``: each sampled row's stored one-hot of the
    options the agent observed when it chose its option (the replay keeps
    no next-state options, so the TD target reads the same row).  Mode
    ``zeros``: zeros.
    """
    batch = len(obs)
    if high.num_opponents == 0:
        return np.zeros((batch, 0), dtype=get_default_dtype())
    if high.opponent_mode == "model":
        return high.opponent_model.predict_probs_batch(obs).reshape(batch, -1)
    if high.opponent_mode == "observed":
        return other_onehot
    return np.zeros(
        (batch, high.num_opponents * high.num_options), dtype=get_default_dtype()
    )


def opponent_model_update(model, optimizers) -> dict[str, float] | None:
    """One max-likelihood step per opponent predictor; per-opponent NLL."""
    if model.num_opponents == 0 or len(model.history) < 8:
        return None
    batch = model.history.sample(model.batch_size, model._rng)
    losses: dict[str, float] = {}
    for j, (predictor, optimizer) in enumerate(zip(model.predictors, optimizers)):
        logits = predictor.forward(batch["obs"])
        log_probs = log_softmax(logits, axis=-1)
        nll = nll_loss(log_probs, batch["options"][:, j])
        entropy = entropy_from_logits(logits).mean()
        loss = nll - entropy * model.entropy_coef
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(predictor.parameters(), model.grad_clip)
        optimizer.step()
        losses[f"opponent_{j}_nll"] = nll.item()
        losses[f"opponent_{j}_entropy"] = entropy.item()
    return losses


def high_level_update(high, optimizers) -> dict[str, float] | None:
    """One actor-critic step, then (mode ``model``) an opponent-model step."""
    actor_opt, critic_opt, opponent_opts = optimizers
    if len(high.buffer) < max(high.batch_size // 4, 8):
        return None
    batch = high.buffer.sample(high.batch_size, high._rng)
    batch_size = len(batch["obs"])

    own_onehot = one_hot(batch["options"], high.num_options)
    other_onehot = one_hot(batch["other_options"], high.num_options).reshape(
        batch_size, -1
    )
    if high.num_opponents == 0:
        other_onehot = np.zeros((batch_size, 0), dtype=get_default_dtype())

    # Critic: SMDP TD target with policy/option-model probabilities.
    next_other_rep = _opponent_rep(high, batch["next_obs"], other_onehot)
    next_actor_in = np.concatenate([batch["next_obs"], next_other_rep], axis=-1)
    next_own_probs = high.actor.probs_inference(next_actor_in)
    target_in = np.concatenate(
        [batch["next_obs"], next_own_probs, next_other_rep], axis=-1
    )
    next_q = high.target_critic.infer(target_in)[:, 0]
    discount = high.gamma ** batch["steps"]
    y = batch["rewards"] + discount * (1.0 - batch["dones"]) * next_q

    critic_in = np.concatenate([batch["obs"], own_onehot, other_onehot], axis=-1)
    q_values = high.critic(critic_in).squeeze(-1)
    critic_loss = mse_loss(q_values, y)
    critic_opt.zero_grad()
    critic_loss.backward()
    clip_grad_norm(high.critic.parameters(), high.grad_clip)
    critic_opt.step()

    # Actor: expected (all-option) policy gradient,
    #   loss = -sum_o pi(o|s) * A(s, o),  A = Q - V,  V = sum_o pi*Q,
    # with the critic evaluated for every option (no gradient through it).
    other_rep = _opponent_rep(high, batch["obs"], other_onehot)
    actor_in = np.concatenate([batch["obs"], other_rep], axis=-1)
    logits = high.actor.forward(actor_in)
    log_probs = log_softmax(logits, axis=-1)
    probs = log_probs.exp()
    q_all = np.stack(
        [
            high.critic.infer(
                np.concatenate(
                    [
                        batch["obs"],
                        one_hot(np.full(batch_size, o), high.num_options),
                        other_onehot,
                    ],
                    axis=-1,
                )
            )[:, 0]
            for o in range(high.num_options)
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

    losses = {
        "critic_loss": critic_loss.item(),
        "actor_loss": actor_loss.item(),
        "entropy": entropy.item(),
    }
    if high.opponent_mode == "model":
        opponent_losses = opponent_model_update(high.opponent_model, opponent_opts)
        if opponent_losses:
            losses.update(opponent_losses)
    return losses


def _hero_team_adams(team) -> dict:
    adams = {}
    for agent_id, agent in team.agents.items():
        high = agent.high_level
        adams[agent_id] = (
            Adam(high.actor.parameters(), lr=high.lr),
            Adam(high.critic.parameters(), lr=high.lr),
            [
                Adam(predictor.parameters(), lr=high.opponent_model.lr)
                for predictor in high.opponent_model.predictors
            ],
        )
    return adams


def hero_team_update(team, adams) -> dict[str, float]:
    """Every agent's step in turn; losses keyed ``{agent_id}/{name}``."""
    merged: dict[str, float] = {}
    for agent_id, agent in team.agents.items():
        losses = high_level_update(agent.high_level, adams[agent_id])
        for name, value in (losses or {}).items():
            merged[f"{agent_id}/{name}"] = value
    return merged


# ----------------------------------------------------------------------
# SAC skills (Algorithm 2)
# ----------------------------------------------------------------------
def _sac_adams(agent) -> tuple:
    return (
        Adam(agent.actor.parameters(), lr=agent.lr),
        Adam(agent.critic.parameters(), lr=agent.lr),
    )


def sac_update(agent, adams) -> dict[str, float] | None:
    """One SAC step: twin critics, reparameterised actor, temperature."""
    actor_opt, critic_opt = adams
    if len(agent.buffer) < agent.batch_size // 4 or len(agent.buffer) < 8:
        return None
    batch = agent.buffer.sample(agent.batch_size, agent._rng)

    # Critic: TD targets on the no-graph paths.
    next_action, next_log_prob = agent.actor.sample_no_grad(
        batch["next_obs"], agent._rng
    )
    target_q = agent.target_critic.min_q_inference(batch["next_obs"], next_action)
    soft_target = target_q - agent.alpha * next_log_prob
    y = batch["rewards"] + agent.gamma * (1.0 - batch["dones"]) * soft_target

    q1, q2 = agent.critic(batch["obs"], batch["actions"])
    critic_loss = mse_loss(q1, y) + mse_loss(q2, y)
    critic_opt.zero_grad()
    critic_loss.backward()
    clip_grad_norm(agent.critic.parameters(), agent.grad_clip)
    critic_opt.step()

    # Actor: reparameterised, through a stop-gradiented critic.  The tape
    # checks requires_grad during backward, so the freeze spans it.
    new_action, log_prob = agent.actor.sample(batch["obs"], agent._rng)
    critic_params = agent.critic.parameters()
    for param in critic_params:
        param.requires_grad = False
    try:
        q_new = agent.critic.min_q(batch["obs"], new_action)
        actor_loss = (log_prob * agent.alpha - q_new).mean()
        actor_opt.zero_grad()
        actor_loss.backward()
    finally:
        for param in critic_params:
            param.requires_grad = True
    clip_grad_norm(agent.actor.parameters(), agent.grad_clip)
    actor_opt.step()

    if agent.auto_alpha:
        entropy_gap = float((log_prob.data + agent.target_entropy).mean())
        # d/d(log_alpha) of -(log_alpha * gap) = -gap.
        agent._log_alpha -= agent.lr * entropy_gap
        agent._log_alpha = float(np.clip(agent._log_alpha, -10.0, 2.0))

    soft_update(agent.target_critic, agent.critic, agent.tau)
    return {
        "critic_loss": critic_loss.item(),
        "actor_loss": actor_loss.item(),
        "alpha": agent.alpha,
        "entropy": -float(log_prob.data.mean()),
    }


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def _idqn_adams(algo) -> dict:
    return {
        agent: Adam(algo.q_networks[agent].parameters(), lr=algo.lr)
        for agent in algo.agent_ids
    }


def idqn_update(algo, adams) -> dict[str, float] | None:
    """One double-DQN step per agent, in agent order."""
    if any(len(b) < max(algo.batch_size // 4, 8) for b in algo.buffers.values()):
        return None
    losses = {}
    for agent in algo.agent_ids:
        batch = algo.buffers[agent].sample(algo.batch_size, algo._rng)
        q_net = algo.q_networks[agent]
        target_net = algo.target_networks[agent]
        action_idx = batch["actions"].astype(np.int64)

        next_q_target = target_net.trunk.infer(batch["next_obs"])
        if algo.double_q:
            next_best = q_net.trunk.infer(batch["next_obs"]).argmax(axis=1)
            next_value = np.take_along_axis(
                next_q_target, next_best[:, None], axis=1
            )[:, 0]
        else:
            next_value = next_q_target.max(axis=1)
        y = batch["rewards"] + algo.gamma * (1.0 - batch["dones"]) * next_value

        q_chosen = q_net(batch["obs"]).gather(action_idx, axis=-1).squeeze(-1)
        loss = mse_loss(q_chosen, y)
        adams[agent].zero_grad()
        loss.backward()
        clip_grad_norm(q_net.parameters(), algo.grad_clip)
        adams[agent].step()
        soft_update(target_net, q_net, algo.tau)
        losses[f"{agent}/q_loss"] = loss.item()
    return losses


def _maddpg_adams(algo) -> tuple:
    return (
        [Adam(actor.parameters(), lr=algo.lr) for actor in algo.actors],
        [Adam(critic.parameters(), lr=algo.lr) for critic in algo.critics],
    )


def maddpg_update(algo, adams) -> dict[str, float] | None:
    """Per agent: a centralized-critic TD step, then a Gumbel-softmax
    straight-through actor step through the stop-gradiented critic."""
    actor_opts, critic_opts = adams
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
            algo.target_actors[j].logits_inference(batch["next_obs"][:, j]).argmax(-1),
            algo.num_actions,
        )
        for j in range(n)
    ]
    joint_next_actions = np.concatenate(target_next, axis=-1)

    losses = {}
    for i, agent in enumerate(algo.agent_ids):
        target_q = algo.target_critics[i].infer(
            np.concatenate([joint_next_obs, joint_next_actions], axis=-1)
        )[:, 0]
        y = batch["rewards"][:, i] + algo.gamma * (1.0 - batch["dones"]) * target_q
        q = algo.critics[i](
            np.concatenate([joint_obs, joint_actions], axis=-1)
        ).squeeze(-1)
        critic_loss = mse_loss(q, y)
        critic_opts[i].zero_grad()
        critic_loss.backward()
        clip_grad_norm(algo.critics[i].parameters(), algo.grad_clip)
        critic_opts[i].step()

        logits = algo.actors[i].forward(batch["obs"][:, i])
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
            actor_loss = -algo.critics[i](critic_input).mean()
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


def attention_rows(critic, obs: np.ndarray, actions: np.ndarray) -> list[Tensor]:
    """The MAAC critic's per-agent Q rows on the tape.

    ``obs`` is ``(batch, n_agents, obs_dim)`` and ``actions`` the
    ``(batch, n_agents)`` integer actions (the *other* agents'
    encodings use them; agent ``i``'s own action is marginalised by the
    per-action head).  Returns one ``(batch, num_actions)`` tensor per
    agent.
    """
    batch, n = obs.shape[0], critic.num_agents
    sa_in = np.concatenate([obs, one_hot(actions, critic.num_actions)], axis=-1)
    state_emb = critic.obs_encoder(obs.reshape(batch * n, -1)).reshape(batch, n, -1)
    sa_emb = critic.sa_encoder(sa_in.reshape(batch * n, -1)).reshape(batch, n, -1)
    heads = []
    for head in critic.attention.heads:
        q = head.query_proj(state_emb)
        k = head.key_proj(sa_emb)
        v = head.value_proj(sa_emb)
        scores = (q @ k.transpose(0, 2, 1)) * head.scale
        # Masked (self) entries get a large negative score before softmax.
        scores = scores + Tensor(np.where(critic._mask, 0.0, -1e9))
        heads.append(softmax(scores, axis=-1) @ v)
    attended = critic.attention.out_proj(concatenate(heads, axis=-1))
    rows = []
    for i in range(n):
        agent_id = np.tile(one_hot(np.array([i]), n), (batch, 1))
        head_in = concatenate(
            [state_emb[:, i], attended[:, i], Tensor(agent_id)], axis=-1
        )
        rows.append(critic.head(head_in))
    return rows


def _maac_adams(algo) -> tuple:
    return (
        Adam(algo.actor.parameters(), lr=algo.lr),
        Adam(algo.critic.parameters(), lr=algo.lr),
    )


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    max_val = logits.max(axis=-1, keepdims=True)
    return max_val + np.log(np.exp(logits - max_val).sum(axis=-1, keepdims=True))


def maac_update(algo, adams) -> dict[str, float] | None:
    """One soft attention-critic step, then the shared actor's
    entropy-regularised counterfactual step over every agent's rows."""
    actor_opt, critic_opt = adams
    if len(algo.buffer) < max(algo.batch_size // 4, 8):
        return None
    batch = algo.buffer.sample(algo.batch_size, algo._rng)
    batch_size = len(batch["dones"])
    n = algo.num_agents

    # Next actions and their log-probs from the current actor.
    next_actions = np.zeros((batch_size, n), dtype=np.int64)
    next_log_probs = np.zeros((batch_size, n))
    for i in range(n):
        logits = algo.actor.logits_inference(
            algo._actor_input(batch["next_obs"][:, i], i)
        )
        next_actions[:, i] = sample_categorical(logits, algo._rng)
        row_log_probs = logits - _logsumexp_rows(logits)
        next_log_probs[:, i] = np.take_along_axis(
            row_log_probs, next_actions[:, i][:, None], axis=-1
        )[:, 0]

    target_rows = attention_rows(algo.target_critic, batch["next_obs"], next_actions)
    critic_rows = attention_rows(algo.critic, batch["obs"], batch["actions"])
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
        critic_loss_total = loss if critic_loss_total is None else critic_loss_total + loss
    critic_opt.zero_grad()
    critic_loss_total.backward()
    clip_grad_norm(algo.critic.parameters(), algo.grad_clip)
    critic_opt.step()

    q_rows_data = [
        row.data for row in attention_rows(algo.critic, batch["obs"], batch["actions"])
    ]
    actor_loss_total = None
    entropy_total = 0.0
    for i in range(n):
        logits = algo.actor.forward(algo._actor_input(batch["obs"][:, i], i))
        log_probs = log_softmax(logits, axis=-1)
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
# The engine stand-in
# ----------------------------------------------------------------------
_REFERENCES = (
    (HeroTeam, _hero_team_adams, hero_team_update),
    (SACAgent, _sac_adams, sac_update),
    (IndependentDQN, _idqn_adams, idqn_update),
    (MADDPG, _maddpg_adams, maddpg_update),
    (MAAC, _maac_adams, maac_update),
)


class ReferenceEngine:
    """``UpdateEngine``'s stand-in over the same targets.

    ``update()`` runs the target's per-network reference step with the
    Adams built here; COMA, which has no fused engine either, steps
    through its own ``update``.
    """

    def __init__(self, target):
        self.target = target
        self._step, self.adams = None, None
        for kind, build, step in _REFERENCES:
            if isinstance(target, kind):
                self._step, self.adams = step, build(target)
                break

    def update(self):
        if self._step is None:
            return self.target.update()
        return self._step(self.target, self.adams)
