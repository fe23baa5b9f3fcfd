"""Simulated vehicle-to-vehicle option bus with latency and loss.

The distributed setting of the paper means agents learn from *observed
histories*, not shared policies.  Every env step each agent broadcasts
the option it is executing to every other agent of its env, and
:class:`DistributedObservationService` carries those messages with two
network imperfections that a real testbed exhibits:

* ``latency_steps`` — a message sent in exchange ``k`` arrives in
  exchange ``k + max(latency_steps - 1, 0)``, so latencies 0 and 1 both
  deliver within the exchange that sent them,
* ``drop_probability`` — each message is lost i.i.d. with this chance;
  the receiver keeps the last option it heard from that sender.

The state is stacked over a batch of envs: a ``(num_envs, agents,
agents)`` table of each receiver's last-known option per sender (every
receiver starts at ``KEEP_LANE``, option 0) and a ring of the
``max(latency_steps - 1, 0)`` latest exchanges still in flight.  Envs
never hear each other, and neither the table nor the ring is cleared at
episode boundaries.  Delivery is deterministic given the seed, so
distributed experiments stay reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DistributedObservationService"]


class DistributedObservationService:
    """Stacked per-(env, receiver, sender) option exchange.

    Usage, once per env step of a batch (the batched HERO runner does
    this in ``after_step``)::

        service.exchange(options)          # (num_envs, agents) int array
        heard = service.observed_options(num_envs)  # (num_envs, agents, agents - 1)
    """

    def __init__(
        self,
        agent_ids: list[str],
        latency_steps: int = 1,
        drop_probability: float = 0.0,
        seed: int = 0,
    ):
        if latency_steps < 0:
            raise ValueError(f"latency must be >= 0, got {latency_steps}")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {drop_probability}")
        self.agent_ids = list(agent_ids)
        self.latency_steps = latency_steps
        self.drop_probability = drop_probability
        self._rng = np.random.default_rng(seed)
        a = len(self.agent_ids)
        # Row k lists agent k's peers in agent order: the recipients of its
        # broadcast and the senders it hears.
        self._peers = np.array(
            [[j for j in range(a) if j != k] for k in range(a)], dtype=np.int64
        ).reshape(a, max(a - 1, 0))
        self._last_known: np.ndarray | None = None  # (n, receiver, sender)
        # In-flight exchanges, (delay, n, receiver, sender); -1 marks a
        # message that was dropped (or a slot not yet sent).
        self._ring: np.ndarray | None = None
        self._cursor = 0
        self.sent_count = 0
        self.dropped_count = 0
        self.delivered_count = 0

    def _allocate(self, num_envs: int) -> None:
        a = len(self.agent_ids)
        delay = max(self.latency_steps - 1, 0)
        self._last_known = np.zeros((num_envs, a, a), dtype=np.int64)
        self._ring = np.full((delay, num_envs, a, a), -1, dtype=np.int64)
        self._cursor = 0

    def exchange(self, options: np.ndarray) -> None:
        """One round: every agent of every env broadcasts its option.

        ``options`` is ``(num_envs, agents)``.  One uniform is drawn per
        message, env first, then sender, then recipients in agent order
        (skipping the sender); a draw below ``drop_probability`` loses the
        message.  A batch of another size than the previous exchange's
        starts from a fresh table and an empty ring.
        """
        options = np.asarray(options, dtype=np.int64)
        n, a = options.shape
        if self._last_known is None or len(self._last_known) != n:
            self._allocate(n)
        kept = self._rng.uniform(size=(n, a, a - 1)) >= self.drop_probability
        self.sent_count += kept.size
        self.dropped_count += kept.size - int(kept.sum())
        # (env, sender, recipient slot) -> (env, receiver, sender).
        arrived = np.zeros((n, a, a), dtype=bool)
        arrived[:, self._peers, np.arange(a)[:, None]] = kept
        messages = np.where(arrived, options[:, None, :], -1)
        if len(self._ring):
            # This round's messages take the slot of the round sent
            # len(ring) exchanges ago, which is due now.
            slot = self._cursor
            messages, self._ring[slot] = self._ring[slot].copy(), messages
            self._cursor = (slot + 1) % len(self._ring)
        delivered = messages >= 0
        np.copyto(self._last_known, messages, where=delivered)
        self.delivered_count += int(delivered.sum())

    def observed_options(self, num_envs: int) -> np.ndarray:
        """Each receiver's last-known option of each peer, in agent order.

        Shape ``(num_envs, agents, agents - 1)``.  A batch the bus has not
        exchanged (nothing sent yet, or the last exchange was of another
        size) reads every peer at the ``KEEP_LANE`` default.
        """
        a = len(self.agent_ids)
        if self._last_known is None or len(self._last_known) != num_envs:
            return np.zeros((num_envs, a, max(a - 1, 0)), dtype=np.int64)
        return self._last_known[:, np.arange(a)[:, None], self._peers]

    def stats(self) -> dict[str, int]:
        """Sent, dropped, delivered and in-flight message counts, summed over envs."""
        in_flight = 0 if self._ring is None else int((self._ring >= 0).sum())
        return {
            "sent": self.sent_count,
            "dropped": self.dropped_count,
            "delivered": self.delivered_count,
            "in_flight": in_flight,
        }
