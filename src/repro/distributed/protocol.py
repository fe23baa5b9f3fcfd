"""Wire types for the distributed runtime.

The async actor–learner stack's vocabulary: pickled
:class:`RolloutPayload` / :class:`ActorError` frames on the
shared-memory transition queue, and a fixed-width RNG codec so
``numpy`` PCG64 generator state can ride inside the parameter server's
flat uint64 sidecar (a snapshot must carry the learner's post-update RNG
state for the lockstep determinism contract).
Both shared-memory carriers attach to their segments through
:func:`_attach_shm`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

@dataclass
class RolloutPayload:
    """One collection round's worth of experience from an actor.

    ``actor_id`` attributes the round to one of the learner's N actor
    processes and ``round_index`` counts collection rounds on that actor.
    ``version_used`` is the snapshot version the actor acted with, so the
    learner can log per-actor staleness (``round_index - version_used``).
    ``data`` is method-specific (the HERO capture log or the IDQN step
    rows) and ``rng_states`` carries the actor's post-collection generator
    states for the lockstep handoff (empty when staleness is allowed).

    Arrays inside ``data`` keep their dtype through pickling, so the wire
    format needs no dtype tag of its own: a float32 run's frames carry
    float32 rows at half the float64 byte cost.
    """

    round_index: int
    version_used: int
    data: dict = field(default_factory=dict)
    rng_states: list = field(default_factory=list)
    actor_id: int = 0


@dataclass
class ActorError:
    """Terminal failure report; the learner re-raises it as RuntimeError.

    ``actor_id`` names the failing actor (-1 when the failure predates
    actor identity, e.g. a spec deserialisation error).
    """

    message: str
    actor_id: int = -1


# ---------------------------------------------------------------------------
# PCG64 generator state codec
# ---------------------------------------------------------------------------

# A PCG64 state dict packs into six uint64 words: the 128-bit state and
# 128-bit increment (hi/lo halves each) plus the cached-uint32 flag pair.
RNG_WORDS = 6
_MASK64 = (1 << 64) - 1


def encode_rng_state(gen: np.random.Generator) -> np.ndarray:
    """Pack a PCG64 generator's state into six uint64 words."""
    state = gen.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError(
            f"only PCG64 generators are supported, got {state['bit_generator']}"
        )
    s = state["state"]["state"]
    inc = state["state"]["inc"]
    return np.array(
        [
            (s >> 64) & _MASK64,
            s & _MASK64,
            (inc >> 64) & _MASK64,
            inc & _MASK64,
            int(state["has_uint32"]),
            int(state["uinteger"]),
        ],
        dtype=np.uint64,
    )


def decode_rng_state(words: np.ndarray) -> dict:
    """Unpack six uint64 words back into a PCG64 state dict."""
    w = [int(x) for x in np.asarray(words, dtype=np.uint64)]
    if len(w) != RNG_WORDS:
        raise ValueError(f"expected {RNG_WORDS} words, got {len(w)}")
    return {
        "bit_generator": "PCG64",
        "state": {"state": (w[0] << 64) | w[1], "inc": (w[2] << 64) | w[3]},
        "has_uint32": w[4],
        "uinteger": w[5],
    }


def load_rng_state(gen: np.random.Generator, state: dict | np.ndarray) -> None:
    """Restore generator state *in place*.

    Several components deliberately share one ``Generator`` object (e.g.
    a high-level agent and its opponent model), so the state must be set
    on the existing bit generator — replacing the ``Generator`` would
    silently decouple the aliases.
    """
    if not isinstance(state, dict):
        state = decode_rng_state(state)
    gen.bit_generator.state = state


# ---------------------------------------------------------------------------
# JSON metadata codec
# ---------------------------------------------------------------------------

# Structured metadata that rides next to flat numeric payloads (checkpoint
# archives, parameter-server sidecars) is serialised as canonical UTF-8
# JSON packed into a uint8 array, so it can live inside the same ``.npz``
# or shared-memory container as the numbers it describes.  Canonical =
# sorted keys, no whitespace: byte-identical metadata for identical
# content, which keeps checkpoint round-trips reproducible.


def encode_json_meta(obj) -> np.ndarray:
    """Pack a JSON-serialisable object into a uint8 array."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def decode_json_meta(arr: np.ndarray):
    """Unpack a uint8 array written by :func:`encode_json_meta`."""
    data = np.asarray(arr, dtype=np.uint8).tobytes()
    return json.loads(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# Shared-memory attach
# ---------------------------------------------------------------------------


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's segment without taking ownership of it.

    Only the parent unlinks the block.  On Python >= 3.13 ``track=False``
    says so explicitly; earlier versions attach normally — attaching
    processes share the parent's resource tracker, where the duplicate
    registration is a set add and the parent's unlink balances it exactly
    once.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


__all__ = [
    "ActorError",
    "RNG_WORDS",
    "RolloutPayload",
    "decode_json_meta",
    "decode_rng_state",
    "encode_json_meta",
    "encode_rng_state",
    "load_rng_state",
]
