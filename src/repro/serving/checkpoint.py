"""Versioned checkpoint format shared by trainer, snapshots and server.

A checkpoint is one ``.npz`` archive with exactly three entries:

====================  ======================================================
``format_version``    int64 scalar, currently ``2``
``meta``              canonical JSON packed into uint8 words via
                      :func:`repro.distributed.protocol.encode_json_meta`
``flat_params``       one float vector — every network parameter of the
                      saved controller, concatenated in ``state_dict()``
                      iteration order, stored in the controller's compute
                      dtype (recorded in the metadata)
====================  ======================================================

The metadata carries everything needed to rebuild the controller without
unpickling code: the method name (``"hero"`` or a baseline registry key),
the scenario / reward / hyperparameter dataclasses as plain dicts, the
method-specific ``build`` kwargs, the parameter ``dtype`` (format 2;
format-1 archives predate mixed precision and are always float64), and a
``keys`` table mapping each ``state_dict`` entry to its shape and offset
inside ``flat_params``.  The format is RNG-free by design — a checkpoint
describes a *policy*, and the serving path only ever runs greedy
inference (see docs/SERVING.md).

Version compatibility: this build writes format ``2`` and reads both
``1`` and ``2``.  A float32 controller's archive stores half the
parameter bytes of a float64 one, and :func:`load_policy` rebuilds the
controller under the archive's dtype regardless of the process default.
Archives from builds that still had the camera pipeline record three
more scenario keys (``observation_mode``, ``camera_size``,
``camera_range``); :func:`load_policy` drops them, and refuses an archive
whose ``observation_mode`` is not ``"features"``.

Because parameters are stored in their native dtype and the metadata
codec is canonical (sorted keys, no whitespace), a save → load → save
round trip is byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..config import PaperHyperparameters, RewardConfig, ScenarioConfig
from ..distributed.protocol import decode_json_meta, encode_json_meta
from ..nn.tensor import SUPPORTED_DTYPES, default_dtype

CHECKPOINT_FORMAT_VERSION = 2

# Every format version this build can read; version 1 predates the dtype
# field and always holds float64 parameters.
READABLE_FORMAT_VERSIONS = (1, 2)

_ARCHIVE_KEYS = ("format_version", "meta", "flat_params")

# ScenarioConfig fields of the deleted camera pipeline, still present in
# the scenario metadata of archives written before its removal.
_RETIRED_SCENARIO_KEYS = ("observation_mode", "camera_size", "camera_range")


class CheckpointError(RuntimeError):
    """A checkpoint archive is unreadable, corrupted or incompatible."""


# ---------------------------------------------------------------------------
# Flat-vector codec
# ---------------------------------------------------------------------------


def _flatten_state(state: dict) -> tuple[np.ndarray, list]:
    """Concatenate a ``state_dict`` into one flat vector + key table.

    The vector keeps the parameters' native dtype (all entries of one
    controller share the compute dtype; a mixed dict promotes to the
    widest type), so a float32 controller stores half the bytes.
    """
    arrays = {name: np.asarray(value) for name, value in state.items()}
    dtype = (
        np.result_type(*arrays.values()) if arrays else np.dtype(np.float64)
    )
    chunks = []
    keys = []
    offset = 0
    for name, arr in arrays.items():
        arr = arr.astype(dtype, copy=False)
        keys.append([name, list(arr.shape), offset])
        chunks.append(arr.reshape(-1))
        offset += arr.size
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)
    return flat, keys


def _scatter_state(flat: np.ndarray, keys) -> dict:
    """Rebuild a ``state_dict`` from the flat vector and its key table.

    The table must be what :func:`_flatten_state` writes: a list of
    ``[name, shape, offset]`` entries whose chunks tile ``flat`` exactly,
    in order from offset 0, with no gap, overlap or repeated name.
    """
    if not isinstance(keys, list):
        raise CheckpointError(f"corrupted checkpoint key table: {keys!r}")
    state = {}
    end = 0
    for entry in keys:
        try:
            name, shape, offset = entry
            size = math.prod(shape)
            if not (
                isinstance(name, str)
                and name not in state
                and all(type(dim) is int and dim >= 0 for dim in shape)
                and offset == end
                and end + size <= flat.size
            ):
                raise ValueError(f"does not tile the {flat.size} parameters from {end}")
            state[name] = flat[end:end + size].reshape(shape).copy()
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupted checkpoint key {entry!r}: {exc}") from exc
        end += size
    if end != flat.size:
        raise CheckpointError(
            f"corrupted checkpoint key table: covers {end} of {flat.size} parameters"
        )
    return state


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------


def _method_name(controller) -> str:
    from ..core.hero import HeroTeam

    if isinstance(controller, HeroTeam):
        return "hero"
    name = getattr(controller, "name", None)
    if isinstance(name, str) and name != "base":
        return name
    raise CheckpointError(
        f"cannot infer a checkpoint method name for {type(controller).__name__}"
    )


def _default_build(controller) -> dict:
    """Capture the controller kwargs needed for an exact rebuild."""
    from ..core.hero import HeroTeam

    if isinstance(controller, HeroTeam):
        first = next(iter(controller.agents.values())).high_level
        return {
            "opponent_mode": first.opponent_mode,
            "batch_size": int(first.batch_size),
        }
    return {}


def save_checkpoint(
    path,
    controller,
    *,
    scenario: ScenarioConfig | None = None,
    rewards: RewardConfig | None = None,
    hyper: PaperHyperparameters | None = None,
    build: dict | None = None,
    extra: dict | None = None,
) -> None:
    """Write ``controller`` (a :class:`~repro.core.hero.HeroTeam` or any
    :class:`~repro.baselines.base.MARLAlgorithm`) as a versioned archive.

    ``scenario``/``rewards``/``hyper`` default to the paper configuration;
    pass the ones the controller was trained with so :func:`load_policy`
    rebuilds an identical environment.  ``build`` holds method-specific
    constructor kwargs (captured automatically for HERO); ``extra`` is an
    arbitrary JSON-serialisable annotation (training episodes, seed, …).
    """
    method = _method_name(controller)
    state = controller.state_dict()
    flat, keys = _flatten_state(state)
    meta = {
        "method": method,
        "scenario": dataclasses.asdict(scenario or ScenarioConfig()),
        "rewards": dataclasses.asdict(rewards or RewardConfig()),
        "hyper": dataclasses.asdict(hyper or PaperHyperparameters()),
        "build": dict(build if build is not None else _default_build(controller)),
        "dtype": flat.dtype.name,
        "keys": keys,
        "extra": dict(extra or {}),
    }
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT_VERSION),
        meta=encode_json_meta(meta),
        flat_params=flat,
    )


@dataclass
class Checkpoint:
    """A parsed archive: metadata plus the flat parameter vector."""

    meta: dict
    flat_params: np.ndarray

    @property
    def method(self) -> str:
        return self.meta["method"]

    @property
    def dtype(self) -> np.dtype:
        """Parameter dtype; format-1 archives are implicitly float64."""
        return np.dtype(self.meta.get("dtype", "float64"))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Scatter the flat vector back into named parameter arrays."""
        return _scatter_state(self.flat_params, self.meta["keys"])


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate an archive written by :func:`save_checkpoint`."""
    try:
        with np.load(path) as archive:
            missing = [k for k in _ARCHIVE_KEYS if k not in archive.files]
            if missing:
                raise CheckpointError(
                    f"not a policy checkpoint: missing archive keys {missing}"
                )
            version = int(archive["format_version"])
            if version not in READABLE_FORMAT_VERSIONS:
                raise CheckpointError(
                    f"unsupported checkpoint format version {version} "
                    f"(this build reads versions {list(READABLE_FORMAT_VERSIONS)})"
                )
            try:
                meta = decode_json_meta(archive["meta"])
            except Exception as exc:
                raise CheckpointError(
                    f"corrupted checkpoint metadata: {exc}"
                ) from exc
            # Format 1 predates the dtype field: always float64.  Format 2
            # records it; the stored vector must be exactly that dtype (a
            # narrower one would read only part of the stored bytes).
            dtype = np.dtype(meta.get("dtype", "float64"))
            if dtype not in SUPPORTED_DTYPES:
                raise CheckpointError(
                    f"unsupported checkpoint dtype {dtype.name!r}; "
                    f"options: {[np.dtype(d).name for d in SUPPORTED_DTYPES]}"
                )
            flat = archive["flat_params"]
            if flat.dtype != dtype or flat.ndim != 1:
                raise CheckpointError(
                    f"corrupted checkpoint parameters: a {flat.dtype} array of "
                    f"shape {flat.shape}, not a {dtype.name} vector"
                )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    for field in ("method", "scenario", "rewards", "hyper", "build", "keys"):
        if field not in meta:
            raise CheckpointError(
                f"corrupted checkpoint metadata: missing field {field!r}"
            )
    return Checkpoint(meta=meta, flat_params=flat)


# ---------------------------------------------------------------------------
# Policy rebuild
# ---------------------------------------------------------------------------


def _scenario_from_meta(fields) -> ScenarioConfig:
    """Rebuild the scenario, dropping the retired camera keys.

    Only feature observations were ever trainable, so an archive that
    records any other ``observation_mode`` cannot hold a servable policy.
    """
    if isinstance(fields, dict):
        mode = fields.get("observation_mode", "features")
        if mode != "features":
            raise CheckpointError(
                f"checkpoint scenario field observation_mode={mode!r} is not "
                "loadable: this build has feature observations only"
            )
        fields = {k: v for k, v in fields.items() if k not in _RETIRED_SCENARIO_KEYS}
    return ScenarioConfig(**fields)


@dataclass
class LoadedPolicy:
    """A controller rebuilt from a checkpoint, plus its training configs."""

    method: str
    controller: object
    scenario: ScenarioConfig
    rewards: RewardConfig
    hyper: PaperHyperparameters
    checkpoint: Checkpoint


def load_policy(path) -> LoadedPolicy:
    """Rebuild a ready-to-serve controller from a checkpoint archive.

    HERO checkpoints reconstruct a :class:`~repro.core.hero.HeroTeam` over
    a fresh :class:`~repro.envs.CooperativeLaneChangeEnv`; baseline
    checkpoints go through :func:`~repro.baselines.make_baseline`.  The
    controller is rebuilt under the archive's parameter dtype (a float32
    checkpoint serves in float32 even when the process default is
    float64).  The construction-time RNG seed is irrelevant — every
    parameter is overwritten by the archive, and serving runs greedily.
    """
    ckpt = load_checkpoint(path)
    meta = ckpt.meta
    try:
        scenario = _scenario_from_meta(meta["scenario"])
        rewards = RewardConfig(**meta["rewards"])
        hyper = PaperHyperparameters(**meta["hyper"])
    except TypeError as exc:
        raise CheckpointError(f"corrupted checkpoint config: {exc}") from exc
    build = meta["build"]

    try:
        with default_dtype(ckpt.dtype):
            if ckpt.method == "hero":
                from ..core.hero import HeroTeam
                from ..envs.lane_change_env import CooperativeLaneChangeEnv

                env = CooperativeLaneChangeEnv(scenario=scenario, rewards=rewards)
                controller = HeroTeam(
                    env, np.random.default_rng(0), hyper=hyper, **build
                )
            else:
                from ..baselines.registry import BASELINES, make_baseline
                from ..envs.wrappers import make_baseline_env

                if ckpt.method not in BASELINES:
                    raise CheckpointError(
                        f"unknown checkpoint method {ckpt.method!r}; "
                        f"options: ['hero'] + {sorted(BASELINES)}"
                    )
                env = make_baseline_env(scenario=scenario, rewards=rewards)
                controller = make_baseline(ckpt.method, env, seed=0, **build)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(
            f"checkpoint cannot rebuild its {ckpt.method!r} controller "
            f"(build kwargs {build!r}): {exc}"
        ) from exc

    try:
        controller.load_state_dict(ckpt.state_dict())
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint parameters do not match the rebuilt "
            f"{ckpt.method!r} controller: {exc}"
        ) from exc
    return LoadedPolicy(
        method=ckpt.method,
        controller=controller,
        scenario=scenario,
        rewards=rewards,
        hyper=hyper,
        checkpoint=ckpt,
    )


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "READABLE_FORMAT_VERSIONS",
    "Checkpoint",
    "CheckpointError",
    "LoadedPolicy",
    "load_checkpoint",
    "load_policy",
    "save_checkpoint",
]
