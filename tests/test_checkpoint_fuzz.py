"""Fuzzing the checkpoint loader: a bad archive is a ``CheckpointError``.

Every archive here starts as a valid IDQN checkpoint.  Mutated key
tables, truncated archives and flipped bytes must fail with
:class:`~repro.serving.CheckpointError` (never a NumPy, zipfile or
``TypeError``, and never a silently wrong policy); a flipped byte that
leaves the archive's content intact (a zip timestamp, say) must load the
very same parameters.  An unmodified archive round-trips bitwise.
"""

import copy
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import make_baseline
from repro.config import ScenarioConfig
from repro.distributed.protocol import decode_json_meta, encode_json_meta
from repro.envs.wrappers import make_baseline_env
from repro.serving import CheckpointError, load_checkpoint, load_policy, save_checkpoint

SCENARIO = ScenarioConfig(episode_length=8)
BUILD = {"hidden_dim": 8}


def _save(algo) -> bytes:
    out = io.BytesIO()
    save_checkpoint(out, algo, scenario=SCENARIO, build=BUILD)
    return out.getvalue()


_ALGO = make_baseline("idqn", make_baseline_env(scenario=SCENARIO), seed=5, **BUILD)
_STATE = _ALGO.state_dict()
_ARCHIVE = _save(_ALGO)
_KEYS = load_checkpoint(io.BytesIO(_ARCHIVE)).meta["keys"]


def _rewrite(edit) -> io.BytesIO:
    """The archive with ``edit(meta)`` applied to its metadata."""
    with np.load(io.BytesIO(_ARCHIVE)) as archive:
        entries = {name: archive[name] for name in archive.files}
    meta = decode_json_meta(entries["meta"])
    edit(meta)
    entries["meta"] = encode_json_meta(meta)
    out = io.BytesIO()
    np.savez(out, **entries)
    out.seek(0)
    return out


def _assert_state_equal(state):
    assert state.keys() == _STATE.keys()
    for name, value in _STATE.items():
        assert state[name].dtype == value.dtype, name
        np.testing.assert_array_equal(state[name], value, err_msg=name)


def test_unmodified_archive_round_trips_bitwise():
    policy = load_policy(io.BytesIO(_ARCHIVE))
    _assert_state_equal(policy.controller.state_dict())
    before = load_checkpoint(io.BytesIO(_ARCHIVE))
    after = load_checkpoint(io.BytesIO(_save(policy.controller)))
    assert after.meta == before.meta
    assert after.flat_params.tobytes() == before.flat_params.tobytes()


def _last_offset_minus(shift):
    def edit(meta):
        name, shape, _ = meta["keys"][-1]
        size = int(np.prod(shape))
        meta["keys"][-1] = [name, shape, -size - shift]

    return edit


def _second_key_at_offset_zero(meta):
    meta["keys"][1][2] = 0


@pytest.mark.parametrize(
    "edit",
    [
        _second_key_at_offset_zero,
        _last_offset_minus(1),
        lambda meta: meta.update(keys=5),
        lambda meta: meta.update(build={"bogus": 1}),
        lambda meta: meta.update(build={"hidden_dim": -1}),
        lambda meta: meta.update(build={"hidden_dim": 0}),
    ],
    ids=[
        "two_keys_one_offset",
        "negative_offset",
        "keys_not_a_list",
        "unknown_build_kwarg",
        "negative_hidden_dim",
        "zero_hidden_dim",
    ],
)
def test_bad_key_table_or_build_is_a_checkpoint_error(edit):
    with pytest.raises(CheckpointError):
        load_policy(_rewrite(edit))


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-3, 40), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


_MUTATIONS = [
    "offset", "dim", "reshape", "drop", "duplicate", "swap", "rename", "field", "entry", "table"
]


@st.composite
def _mutated_tables(draw):
    """A key table that differs from the valid one in one way."""
    keys = copy.deepcopy(_KEYS)
    i = draw(st.integers(0, len(keys) - 1))
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "offset":
        keys[i][2] += draw(st.integers(-(2**20), 2**20).filter(bool))
    elif kind == "dim":
        shape = keys[i][1]
        j = draw(st.integers(0, len(shape) - 1))
        shape[j] += draw(st.integers(-3, 3).filter(bool))
    elif kind == "reshape":
        shape = keys[i][1]
        keys[i][1] = draw(st.sampled_from([shape[::-1], [int(np.prod(shape))], shape + [1]]))
    elif kind == "drop":
        del keys[i]
    elif kind == "duplicate":
        keys.insert(i, copy.deepcopy(keys[i]))
    elif kind == "swap":
        j = (i + 1) % len(keys)
        keys[i], keys[j] = keys[j], keys[i]
    elif kind == "rename":
        keys[i][0] = draw(st.sampled_from([k[0] for k in _KEYS]) | st.text(max_size=8))
    elif kind == "field":
        keys[i][draw(st.integers(0, 2))] = draw(_JUNK)
    elif kind == "entry":
        keys[i] = draw(_JUNK | st.lists(_JUNK, max_size=4))
    else:
        return draw(_JUNK)
    return keys


@settings(max_examples=150, deadline=None)
@given(keys=_mutated_tables())
def test_mutated_key_table_is_a_checkpoint_error(keys):
    if keys == _KEYS:
        return  # the mutation drew the original value back
    with pytest.raises(CheckpointError):
        load_policy(_rewrite(lambda meta: meta.update(keys=keys)))


@settings(max_examples=60, deadline=None)
@given(length=st.integers(0, len(_ARCHIVE) - 1))
def test_truncated_archive_is_a_checkpoint_error(length):
    with pytest.raises(CheckpointError):
        load_policy(io.BytesIO(_ARCHIVE[:length]))


@settings(max_examples=150, deadline=None)
@given(
    # Headers and the central directory sit at the two ends of the zip.
    position=st.integers(0, 511)
    | st.integers(len(_ARCHIVE) - 512, len(_ARCHIVE) - 1)
    | st.integers(0, len(_ARCHIVE) - 1),
    mask=st.integers(1, 255),
)
# '<f8' -> '<f4' in the parameter vector's header: numpy then reads half
# the stored bytes, stops short of the zip's CRC check and would hand back
# a float32 reinterpretation of the parameters.
@example(position=_ARCHIVE.index(b"'<f8'") + 3, mask=ord("8") ^ ord("4"))
def test_flipped_byte_is_a_checkpoint_error_or_harmless(position, mask):
    data = bytearray(_ARCHIVE)
    data[position] ^= mask
    try:
        policy = load_policy(io.BytesIO(bytes(data)))
    except CheckpointError:
        return
    _assert_state_equal(policy.controller.state_dict())
