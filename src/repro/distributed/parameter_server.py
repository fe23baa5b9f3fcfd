"""Shared-memory snapshot server for the async actor–learner stack.

The learner is the single writer: after each update round it publishes
the flat parameter vector of every network family (one ``np.copyto`` per
slot straight out of the fused optimizers' flat buffers) plus an RNG
sidecar, under a monotonically increasing version.  Actors attach to the
same shared-memory block and read the newest snapshot lock-free.

Consistency uses double buffering plus a seqlock: each version ``v`` is
written into buffer ``v & 1``, so a reader of version ``v`` is never
overwritten before version ``v + 2`` starts — and the sequence counter
(odd while a write is in flight) lets the reader detect the rare torn
read and retry.  There are no locks on the hot path, so a slow actor can
never stall the learner.

Versioning doubles as the staleness contract: an actor records which
version it acted with, the learner logs ``round - version`` histograms,
and ``max_staleness=0`` degenerates to a lockstep barrier (actor waits
for version ``r`` before round ``r``) that reproduces the synchronous
loop bitwise.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np

from .protocol import RNG_WORDS, _attach_shm

__all__ = ["ParameterServer"]

# Header: seqlock counter, published version (-1 = nothing yet), stop flag.
_SEQ, _VERSION, _STOP = 0, 1, 2
_HEADER_SLOTS = 3
_HEADER_BYTES = _HEADER_SLOTS * 8

_POLL_SLICE = 0.01


def _align(offset: int) -> int:
    return (offset + 7) & ~7


class ParameterServer:
    """Versioned double-buffered flat-parameter snapshots in shared memory.

    ``slots`` maps slot name -> flat vector length; ``dtype`` is the
    element type of every parameter slot (the families' compute dtype —
    float32 snapshots occupy half the bytes of float64).  ``num_rngs``
    reserves uint64 sidecar space for that many PCG64 generator states
    (see :mod:`repro.distributed.protocol`).  Constructed by the learner
    (the owner and sole writer); a forked actor inherits the object, and a
    ``spawn`` or ``forkserver`` actor receives a pickled handle that
    re-attaches by segment name, carrying the dtype with it.  Only the
    creating process unlinks the segment.
    """

    def __init__(self, slots: dict[str, int], num_rngs: int = 0, dtype=np.float64):
        if not slots and num_rngs <= 0:
            raise ValueError("need at least one parameter slot or RNG slot")
        self.slot_sizes = {name: int(size) for name, size in slots.items()}
        self.num_rngs = int(num_rngs)
        self.dtype = np.dtype(dtype)
        itemsize = self.dtype.itemsize
        offset = _HEADER_BYTES
        self._param_offsets: dict[str, int] = {}
        for name, size in self.slot_sizes.items():
            if size < 0:
                raise ValueError(f"slot {name!r} has negative size {size}")
            self._param_offsets[name] = offset
            offset = _align(offset + 2 * size * itemsize)
        self._rng_offset = offset
        offset = _align(offset + 2 * self.num_rngs * RNG_WORDS * 8)
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self._creator = os.getpid()
        self._closed = False
        self._name = self._shm.name
        self._bind_views()
        self._header[:] = 0
        self._header[_VERSION] = -1

    # ------------------------------------------------------------------
    # Attachment / pickling
    # ------------------------------------------------------------------
    def _bind_views(self) -> None:
        buf = self._shm.buf
        self._header = np.ndarray(_HEADER_SLOTS, dtype=np.int64, buffer=buf)
        # Per-slot (2, size) double buffers in the compute dtype, indexed
        # by version & 1.
        self._params = {
            name: np.ndarray(
                (2, size), dtype=self.dtype, buffer=buf, offset=self._param_offsets[name]
            )
            for name, size in self.slot_sizes.items()
        }
        self._rngs = np.ndarray(
            (2, self.num_rngs, RNG_WORDS),
            dtype=np.uint64,
            buffer=buf,
            offset=self._rng_offset,
        )

    def __getstate__(self):
        return {
            "slot_sizes": self.slot_sizes,
            "num_rngs": self.num_rngs,
            "dtype": self.dtype.name,
            "param_offsets": self._param_offsets,
            "rng_offset": self._rng_offset,
            "name": self._name,
        }

    def __setstate__(self, state):
        self.slot_sizes = state["slot_sizes"]
        self.num_rngs = state["num_rngs"]
        self.dtype = np.dtype(state.get("dtype", "float64"))
        self._param_offsets = state["param_offsets"]
        self._rng_offset = state["rng_offset"]
        self._name = state["name"]
        self._creator = None  # an attached copy never unlinks
        self._closed = False
        self._shm = _attach_shm(self._name)
        self._bind_views()

    # ------------------------------------------------------------------
    # Writer side (learner only)
    # ------------------------------------------------------------------
    def publish(
        self,
        vectors: dict[str, np.ndarray],
        rng_words: np.ndarray | None = None,
    ) -> int:
        """Publish one snapshot; returns the new version.

        ``vectors`` must cover every slot exactly; ``rng_words`` is a
        ``(num_rngs, RNG_WORDS)`` uint64 array when the server carries RNG
        state.  Odd/even transitions of the sequence counter bracket the
        write so readers can detect tearing.
        """
        if set(vectors) != set(self.slot_sizes):
            raise ValueError(
                f"vectors keys {sorted(vectors)} != slots {sorted(self.slot_sizes)}"
            )
        version = int(self._header[_VERSION]) + 1
        buf = version & 1
        self._header[_SEQ] += 1  # odd: write in flight
        for name, vector in vectors.items():
            flat = np.asarray(vector, dtype=self.dtype).ravel()
            if flat.size != self.slot_sizes[name]:
                raise ValueError(
                    f"slot {name!r} expects {self.slot_sizes[name]} values, "
                    f"got {flat.size}"
                )
            np.copyto(self._params[name][buf], flat)
        if self.num_rngs:
            if rng_words is None:
                raise ValueError("server carries RNG state but none was published")
            words = np.asarray(rng_words, dtype=np.uint64)
            if words.shape != (self.num_rngs, RNG_WORDS):
                raise ValueError(
                    f"rng_words shape {words.shape} != {(self.num_rngs, RNG_WORDS)}"
                )
            np.copyto(self._rngs[buf], words)
        self._header[_VERSION] = version
        self._header[_SEQ] += 1  # even: write complete
        return version

    def request_stop(self) -> None:
        """Signal attached actors to shut down (checked in their read polls)."""
        self._header[_STOP] = 1

    @property
    def stop_requested(self) -> bool:
        return bool(self._header[_STOP])

    @property
    def version(self) -> int:
        """Latest published version (-1 before the first publish)."""
        return int(self._header[_VERSION])

    # ------------------------------------------------------------------
    # Reader side (actors)
    # ------------------------------------------------------------------
    def read(
        self,
        min_version: int = 0,
        timeout: float | None = None,
        abort=None,
    ) -> tuple[int, dict[str, np.ndarray], np.ndarray]:
        """Read the newest snapshot with version >= ``min_version``.

        Blocks (polling) until such a version exists.  ``abort`` is an
        optional callable returning an error message when waiting should
        stop (dead learner, stop flag) — raised as RuntimeError.  Returns
        ``(version, {slot: vector copy}, rng_words copy)``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            version = int(self._header[_VERSION])
            if version >= min_version:
                snapshot = self._try_read(version)
                if snapshot is not None:
                    return snapshot
                continue  # torn read: a newer version is landing, retry now
            if self._header[_STOP]:
                raise RuntimeError("parameter server stopped while waiting")
            if abort is not None:
                message = abort()
                if message:
                    raise RuntimeError(message)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no snapshot >= version {min_version} within {timeout:.1f}s"
                )
            time.sleep(_POLL_SLICE)

    def _try_read(self, version: int):
        """Seqlock read of one version's buffer; None on a torn read."""
        seq_before = int(self._header[_SEQ])
        if seq_before & 1:
            return None
        buf = version & 1
        vectors = {name: arr[buf].copy() for name, arr in self._params.items()}
        rng_words = self._rngs[buf].copy()
        # The copy is consistent iff no write started or finished meanwhile
        # and the buffer we read still holds `version` (not version + 2).
        if int(self._header[_SEQ]) != seq_before:
            return None
        if int(self._header[_VERSION]) - version >= 2:
            return None
        return version, vectors, rng_words

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Close this mapping, and unlink the segment in the process that
        created it; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._header = None
        self._params = None
        self._rngs = None
        self._shm.close()
        if self._creator == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self):
        try:
            self.release()
        except Exception:
            pass
