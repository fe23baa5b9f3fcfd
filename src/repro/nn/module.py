"""Module system: parameter containers with recursive traversal.

A tiny analogue of ``torch.nn.Module`` sufficient for the networks in this
repository: named parameter discovery, state dicts for checkpointing, and
soft/hard target-network updates.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation and
    serialisation.
    """

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in deterministic order."""
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{i}", item

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            # Cast at the boundary: a float64 state dict (e.g. a v1
            # checkpoint) must not silently flip a float32 network back to
            # float64 — the parameter keeps its compute dtype.
            param.data = np.array(state[name], dtype=param.data.dtype)

    def save(self, path) -> None:
        """Save parameters to an ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        """Load parameters previously written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def soft_update(target: Module, source: Module, tau: float) -> None:
    """Polyak-average ``source`` parameters into ``target``.

    ``target = (1 - tau) * target + tau * source`` — the paper's "target
    network update rate" (Table I) is this ``tau`` = 0.01.
    """
    source_params = dict(source.named_parameters())
    for name, target_param in target.named_parameters():
        target_param.data *= 1.0 - tau
        target_param.data += tau * source_params[name].data


def hard_update(target: Module, source: Module) -> None:
    """Copy all parameters of ``source`` into ``target``."""
    soft_update(target, source, tau=1.0)
