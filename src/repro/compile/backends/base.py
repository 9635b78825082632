"""Kernel-provider registry: one plan IR, many executors.

A :class:`KernelProvider` supplies ``step()`` bodies for plan ops.  The
:class:`~repro.compile.executor.Plan` binders keep doing all the *wiring*
(shape inference, buffer-pool allocation, view construction, backward
program assembly) and hand the provider a fully-bound kernel context — a
plain namespace of the preallocated arrays and static flags the kernel
needs.  The provider either returns a step closure over those buffers or
``None`` to decline, in which case the op falls back to the serial
``numpy`` reference implementation (:mod:`.reference`) **per op**: a plan
built against any provider always binds completely.

Selection is by name, resolved at plan construction:

* an explicit ``provider=`` argument wins;
* else a :func:`use_provider` context (thread-local) set by the owning
  ``CompiledModel`` / ``CompiledTrainer`` / experiment runner;
* else the ``REPRO_PROVIDER`` environment variable;
* else ``"numpy"``.

Providers register under a name via :func:`register_provider`; the
``threaded`` worker-pool provider is registered at package import.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from . import reference

__all__ = [
    "KernelProvider",
    "available_providers",
    "get_provider",
    "register_provider",
    "resolve_provider_name",
    "use_provider",
    "DEFAULT_PROVIDER",
    "PROVIDER_ENV",
]

PROVIDER_ENV = "REPRO_PROVIDER"
DEFAULT_PROVIDER = "numpy"

Step = Callable[[], None]


class KernelProvider:
    """Base class: a named source of kernel implementations.

    Subclasses override :meth:`lookup` and return a bound step closure for
    the ``(kind, ctx)`` pairs they serve, ``None`` for everything else.
    ``ctx`` is a read-only namespace of preallocated buffers/views and
    static metadata — implementations must write only into those buffers
    (never allocate per replay) and must preserve the reference kernel's
    floating-point results for the tolerance their provider advertises.
    """

    #: registry name; also the profiler label suffix (``conv2d@threaded``).
    name = "numpy"

    def lookup(self, kind: str, ctx) -> Optional[Step]:
        """A step implementing op ``kind`` over ``ctx``, or ``None``."""
        return None

    def kernel(self, kind: str, ctx) -> Tuple[Step, str]:
        """``(step, provider_name)`` with per-op fallback to the reference.

        The second element names who actually serves the op — the binder
        records it so profiles and parity tests can see which ops fell
        back.
        """
        step = self.lookup(kind, ctx)
        if step is not None:
            return step, self.name
        return reference.build(kind, ctx), DEFAULT_PROVIDER

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyProvider(KernelProvider):
    """The serial reference provider: every op from :mod:`.reference`."""

    name = DEFAULT_PROVIDER


_PROVIDERS: Dict[str, KernelProvider] = {}
_local = threading.local()


def register_provider(provider: KernelProvider, name: Optional[str] = None) -> None:
    """Register (or replace) a provider under ``name`` (default: its own)."""
    _PROVIDERS[name or provider.name] = provider


def available_providers() -> Tuple[str, ...]:
    """Registered provider names, sorted."""
    return tuple(sorted(_PROVIDERS))


def get_provider(name: str) -> KernelProvider:
    """The registered provider instance for ``name`` (loud on unknown)."""
    try:
        return _PROVIDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel provider '{name}'; registered: "
            f"{', '.join(available_providers())}"
        ) from None


def resolve_provider_name(name: Optional[str] = None) -> str:
    """Resolve a provider name: explicit > context > env > default."""
    if name:
        return str(name)
    scoped = getattr(_local, "name", None)
    if scoped:
        return scoped
    env = os.environ.get(PROVIDER_ENV, "").strip()
    if env:
        return env
    return DEFAULT_PROVIDER


@contextmanager
def use_provider(name: Optional[str]):
    """Scope a default provider name onto this thread.

    Plans (and the caches that build them) constructed inside the block
    resolve to ``name`` unless given an explicit provider.  ``None`` is a
    no-op scope, so callers can wrap unconditionally.
    """
    if not name:
        yield
        return
    previous = getattr(_local, "name", None)
    _local.name = str(name)
    try:
        yield
    finally:
        _local.name = previous
