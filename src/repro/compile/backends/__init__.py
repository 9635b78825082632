"""Kernel providers: pluggable executors behind one plan IR.

See :mod:`.base` for the registry/selection machinery, :mod:`.reference`
for the serial baseline kernels and :mod:`.threaded` for the worker-pool
provider.
"""

from __future__ import annotations

from .base import (
    DEFAULT_PROVIDER,
    PROVIDER_ENV,
    KernelProvider,
    NumpyProvider,
    available_providers,
    get_provider,
    register_provider,
    resolve_provider_name,
    use_provider,
)
from .threaded import ThreadedProvider, WorkerPool

register_provider(NumpyProvider())
register_provider(ThreadedProvider())

__all__ = [
    "DEFAULT_PROVIDER",
    "PROVIDER_ENV",
    "KernelProvider",
    "NumpyProvider",
    "ThreadedProvider",
    "WorkerPool",
    "available_providers",
    "get_provider",
    "register_provider",
    "resolve_provider_name",
    "use_provider",
]
