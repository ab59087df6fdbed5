"""Kernel evaluation backends: exact reference vs vectorized float64.

The Eq. 2-11 kernels admit two implementations with very different
cost models:

* :mod:`repro.perf.backends.exact` — the memoized scalar kernels of
  :mod:`repro.perf.kernels`, exact big-int/float arithmetic, the
  repository's reference semantics.  Always available.
* :mod:`repro.perf.backends.numpy64` — whole-histogram float64 array
  evaluation (log-factorial tables, a log-space Stirling/surjection
  triangle, one masked-tensor pass per estimate, and a 2-D
  (rows x net-size) batched row-sweep kernel).  Requires NumPy (the
  ``[perf]`` extra); integer outputs are forced onto the exact
  backend's values by a near-integer guard band with per-net fallback,
  and the residual float error is gated by
  ``mae verify --check backend_equivalence`` against the committed
  ``VERIFY_backend_envelope.json``.

This module is the registry and the selection state.  Selection is a
process-wide *default* (``set_default_backend`` /
``current_backend``), set by the CLI from ``--backend`` /
``$MAE_BACKEND`` for the length of one command; every planning API
also takes an explicit ``backend=`` override.  ``auto`` resolves to
``numpy`` when NumPy is installed and falls back to ``exact`` silently
otherwise; naming ``numpy`` explicitly on a host without NumPy raises
:class:`~repro.errors.BackendUnavailableError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import BackendUnavailableError, EstimationError
from repro.perf.backends.exact import ExactBackend
from repro.perf.backends.numpy64 import NumpyBackend

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "MAE_BACKEND"

#: Names accepted by ``--backend`` / ``$MAE_BACKEND``.
BACKEND_CHOICES: Tuple[str, ...] = ("exact", "numpy", "auto")

_REGISTRY: Dict[str, object] = {}
_STATE = {"default": "exact"}


def register_backend(backend) -> None:
    """Add a backend instance to the registry (keyed by its ``name``)."""
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Names of the backends whose dependencies are installed here."""
    return [
        name for name, backend in sorted(_REGISTRY.items())
        if backend.available
    ]


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a requested backend name to a registered, available one.

    ``None`` means "the process default"; ``auto`` picks ``numpy`` when
    NumPy is installed and ``exact`` otherwise; an explicit ``numpy``
    on a NumPy-less host raises :class:`BackendUnavailableError`.
    """
    if name is None:
        return _STATE["default"]
    if name == "auto":
        return "numpy" if _REGISTRY["numpy"].available else "exact"
    if name not in _REGISTRY:
        raise EstimationError(
            f"unknown backend {name!r} (expected one of {BACKEND_CHOICES})"
        )
    backend = _REGISTRY[name]
    if not backend.available:
        raise BackendUnavailableError(
            f"backend {name!r} requested but its dependency is not "
            "installed (pip install repro[perf], or use --backend auto "
            "to fall back to 'exact')"
        )
    return name


def get_backend(name: Optional[str] = None):
    """The backend instance for ``name`` (resolved like
    :func:`resolve_backend_name`)."""
    return _REGISTRY[resolve_backend_name(name)]


def current_backend():
    """The process-default backend instance."""
    return _REGISTRY[_STATE["default"]]


def current_backend_name() -> str:
    """The process-default backend name."""
    return _STATE["default"]


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous name.

    ``name`` goes through :func:`resolve_backend_name`, so ``auto``
    lands on whichever backend this host can actually run.
    """
    previous = _STATE["default"]
    _STATE["default"] = resolve_backend_name(name)
    return previous


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Run a block with a different process-default backend (``None``
    keeps the current one)."""
    previous = set_default_backend(name)
    try:
        yield
    finally:
        _STATE["default"] = previous


def backend_from_environment() -> Optional[str]:
    """The ``$MAE_BACKEND`` request, or ``None`` when unset/empty."""
    value = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return value or None


def backend_stats() -> dict:
    """Observability snapshot: the default selection, availability, and
    each available backend's own counters (the ``backend`` section of
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`)."""
    return {
        "default": _STATE["default"],
        "available": available_backends(),
        "backends": {
            name: backend.stats()
            for name, backend in sorted(_REGISTRY.items())
            if backend.available
        },
    }


register_backend(ExactBackend())
register_backend(NumpyBackend())

__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "BackendUnavailableError",
    "ExactBackend",
    "NumpyBackend",
    "available_backends",
    "backend_from_environment",
    "backend_stats",
    "current_backend",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "set_default_backend",
    "use_backend",
]
