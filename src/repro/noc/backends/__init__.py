"""The two simulation engines, selected by name.

- ``"reference"`` -- the cycle-accurate object-model simulator, the
  semantic ground truth the fast path is validated against;
- ``"vectorized"`` -- the fast path, a self-compiled C kernel
  bit-identical to the reference on every run (fault schedules, timeout
  gating, adaptive routing, telemetry sampling and tracing) and many
  times faster; runs the kernel cannot take (no C compiler,
  ``REPRO_NOC_NATIVE=0``, custom gating policies) fall back to the
  reference engine.

``"auto"`` -- the default of ``SimulationSpec.backend``, the CLI
``--backend`` flags and ``NoCSprintingSystem`` -- names the fast path.
Because both engines produce the same bits, the name is an execution
hint: it picks where a run executes, never what it computes, so it takes
no part in spec equality, cache keys or the wire format.
"""

from repro.noc.backends.native import VectorizedBackend
from repro.noc.backends.reference import ReferenceBackend

_ENGINES = {"reference": ReferenceBackend(), "vectorized": VectorizedBackend()}


def get_backend(name: str):
    """The engine behind a backend name (``"auto"`` is the fast path)."""
    try:
        return _ENGINES["vectorized" if name == "auto" else name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"expected one of: auto, {', '.join(list_backends())}"
        ) from None


def list_backends() -> tuple[str, ...]:
    """The engine names, sorted (``"auto"`` is an alias, not listed)."""
    return tuple(sorted(_ENGINES))


def resolve_backend(spec, *, gating_policy=None, telemetry=None):
    """The engine a spec's run executes on.

    Every engine covers every run, so the choice depends on the spec's
    ``backend`` hint alone; ``gating_policy`` and ``telemetry`` are
    accepted so callers can pass a run's full arguments.
    """
    return get_backend(spec.backend)


__all__ = [
    "ReferenceBackend",
    "VectorizedBackend",
    "get_backend",
    "list_backends",
    "resolve_backend",
]
