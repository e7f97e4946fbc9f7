"""Experiment-as-a-service: the HTTP front door over the sweep engine.

``repro serve`` turns the in-process evaluation API into a network
service: clients POST :class:`~repro.noc.spec.SimulationSpec` documents
in the versioned wire format (:func:`repro.noc.spec.spec_to_wire`),
identical concurrent submissions coalesce onto one simulation through
:meth:`~repro.exec.cache.ResultCache.get_or_begin` claims, execution
rides the ordinary sweep runner, and results are served from the
content-addressed cache with the run ledger as the durable fallback.
Per-client token buckets and simulated-seconds budgets keep multi-tenant
load legible (``service_*`` metrics series).

Layers:

- :mod:`repro.service.core` -- :class:`ExperimentService`, the
  transport-free engine (also the ``repro submit --local`` parity path);
- :mod:`repro.service.http` -- :class:`ExperimentServer`, the stdlib
  ``http.server`` JSON API;
- :mod:`repro.service.budget` -- :class:`ClientAccounts` admission
  (token buckets + post-paid simulated-seconds budgets).

See ``docs/service.md`` for the endpoint reference, the wire-format
versioning policy, coalescing semantics, and budget accounting.
"""

from repro.service.budget import (
    CLOCK_HZ,
    SERVICE_COUNTER_HELP,
    SERVICE_GAUGE_HELP,
    BudgetExhausted,
    ClientAccounts,
    RateLimited,
    TokenBucket,
)
from repro.service.core import ExperimentService, SweepTicket
from repro.service.http import (
    CLIENT_HEADER,
    DEFAULT_WAIT_S,
    ExperimentServer,
    error_payload,
)

__all__ = [
    "BudgetExhausted",
    "CLIENT_HEADER",
    "CLOCK_HZ",
    "ClientAccounts",
    "DEFAULT_WAIT_S",
    "ExperimentServer",
    "ExperimentService",
    "RateLimited",
    "SERVICE_COUNTER_HELP",
    "SERVICE_GAUGE_HELP",
    "SweepTicket",
    "TokenBucket",
    "error_payload",
]
