"""Long-lived annotation serving: daemon, backends, client, wire protocol, faults.

Where :mod:`repro.engine` annotates one project per process,
:mod:`repro.serve` keeps a trained pipeline resident.  One front-end,
:class:`AnnotationServer`, listens on a Unix socket and/or TCP and coalesces
concurrent annotation requests into micro-batches through the engine's
batched suggestion path (identical answers, shared embedding passes), while
the incrementally-extendable TypeSpace lets ``adapt`` requests grow the open
type vocabulary between batches without a rebuild.

The model work sits behind one backend contract with two implementations:
:class:`InProcessBackend` keeps one pipeline in the daemon's own process,
and :class:`WorkerPool` runs N worker processes that each memory-map the
same saved model (the marker matrix occupies physical memory once) and each
serve through an :class:`InProcessBackend` of their own.  The front-end runs
the same code for both; a pool simply offers N dispatch slots instead of one.

The failure modes are engineered, not accidental: bounded admission with
``overloaded`` sheds and ``retry_after_seconds`` hints, per-request
deadlines propagated on the wire, poison-request isolation by batch
bisection, a self-restarting batcher, and hot pipeline reload as a quiesced
two-phase swap.  :class:`AnnotationClient` is the matching client (same
report objects as the in-process engine) with an optional
:class:`RetryPolicy`; :class:`FaultInjector` provides the named failure
points the chaos suite uses to prove every degradation path
deterministically.
"""

from repro.serve.backend import InProcessBackend, ServeBackend
from repro.serve.client import AnnotationClient, RetryPolicy, ServeError
from repro.serve.faults import FAULT_POINTS, FaultInjector, InjectedFault
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.serve.server import LIFECYCLE_STATES, AnnotationServer, ServeConfig, ServeStats
from repro.serve.workers import WorkerCrashed, WorkerError, WorkerPool

__all__ = [
    "AnnotationClient",
    "AnnotationServer",
    "FAULT_POINTS",
    "FaultInjector",
    "InProcessBackend",
    "InjectedFault",
    "LIFECYCLE_STATES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RetryPolicy",
    "ServeBackend",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "format_address",
    "parse_address",
    "recv_frame",
    "send_frame",
]
