"""repro.service — census-as-a-service: the layered query stack.

Three layers, each importable on its own:

- :mod:`repro.service.catalog` — artifact discovery and thread-safe
  loading (:class:`ArtifactCatalog`), on top of the process-wide store
  LRUs.
- :mod:`repro.service.api` — the transport-free :class:`QueryAPI`: every
  question the CLI, tests, benches and the HTTP server ask of census /
  weighted / delta artifacts, answered as plain dicts and ndarrays.
- :mod:`repro.service.http` — a stdlib-``asyncio`` JSON/HTTP front
  (:class:`ArtifactServer`) plus :func:`start_in_thread` for in-process
  testing.

:class:`GridBatcher` (:mod:`repro.service.batching`) can slot between the
API and the kernels to coalesce concurrent grid requests into shared
vectorised calls — bit-exactly, because every grid kernel in the library
answers each grid point as an independent column.  ``repro serve`` does
not attach one: BCG grids are read off cached per-class stability
intervals, which leaves no kernel cost for a wait window to amortise.
"""

from .api import QueryAPI  # noqa: F401
from .batching import BatchStats, GridBatcher  # noqa: F401
from .catalog import ArtifactCatalog, ArtifactInfo, KINDS  # noqa: F401
from .http import ArtifactServer, serve_forever, start_in_thread  # noqa: F401

__all__ = [
    "ArtifactCatalog",
    "ArtifactInfo",
    "ArtifactServer",
    "BatchStats",
    "GridBatcher",
    "KINDS",
    "QueryAPI",
    "serve_forever",
    "start_in_thread",
]
