"""``repro.ckpt`` — run digests and atomic file writes.

* :mod:`repro.ckpt.digest` — ``routes_digest`` / ``positions_digest``,
  the SHA-256 fingerprints of a flow's final routes and placement.
* :mod:`repro.ckpt.atomic` — ``atomic_write`` (temp + fsync + rename),
  the primitive every persisted artifact in the repo goes through.

The name predates the removal of checkpoint/resume.  It stays because
the benchmark's tracer wraps ``repro.ckpt.routes_digest`` and
``repro.ckpt.positions_digest`` on this package, and the flow reads
both names off it at call time so those wrappers see every call.
"""

from repro.ckpt.atomic import atomic_write
from repro.ckpt.digest import positions_digest, routes_digest

__all__ = [
    "atomic_write",
    "positions_digest",
    "routes_digest",
]
