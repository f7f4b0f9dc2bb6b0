"""Run digests: SHA-256 over a flow's final routes and placement.

Every ``FlowResult`` carries both (``routes_digest`` /
``placement_digest``).  The test1 pins in ``tests/test_flow.py`` and the
benchmark's equal-across-repetitions gate compare them byte-for-byte,
which is how a re-run proves it reproduced a run exactly.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.db import Design
    from repro.groute import GlobalRouter

#: pickle protocol used for digests (must stay fixed for comparability)
DIGEST_PROTOCOL = 4


def routes_digest(router: "GlobalRouter") -> str:
    """SHA-256 over the canonical committed-routes serialization.

    Each route is pickled as its decoded :class:`repro.grid.GridEdge`
    tuple in ``(layer, gx, gy, kind)`` order, one fresh object per edge
    (pickle would write a shared object as a back-reference).
    """
    graph = router.graph
    canon = tuple(
        (name, tuple(map(graph.edge, graph.edge_order(router.routes[name].edges))))
        for name in sorted(router.routes)
    )
    return hashlib.sha256(
        pickle.dumps(canon, protocol=DIGEST_PROTOCOL)
    ).hexdigest()


def positions_digest(design: "Design") -> str:
    """SHA-256 over the canonical cell-placement serialization."""
    canon = tuple(
        (name, cell.x, cell.y, cell.orient.value)
        for name, cell in sorted(design.cells.items())
    )
    return hashlib.sha256(
        pickle.dumps(canon, protocol=DIGEST_PROTOCOL)
    ).hexdigest()
