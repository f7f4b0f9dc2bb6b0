"""Pause the cyclic garbage collector for a bounded piece of work.

The flow builds large, long-lived, cycle-free structures (routes, edge
sets, search heaps): generational sweeps over them cost time and reclaim
next to nothing (DESIGN.md, "GC paused for the flow"), while reference
counting keeps freeing everything acyclic as usual.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable ``gc`` for the block and leave it as it was found.

    Reentrant: a nested pause finds the collector already off and
    leaves it off, so only the outermost one re-enables it — on every
    exit path.  No collection is forced on exit; the next allocation
    threshold triggers one as usual.  Also usable as a decorator
    (``@gc_paused()``), one fresh pause per call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
