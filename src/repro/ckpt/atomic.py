"""Atomic file writes: temp file + fsync + ``os.rename``.

Every persisted artifact in this repo — trace dumps, the analyzer
baseline and reports — must never be
observable in a half-written state: a truncated JSON baseline poisons
CI gates.  ``atomic_write`` guarantees a
reader sees either the old content or the complete new content, never a
prefix: the bytes land in a temp file in the *same directory* (so the
rename cannot cross filesystems), are fsync'd to disk, and are then
renamed over the target in one atomic step.

This module is dependency-free on purpose (stdlib only, no ``repro``
imports) so anything — exporters, scripts, the linter's fix hint — can
use it without import cycles.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: str | os.PathLike, data: bytes | str) -> Path:
    """Write ``data`` to ``path`` atomically; returns the final path.

    ``str`` data is encoded as UTF-8.  On any failure the temp file is
    removed and the original ``path`` content (if any) is untouched.
    """
    target = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
