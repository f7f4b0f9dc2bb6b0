"""Durable checkpoint files: versioned, checksummed, atomically written.

On-disk layout of one checkpoint (``ckpt-0003-CRP2.ckpt``)::

    MAGIC            b"RPCKPT1\\n"
    header length    8 bytes, big-endian
    header           JSON: {"format": 1, "sha256": ..., "meta": {...}}
    payload          canonical pickle (fixed protocol) of the state

The SHA-256 in the header is computed over the canonical pickle payload
and verified on every load, so a torn write, bit rot, or a truncated
file is *detected* (raising :class:`CheckpointError`) instead of
silently resuming from garbage.  Files are written through
:func:`repro.ckpt.atomic.atomic_write` (temp + fsync + rename), so a
crash during checkpointing leaves the previous checkpoint intact.

The small JSON header is readable without unpickling the payload, which
is what lets :meth:`CheckpointStore.load_latest` reject format-version
and fingerprint (stale-run) mismatches cheaply before touching the
payload bytes.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from pathlib import Path

from repro.ckpt.atomic import atomic_write
from repro.guard.deadline import DeadlineExceeded
from repro.guard.faults import fault_point
from repro.guard.report import FailureReport
from repro.obs import get_metrics

MAGIC = b"RPCKPT1\n"
#: bump when the payload schema changes incompatibly, or when the
#: algorithm does (the fingerprint carries no algorithm identity, so a
#: resumed run would follow neither build's trajectory).  2: canonical
#: tie-break in the window legalizer.  3: ``router_ctor`` lost the
#: cost-field selector (a format-2 payload no longer fits the ctor).
FORMAT_VERSION = 3
#: fixed pickle protocol so payload bytes (and their digest) are stable
#: across interpreter versions that share the protocol
PICKLE_PROTOCOL = 4

_NAME_RE = re.compile(r"^ckpt-(\d{4})-[A-Za-z0-9_]+\.ckpt$")


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class CheckpointStore:
    """One directory of ordered checkpoints for a single flow run."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # --------------------------------------------------------------- paths

    def paths(self) -> list[Path]:
        """Checkpoint files in ascending sequence order."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in sorted(self.directory.iterdir()):
            match = _NAME_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def _next_index(self) -> int:
        paths = self.paths()
        if not paths:
            return 0
        return int(_NAME_RE.match(paths[-1].name).group(1)) + 1

    # --------------------------------------------------------------- write

    def save(self, meta: dict, state: object) -> Path:
        """Write one checkpoint; returns its path.

        ``meta`` must be JSON-able (it lands in the header); ``state``
        is the pickled payload.  Raises on failure — callers that must
        survive a bad disk wrap this (see ``FlowCheckpointer.save``).
        """
        fault_point("ckpt.write")
        payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
        header = {
            "format": FORMAT_VERSION,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "meta": meta,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        blob = (
            MAGIC
            + len(header_bytes).to_bytes(8, "big")
            + header_bytes
            + payload
        )
        stage = re.sub(r"[^A-Za-z0-9_]", "", str(meta.get("stage", "state")))
        iteration = meta.get("iteration")
        suffix = f"{stage}{iteration}" if iteration is not None else stage
        path = self.directory / f"ckpt-{self._next_index():04d}-{suffix}.ckpt"
        atomic_write(path, blob)
        metrics = get_metrics()
        metrics.count("ckpt.writes")
        metrics.observe("ckpt.write_bytes", len(blob))
        return path

    # ---------------------------------------------------------------- read

    def read_header(self, path: Path) -> dict:
        """The JSON header of ``path`` (no payload verification)."""
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise CheckpointError(f"{path.name}: bad magic (not a checkpoint)")
            raw_len = handle.read(8)
            if len(raw_len) != 8:
                raise CheckpointError(f"{path.name}: truncated header length")
            header_len = int.from_bytes(raw_len, "big")
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise CheckpointError(f"{path.name}: truncated header")
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise CheckpointError(f"{path.name}: unreadable header: {exc}") from exc
        if header.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path.name}: format version {header.get('format')!r} "
                f"(this build reads {FORMAT_VERSION})"
            )
        return header

    def load(self, path: Path) -> tuple[dict, object]:
        """Verify and unpickle one checkpoint; ``(meta, state)``.

        Raises :class:`CheckpointError` on magic/version/checksum
        mismatch or a truncated payload.
        """
        fault_point("ckpt.load")
        header = self.read_header(path)
        offset = len(MAGIC) + 8 + len(
            json.dumps(header, sort_keys=True).encode("utf-8")
        )
        with open(path, "rb") as handle:
            handle.seek(offset)
            payload = handle.read()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointError(
                f"{path.name}: payload checksum mismatch "
                f"(stored {str(header.get('sha256'))[:12]}…, got {digest[:12]}…)"
            )
        try:
            state = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(f"{path.name}: unpicklable payload: {exc}") from exc
        get_metrics().count("ckpt.loads")
        return header.get("meta", {}), state

    def load_latest(
        self, fingerprint: dict | None = None
    ) -> tuple[dict | None, object | None, list[FailureReport]]:
        """The newest loadable, fingerprint-matching checkpoint.

        Walks checkpoints newest-first.  Corrupt or truncated files are
        *skipped* (each one becomes a :class:`FailureReport` in the
        returned list, and counts ``ckpt.load_failures``) rather than
        crashing the resume; a checkpoint whose recorded fingerprint
        does not match ``fingerprint`` is stale (different design, mode,
        or config) and is likewise skipped, counting ``ckpt.stale``.
        Returns ``(None, None, reports)`` when nothing usable exists.
        """
        metrics = get_metrics()
        reports: list[FailureReport] = []
        for path in reversed(self.paths()):
            try:
                meta, state = self.load(path)
            except DeadlineExceeded:
                raise
            except Exception as exc:
                metrics.count("ckpt.load_failures")
                reports.append(
                    FailureReport(
                        stage="ckpt.load",
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                )
                continue
            if fingerprint is not None and meta.get("fingerprint") != fingerprint:
                metrics.count("ckpt.stale")
                reports.append(
                    FailureReport(
                        stage="ckpt.load",
                        error_type="StaleCheckpoint",
                        message=(
                            f"{path.name}: fingerprint mismatch "
                            "(different design/mode/config) — skipped"
                        ),
                    )
                )
                continue
            return meta, state, reports
        return None, None, reports
