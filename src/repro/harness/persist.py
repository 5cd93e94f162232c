"""Persistent simulation-result cache and sweep checkpointing.

Long (``REPRO_FULL=1``) sweeps are expensive; :class:`ResultStore` keeps
each :class:`SimResult` on disk under a precomputed
:meth:`~repro.spec.RunRequest.cache_key` digest, which covers everything
that determines the result — the workload/trace identity, the full
configuration, the execution variant, and the package and result-schema
versions (so any model change invalidates old results).

The store is hardened for concurrent, crash-prone use:

- writes go through a **unique per-writer temp file** plus atomic
  ``os.replace`` (a shared ``.tmp`` path would race when two workers
  store the same key);
- entries embed a **content checksum**; a truncated, garbled or
  unchecksummed file is **quarantined** under ``<dir>/quarantine/`` for
  post-mortem instead of being silently deleted, and the load simply
  misses.

:class:`SweepManifest` checkpoints sweep progress (which point keys are
done or failed) in one atomically-rewritten JSON file, so an interrupted
sweep rerun with ``resume=True`` re-simulates only the unfinished points.

Enable the store for the benchmark suite by setting
``REPRO_RESULT_CACHE`` to a directory path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import CacheCorruptionError
from repro.fsutil import QUARANTINE_DIR, atomic_write_text, quarantine
from repro.obs import events as obs_events
from repro.sim import SimResult
from repro.sim.serialize import result_from_json, result_to_json

__all__ = ["ResultStore", "SweepManifest"]


class ResultStore:
    """Directory-backed map from run identity to SimResult.

    :meth:`load_key` / :meth:`store_key` take a precomputed
    :meth:`~repro.spec.RunRequest.cache_key` digest.  The serving
    layer's content-addressed :class:`~repro.serve.cache.ResultCache`
    layers on top of these, inheriting the atomic-write / checksum /
    quarantine discipline wholesale.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.result.json"

    def _check_envelope(self, path: Path, envelope: dict) -> None:
        """Hook for subclasses to vet envelope metadata before parsing.

        Raise :class:`~repro.errors.CacheCorruptionError` to refuse the
        entry; the loader then quarantines the file.
        """

    def _parse(self, path: Path, text: str) -> SimResult:
        try:
            envelope = json.loads(text)
        except ValueError as exc:
            raise CacheCorruptionError(str(path),
                                       f"not valid JSON ({exc})") from None
        if not isinstance(envelope, dict) or "payload" not in envelope:
            raise CacheCorruptionError(str(path), "no checksum envelope")
        self._check_envelope(path, envelope)
        payload = envelope["payload"]
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest != envelope.get("checksum"):
            raise CacheCorruptionError(str(path), "checksum mismatch")
        return result_from_json(payload)

    def load_key(self, key: str) -> SimResult | None:
        """Return the result stored under ``key`` or None.

        Corrupt, unchecksummed or refused entries are quarantined under
        ``<dir>/quarantine/`` and counted on :attr:`quarantined`; the
        load simply misses.
        """
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError:
            # Garbled beyond UTF-8: corrupt, same as a failed checksum.
            self._quarantine_entry(path, "not valid UTF-8")
            return None
        try:
            return self._parse(path, text)
        except Exception as exc:  # noqa: BLE001 — corrupt entry, not fatal
            self._quarantine_entry(path, str(exc))
            return None

    def _quarantine_entry(self, path: Path, reason: str) -> None:
        try:
            quarantine(path)
            self.quarantined += 1
            obs_events.emit("store_quarantine", data={
                "path": str(path), "reason": reason})
        except OSError:
            pass

    def store_key(self, key: str, result: SimResult,
                  meta: dict | None = None) -> None:
        """Store ``result`` under a precomputed key.

        ``meta`` adds envelope fields alongside ``checksum``/``payload``
        (the serving cache records the originating request and the
        result schema version there); the payload checksum always wins
        on conflict.
        """
        path = self._path(key)
        payload = result_to_json(result)
        fields = dict(meta) if meta else {}
        fields.update({
            "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "payload": payload,
        })
        atomic_write_text(self.directory, path, json.dumps(fields))

    def clear(self) -> int:
        """Delete all stored results; returns the number removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.result.json"):
            path.unlink()
            removed += 1
        return removed

    def quarantined_files(self) -> list[Path]:
        """Entries quarantined as corrupt (for post-mortem inspection)."""
        qdir = self.directory / QUARANTINE_DIR
        if not qdir.exists():
            return []
        return sorted(qdir.iterdir())


class SweepManifest:
    """Atomic on-disk checkpoint of one sweep's per-point progress.

    The manifest maps point keys (see
    :meth:`~repro.spec.RunRequest.cache_key`) to a terminal status
    (``done`` or ``failed``).  It is rewritten atomically after
    every state change, so a sweep killed mid-run leaves a consistent
    file behind; a corrupt manifest is quarantined and treated as empty
    (resume then falls back on the result store alone).

    ``meta`` records the sweep identity the manifest belongs to (trace
    length, seed, point count, a digest of the point keys).  Reopening
    an existing manifest with *different* metadata raises
    :class:`~repro.errors.ReproError` — previously a checkpoint from
    one sweep silently steered another (e.g. after changing
    ``persist_dir`` or the point set between resume runs), skipping
    points that were never actually computed for the current spec.
    """

    _VERSION = 2

    def __init__(self, path: str | Path,
                 meta: dict | None = None):
        self.path = Path(path)
        self.done: set[str] = set()
        self.failed: dict[str, str] = {}
        self.meta: dict = dict(meta) if meta else {}
        self._load(expected_meta=dict(meta) if meta else None)

    def _load(self, expected_meta: dict | None = None) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError:
            return
        try:
            data = json.loads(text)
            if not isinstance(data, dict) or "done" not in data:
                raise ValueError("missing keys")
            done = set(data["done"])
            failed = dict(data.get("failed", {}))
            stored_meta = dict(data.get("meta", {}))
        except (ValueError, TypeError):
            try:
                quarantine(self.path)
            except OSError:
                pass
            return
        if expected_meta is not None and stored_meta:
            mismatched = sorted(
                field for field in expected_meta
                if field in stored_meta
                and stored_meta[field] != expected_meta[field])
            if mismatched:
                from repro.errors import ReproError

                detail = ", ".join(
                    f"{field}: checkpoint has "
                    f"{stored_meta[field]!r}, current sweep has "
                    f"{expected_meta[field]!r}"
                    for field in mismatched)
                raise ReproError(
                    f"checkpoint {self.path} belongs to a different "
                    f"sweep ({detail}); point a fresh checkpoint path "
                    f"at this sweep or delete the stale manifest")
        self.done = done
        self.failed = failed
        if stored_meta and not self.meta:
            self.meta = stored_meta

    def save(self) -> None:
        payload = json.dumps({
            "version": self._VERSION,
            "meta": self.meta,
            "done": sorted(self.done),
            "failed": self.failed,
        }, indent=1, sort_keys=True)
        atomic_write_text(self.path.parent, self.path, payload)

    def mark_done(self, key: str) -> None:
        self.done.add(key)
        self.failed.pop(key, None)
        self.save()

    def mark_failed(self, key: str, error: str) -> None:
        self.done.discard(key)
        self.failed[key] = error
        self.save()
