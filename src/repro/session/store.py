"""Durable session checkpoints: checksummed f.places snapshots in slots.

The naive ``f.places`` write (open, write, close) loses the whole
session if the WM dies mid-write.  :class:`SessionStore` keeps ``keep``
fixed **slot** files instead (``places.slot0.ck`` …):

* generation *g* is written in place over slot ``g % keep`` and fsynced
  once, so a torn write can only cost the state it overwrites, which is
  always the oldest;
* each slot has a header with a format version, its generation, the
  payload length and a CRC32 of generation and payload, so truncation,
  bit-rot and a torn header are *detected* rather than replayed;
* the first save creates every slot file and fsyncs the directory once;
  later saves list, rename and unlink nothing;
* :meth:`SessionStore.load` validates every slot, moves any that fails
  aside (``*.quarantined`` plus a line in ``quarantine.log``) and
  answers with the newest generation that validates.

The store validates its slots once, when it is opened, and keeps what
each holds in memory: one store per directory.  It holds plain
``f.places`` text; parsing stays in :mod:`repro.session.places`.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Set

MAGIC = "swm-checkpoint"
VERSION = 2


class CorruptCheckpoint(ValueError):
    """A checkpoint file failed validation (truncated, bad CRC...)."""


@dataclass
class Checkpoint:
    """One validated snapshot."""

    generation: int
    path: str
    text: str


@dataclass
class QuarantineRecord:
    """One checkpoint moved aside because it failed validation."""

    generation: int
    path: str
    reason: str


def _crc(generation: int, payload: bytes) -> int:
    """CRC32 over the generation number and the payload, so a torn
    header cannot relabel an older payload as a newer generation."""
    return zlib.crc32(payload, zlib.crc32(b"%d\n" % generation))


def _fsync(path: str, flags: int, blob: bytes = b"") -> None:
    """Open *path*, write *blob* over its start, cut it to that length
    and fsync it (a directory is only fsynced)."""
    fd = os.open(path, flags, 0o644)
    try:
        if blob:
            if os.pwrite(fd, blob, 0) != len(blob):
                raise OSError(f"short write to {path}")
            os.ftruncate(fd, len(blob))
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class SessionStore:
    """``keep`` validated ``f.places`` checkpoints, one slot file each."""

    directory: str
    basename: str = "places"
    keep: int = 3
    #: Validation failures seen by load() this process, newest last.
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Successful save() calls this process.
    saves: int = 0

    def __post_init__(self) -> None:
        if self.keep < 2:  # a torn write may cost the slot it overwrites
            raise ValueError(f"keep must be at least 2, not {self.keep}")
        os.makedirs(self.directory, exist_ok=True)
        stem = os.path.join(self.directory, self.basename)
        self._paths = [f"{stem}.slot{index}.ck" for index in range(self.keep)]
        #: Per slot, the generation it validated with; 0 if it holds
        #: none (never written, or corrupt).
        self._generations = [0] * self.keep
        #: Slots whose file does not exist.
        self._missing: Set[int] = set()
        self._scan(quarantine=False)

    def generations(self) -> List[int]:
        """Generation numbers held by valid slots, oldest first."""
        return sorted(g for g in self._generations if g)

    def latest_generation(self) -> int:
        return max(self._generations)

    def save(self, text: str) -> Checkpoint:
        """Write *text* as the next generation over its slot, in place,
        and fsync it.  The first save (and the first after a quarantine)
        also creates the missing slot files and fsyncs the directory."""
        generation = self.latest_generation() + 1
        index = generation % self.keep
        payload = text.encode("utf-8")
        blob = (
            f"# {MAGIC} v{VERSION}\n"
            f"# generation: {generation}\n"
            f"# length: {len(payload)}\n"
            f"# crc32: {_crc(generation, payload):08x}\n"
        ).encode("utf-8") + payload
        for missing in self._missing:
            os.close(os.open(self._paths[missing], os.O_WRONLY | os.O_CREAT, 0o644))
        path = self._paths[index]
        _fsync(path, os.O_WRONLY | os.O_CREAT, blob)
        if self._missing:
            _fsync(self.directory, os.O_RDONLY)
            self._missing.clear()
        self._generations[index] = generation
        self.saves += 1
        return Checkpoint(generation=generation, path=path, text=text)

    def load(self) -> Optional[Checkpoint]:
        """The newest checkpoint that validates, or None.  Each slot that
        fails validation is quarantined (renamed to ``*.quarantined`` and
        recorded in ``quarantine.log``); a never-written slot is skipped.
        Corruption costs history, never the restore."""
        return self._scan(quarantine=True)

    def _scan(self, quarantine: bool) -> Optional[Checkpoint]:
        """Validate every slot, note what each holds and return the
        newest checkpoint."""
        found: List[Checkpoint] = []
        for index, path in enumerate(self._paths):
            checkpoint: Optional[Checkpoint] = None
            try:
                checkpoint = self._read(path)
            except FileNotFoundError:
                self._missing.add(index)
            except (CorruptCheckpoint, OSError) as err:
                if quarantine:
                    self._quarantine(index, str(err))
            self._generations[index] = checkpoint.generation if checkpoint else 0
            if checkpoint:
                found.append(checkpoint)
        return max(found, key=lambda checkpoint: checkpoint.generation, default=None)

    def _read(self, path: str) -> Optional[Checkpoint]:
        """The checkpoint in *path*, or None if the slot is empty."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if not blob:
            return None
        parts = blob.split(b"\n", 4)
        if len(parts) < 5:
            raise CorruptCheckpoint("truncated header")
        magic, gen_line, length_line, crc_line, payload = parts
        if magic != f"# {MAGIC} v{VERSION}".encode("utf-8"):
            raise CorruptCheckpoint(f"bad magic/version {magic!r}")
        try:
            generation = int(gen_line.split(b":", 1)[1])
            length = int(length_line.split(b":", 1)[1])
            crc = int(crc_line.split(b":", 1)[1], 16)
        except (IndexError, ValueError):
            raise CorruptCheckpoint("malformed header fields") from None
        if len(payload) != length:
            raise CorruptCheckpoint(f"length {len(payload)} != {length} (truncated write)")
        if _crc(generation, payload) != crc:
            raise CorruptCheckpoint("CRC mismatch (corrupted payload)")
        return Checkpoint(generation, path, payload.decode("utf-8"))

    def _quarantine(self, index: int, reason: str) -> None:
        path = self._paths[index]
        self.quarantined.append(QuarantineRecord(self._generations[index], path, reason))
        try:
            os.replace(path, path + ".quarantined")
            self._missing.add(index)
        except OSError:
            pass  # unreadable *and* unmovable: leave it; load() moved on
        log = os.path.join(self.directory, "quarantine.log")
        try:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.path.basename(path)}\t{reason}\n")
        except OSError:
            pass


__all__ = ["Checkpoint", "CorruptCheckpoint", "QuarantineRecord", "SessionStore"]
