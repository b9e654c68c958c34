"""SessionStore survives a host crash at every write, sync and rename.

A test-side shim models the page cache over the file primitives the
store uses (builtin ``open`` and ``os.open``, ``write``/``pwrite``,
``ftruncate``, ``fsync``, ``os.replace``, ``os.remove``).  It keeps two
views of the store's directory: what the running program sees, and
what a host crash leaves behind.  ``fsync`` on a file makes its bytes
durable; ``fsync`` on the directory makes its names durable.

A script of saves runs once to count its mutating calls, then once per
call with a crash just before it (and once after the last).  Each crash
keeps the durable names and bytes and tears the rest: unsynced names
are all lost or all kept, and unsynced bytes are lost, kept, or written
only up to (or only from) an offset.  After every crash a fresh store
over the wreck must ``load()`` a generation that validates, that holds
the text saved under that number, and that is no older than the last
generation whose ``save()`` returned.  The shim is installed with
``monkeypatch``; ``src/`` carries no hook.
"""

import os
import types

import pytest

from repro.session import store as store_module
from repro.session.store import SessionStore

ROOT = "/crash/session"

#: Offsets a torn write splits at: every few bytes across the header
#: and into the payload.
TEAR_OFFSETS = tuple(range(1, 130, 4))
TEARS = (
    [("lost", 0), ("kept", 0)]
    + [("head", k) for k in TEAR_OFFSETS]
    + [("tail", k) for k in TEAR_OFFSETS]
)


class Crash(BaseException):
    """The host went down here.  A BaseException, so that no
    ``except OSError`` in the store can swallow it."""


class Inode:
    def __init__(self, data=b""):
        self.cache = bytearray(data)  # what the running program sees
        self.disk = bytes(data)  # what survives a crash


def torn(inode, tear):
    """The bytes a crash leaves of *inode* under *tear*."""
    kind, k = tear
    disk, cache = inode.disk, bytes(inode.cache)
    if kind == "lost" or disk == cache:
        return disk
    if kind == "kept":
        return cache
    if kind == "head":  # the write reached the disk up to offset k
        return cache[:k] + disk[k:]
    return disk[:k] + cache[k:]  # "tail": only from offset k on


class PageCacheFS:
    """One directory whose names and bytes live in a page cache until
    fsynced.  Every mutating call is a crash point."""

    def __init__(self, files=None):
        self.names = {path: Inode(data) for path, data in (files or {}).items()}
        self.synced_names = dict(self.names)
        self.fds = {}  # fd -> [inode, offset, append]; ROOT for the directory
        self.next_fd = 3
        self.points = 0
        self.crash_at = None

    def point(self):
        self.points += 1
        if self.points == self.crash_at:
            raise Crash()

    def wreck(self, names_kept, tear):
        """The directory a crash leaves, as a fresh, fully synced one."""
        names = self.names if names_kept else self.synced_names
        return PageCacheFS({path: torn(inode, tear) for path, inode in names.items()})

    # -- primitives, as the os module spells them --------------------------

    def open(self, path, flags, mode=0o777):
        if path == ROOT:
            inode = ROOT
        else:
            if os.path.dirname(path) != ROOT:
                raise FileNotFoundError(2, "outside the modelled directory", path)
            inode = self.names.get(path)
            if inode is None:
                if not flags & os.O_CREAT:
                    raise FileNotFoundError(2, "No such file or directory", path)
                self.point()
                inode = self.names[path] = Inode()
            if flags & os.O_TRUNC and inode.cache:
                self.point()
                del inode.cache[:]
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = [inode, 0, bool(flags & os.O_APPEND)]
        return fd

    def read(self, fd, size):
        entry = self.fds[fd]
        inode, offset = entry[0], entry[1]
        data = bytes(inode.cache[offset:] if size < 0 else inode.cache[offset:offset + size])
        entry[1] += len(data)
        return data

    def pwrite(self, fd, data, offset):
        self.point()
        cache = self.fds[fd][0].cache
        if len(cache) < offset:
            cache.extend(bytes(offset - len(cache)))
        cache[offset:offset + len(data)] = data
        return len(data)

    def write(self, fd, data):
        entry = self.fds[fd]
        if entry[2]:
            entry[1] = len(entry[0].cache)
        written = self.pwrite(fd, data, entry[1])
        entry[1] += written
        return written

    def ftruncate(self, fd, length):
        self.point()
        cache = self.fds[fd][0].cache
        if length < len(cache):
            del cache[length:]
        else:
            cache.extend(bytes(length - len(cache)))

    def fsync(self, fd):
        self.point()
        inode = self.fds[fd][0]
        if inode is ROOT:
            self.synced_names = dict(self.names)
        else:
            inode.disk = bytes(inode.cache)

    def close(self, fd):
        del self.fds[fd]

    def replace(self, src, dst):
        if src not in self.names:
            raise FileNotFoundError(2, "No such file or directory", src)
        self.point()
        self.names[dst] = self.names.pop(src)

    def remove(self, path):
        if path not in self.names:
            raise FileNotFoundError(2, "No such file or directory", path)
        self.point()
        del self.names[path]

    def listdir(self, path):
        assert path == ROOT, path
        return sorted(os.path.basename(name) for name in self.names)

    def makedirs(self, path, exist_ok=False):
        assert path == ROOT and exist_ok, path  # the directory itself is durable


class Handle:
    """A file object for the builtin ``open`` modes the store uses."""

    def __init__(self, fs, fd, encoding):
        self.fs, self.fd, self.encoding = fs, fd, encoding

    def read(self, size=-1):
        data = self.fs.read(self.fd, size)
        return data.decode(self.encoding) if self.encoding else data

    def write(self, data):
        if self.encoding:
            data = data.encode(self.encoding)
        self.fs.write(self.fd, data)
        return len(data)

    def truncate(self, size=None):
        self.fs.ftruncate(self.fd, self.fs.fds[self.fd][1] if size is None else size)

    def flush(self):
        pass

    def fileno(self):
        return self.fd

    def close(self):
        if self.fd in self.fs.fds:
            self.fs.close(self.fd)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class Shim:
    """What the store module sees as ``os`` and ``open``; the
    directory behind them is swapped for each run."""

    def __init__(self):
        self.fs = PageCacheFS()
        self.os = types.SimpleNamespace(
            path=types.SimpleNamespace(
                join=os.path.join, basename=os.path.basename,
                dirname=os.path.dirname,
            ),
            **{flag: getattr(os, flag) for flag in (
                "O_RDONLY", "O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND",
            )},
            **{name: self._call(name) for name in (
                "open", "read", "write", "pwrite", "ftruncate", "fsync",
                "close", "replace", "remove", "listdir", "makedirs",
            )},
        )

    def _call(self, name):
        return lambda *args, **kwargs: getattr(self.fs, name)(*args, **kwargs)

    def open(self, path, mode="r", encoding=None, **_):
        if "+" in mode:
            flags = os.O_RDWR
        else:
            flags = os.O_RDONLY if "r" in mode else os.O_WRONLY
        if "w" in mode:
            flags |= os.O_CREAT | os.O_TRUNC
        elif "a" in mode:
            flags |= os.O_CREAT | os.O_APPEND
        fd = self.fs.open(path, flags)
        return Handle(self.fs, fd, None if "b" in mode else encoding or "utf-8")


@pytest.fixture
def shim(monkeypatch):
    shim = Shim()
    monkeypatch.setattr(store_module, "os", shim.os)
    monkeypatch.setattr(store_module, "open", shim.open, raising=False)
    return shim


class Ledger:
    """What the script has saved: the texts written under each
    generation number, and the newest generation a restore owes."""

    def __init__(self):
        self.texts = {}
        self.floor = 0

    def save(self, store, text):
        self.texts.setdefault(store.latest_generation() + 1, set()).add(text)
        checkpoint = store.save(text)
        assert text in self.texts[checkpoint.generation]
        self.floor = checkpoint.generation


def snapshot(index):
    """A places text whose length varies, so in-place rewrites both
    grow and shrink a file."""
    return f"#!/bin/sh\n# snapshot {index}\n" + "xterm -geometry +10+20 &\n" * (index % 3 + 1)


def corrupt(fs, path):
    """Bit-rot on disk: flip one payload byte, durably."""
    inode = fs.names[path]
    inode.cache[-2] ^= 0xFF
    inode.disk = bytes(inode.cache)


def rotate(ledger, fs):
    """Seven saves through a keep-3 store: every slot is written more
    than once."""
    store = SessionStore(ROOT, keep=3)
    for index in range(7):
        ledger.save(store, snapshot(index))


def recover(ledger, fs):
    """Three saves, bit-rot in the newest, a restart whose load()
    quarantines it, then three more saves over the gap."""
    store = SessionStore(ROOT, keep=3)
    for index in range(3):
        ledger.save(store, snapshot(index))
    corrupt(fs, store.load().path)
    ledger.floor -= 1  # the corrupted generation is owed no longer
    store = SessionStore(ROOT, keep=3)
    assert store.load().generation == ledger.floor
    for index in range(3, 6):
        ledger.save(store, snapshot(index))


def run(shim, script, crash_at):
    """Run *script* on a fresh directory until the crash; returns the
    ledger and the directory as the crash found it."""
    shim.fs = fs = PageCacheFS()
    fs.crash_at = crash_at
    ledger = Ledger()
    try:
        script(ledger, fs)
    except Crash:
        pass
    return ledger, fs


def check_restore(shim, ledger, wreck, where):
    shim.fs = wreck
    store = SessionStore(ROOT, keep=3)
    loaded = store.load()
    if ledger.floor:
        assert loaded is not None, (
            f"{where}: nothing loads, but generation {ledger.floor} was saved"
        )
        assert loaded.generation >= ledger.floor, (
            f"{where}: loaded generation {loaded.generation}, but "
            f"generation {ledger.floor} was saved"
        )
    if loaded is not None:
        assert loaded.text in ledger.texts.get(loaded.generation, ()), (
            f"{where}: generation {loaded.generation} holds a text never "
            "saved under that number"
        )
    # The restored store goes on working.
    after = store.save("# after the crash\n")
    assert store.load() == after, where


@pytest.mark.parametrize("script", [rotate, recover])
def test_every_crash_point_restores_the_last_save(shim, script):
    total = run(shim, script, crash_at=None)[1].points
    assert total > 10  # the script really wrote and synced
    for crash_at in range(1, total + 2):
        ledger, fs = run(shim, script, crash_at)
        for names_kept in (False, True):
            for tear in TEARS:
                where = (
                    f"crash before mutating call {crash_at}/{total}, "
                    f"unsynced names {'kept' if names_kept else 'lost'}, "
                    f"bytes {tear[0]} {tear[1]}"
                )
                check_restore(shim, ledger, fs.wreck(names_kept, tear), where)


def test_shim_tears_only_unsynced_bytes(shim):
    """The model itself: synced bytes and names survive every tear,
    unsynced ones need not."""
    fs = shim.fs
    fd = fs.open(ROOT + "/a", os.O_WRONLY | os.O_CREAT)
    fs.pwrite(fd, b"durable", 0)
    fs.fsync(fd)
    dirfd = fs.open(ROOT, os.O_RDONLY)
    fs.fsync(dirfd)
    fs.pwrite(fd, b"VOLATILE", 0)
    fs.open(ROOT + "/b", os.O_WRONLY | os.O_CREAT)
    for tear in TEARS:
        lost = fs.wreck(False, tear)
        assert list(lost.names) == [ROOT + "/a"]
        assert fs.wreck(True, tear).names.keys() == {ROOT + "/a", ROOT + "/b"}
    assert bytes(fs.wreck(False, ("lost", 0)).names[ROOT + "/a"].cache) == b"durable"
    assert bytes(fs.wreck(False, ("kept", 0)).names[ROOT + "/a"].cache) == b"VOLATILE"
    assert bytes(fs.wreck(False, ("head", 3)).names[ROOT + "/a"].cache) == b"VOLable"
    assert bytes(fs.wreck(False, ("tail", 3)).names[ROOT + "/a"].cache) == b"durATILE"
