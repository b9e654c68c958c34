"""SessionStore: durable, checksummed, rotating f.places checkpoints."""

import os

import pytest

from repro.session.store import MAGIC, VERSION, SessionStore

PLACES_A = "#!/bin/sh\nswmhints -cmd xterm\nxterm &\nswm\n"
PLACES_B = "#!/bin/sh\nswmhints -cmd xclock\nxclock &\nswm\n"
PLACES_C = "#!/bin/sh\nswmhints -cmd xload\nxload &\nswm\n"


def make_store(tmp_path, **kwargs):
    return SessionStore(str(tmp_path / "session"), **kwargs)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        saved = store.save(PLACES_A)
        assert saved.generation == 1
        loaded = store.load()
        assert loaded is not None
        assert loaded.text == PLACES_A
        assert loaded.generation == 1

    def test_empty_store_loads_none(self, tmp_path):
        assert make_store(tmp_path).load() is None

    def test_load_prefers_newest_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        store.save(PLACES_B)
        assert store.load().text == PLACES_B

    def test_generations_rotate_and_prune(self, tmp_path):
        store = make_store(tmp_path, keep=3)
        for index in range(6):
            store.save(f"# snapshot {index}\n")
        assert store.generations() == [4, 5, 6]
        # Generation g overwrote slot g % keep; nothing else is on disk.
        names = sorted(os.listdir(store.directory))
        assert names == ["places.slot0.ck", "places.slot1.ck", "places.slot2.ck"]
        reopened = make_store(tmp_path, keep=3)
        assert reopened.generations() == [4, 5, 6]
        assert reopened.load().text == "# snapshot 5\n"

    def test_save_lists_renames_and_unlinks_nothing(self, tmp_path, monkeypatch):
        """A save is one in-place write and one fsync; only the first
        also fsyncs the directory that now names every slot."""
        store = make_store(tmp_path, keep=3)

        def forbidden(*args, **kwargs):
            raise AssertionError("a save must not list, rename or unlink")

        for name in ("listdir", "replace", "rename", "remove", "unlink"):
            monkeypatch.setattr(os, name, forbidden)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        store.save(PLACES_A)
        assert len(fsyncs) == 2  # the slot, then the directory
        for text in (PLACES_B, PLACES_C, PLACES_A, PLACES_B):
            store.save(text)
        assert len(fsyncs) == 6  # one per later save
        monkeypatch.undo()
        assert store.load().text == PLACES_B

    def test_no_temp_files_leak(self, tmp_path):
        store = make_store(tmp_path)
        for index in range(4):
            store.save(f"# snapshot {index}\n")
        assert not [
            name for name in os.listdir(store.directory)
            if name.endswith(".tmp")
        ]

    def test_generation_numbering_survives_reopen(self, tmp_path):
        """A fresh store over the same directory (the restarted WM)
        continues the generation sequence rather than clobbering."""
        make_store(tmp_path).save(PLACES_A)
        reopened = make_store(tmp_path)
        assert reopened.save(PLACES_B).generation == 2
        assert reopened.load().text == PLACES_B

    def test_keep_leaves_a_slot_to_fall_back_on(self, tmp_path):
        with pytest.raises(ValueError):
            make_store(tmp_path, keep=1)

    def test_non_ascii_payload(self, tmp_path):
        store = make_store(tmp_path)
        text = "swmhints -cmd 'xterm -title café'\n"
        store.save(text)
        assert store.load().text == text


class TestCorruption:
    def _corrupt_payload(self, path):
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-2] ^= 0xFF  # flip one payload byte; length stays right
        with open(path, "wb") as handle:
            handle.write(blob)

    def test_corrupt_newest_falls_back_one_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        self._corrupt_payload(newest.path)

        loaded = store.load()
        assert loaded.text == PLACES_A
        assert loaded.generation == 1
        # The bad file was moved aside, not deleted, with a record.
        assert os.path.exists(newest.path + ".quarantined")
        assert not os.path.exists(newest.path)
        assert len(store.quarantined) == 1
        assert "CRC" in store.quarantined[0].reason
        log = open(
            os.path.join(store.directory, "quarantine.log"),
            encoding="utf-8",
        ).read()
        assert "places.slot2.ck" in log

    def test_truncated_newest_falls_back(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        with open(newest.path, "rb") as handle:
            blob = handle.read()
        with open(newest.path, "wb") as handle:
            handle.write(blob[: len(blob) - 10])  # crash mid-write

        loaded = store.load()
        assert loaded.text == PLACES_A
        assert "truncated" in store.quarantined[0].reason

    def test_bad_magic_falls_back(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        with open(newest.path, "wb") as handle:
            handle.write(b"not a checkpoint at all\na\nb\nc\nd\n")
        assert store.load().text == PLACES_A

    def test_all_generations_corrupt_loads_none(self, tmp_path):
        store = make_store(tmp_path)
        for text in (PLACES_A, PLACES_B, PLACES_C):
            checkpoint = store.save(text)
            self._corrupt_payload(checkpoint.path)
        assert store.load() is None
        assert len(store.quarantined) == 3

    def test_header_only_file(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        with open(newest.path, "wb") as handle:
            handle.write(f"# {MAGIC} v{VERSION}\n".encode("utf-8"))
        assert store.load().text == PLACES_A

    def test_save_after_quarantine_continues_numbering(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        self._corrupt_payload(newest.path)
        assert store.load().generation == 1
        # Quarantine freed generation 2's name; the next save must not
        # be confused by the gap.
        assert store.save(PLACES_C).generation >= 2
        assert store.load().text == PLACES_C

    def test_quarantined_slot_is_recreated_by_the_next_save(self, tmp_path):
        store = make_store(tmp_path)
        store.save(PLACES_A)
        newest = store.save(PLACES_B)
        self._corrupt_payload(newest.path)
        assert store.load().text == PLACES_A
        assert not os.path.exists(newest.path)
        saved = store.save(PLACES_C)
        assert saved.path == newest.path  # the same slot, a new file
        assert store.load() == saved
        assert make_store(tmp_path).load() == saved
        assert len(store.quarantined) == 1

    def test_never_written_slot_is_skipped_not_quarantined(self, tmp_path):
        store = make_store(tmp_path, keep=3)
        store.save(PLACES_A)  # creates all three slots; fills one
        assert sorted(os.listdir(store.directory)) == [
            "places.slot0.ck", "places.slot1.ck", "places.slot2.ck"
        ]
        reopened = make_store(tmp_path, keep=3)
        assert reopened.load().text == PLACES_A
        assert reopened.quarantined == []
        assert reopened.generations() == [1]

    def test_torn_in_place_write_falls_back_to_the_previous_generation(
        self, tmp_path
    ):
        """A crash halfway through overwriting the oldest slot leaves
        the head of the new generation over the tail of the old one;
        the restore falls back to the newest complete save."""
        store = make_store(tmp_path, keep=3)
        slot = store.save(PLACES_A).path
        store.save(PLACES_B)
        store.save(PLACES_C)
        with open(slot, "rb") as handle:
            old_blob = handle.read()
        assert store.save(PLACES_A + PLACES_B).path == slot  # 4 over 1
        with open(slot, "rb") as handle:
            new = handle.read()
        for cut in range(1, len(new), 7):
            torn = new[:cut] + old_blob[cut:]
            with open(slot, "wb") as handle:
                handle.write(torn)
            reopened = make_store(tmp_path, keep=3)
            loaded = reopened.load()
            assert (loaded.generation, loaded.text) == (3, PLACES_C), cut
            # Only the torn mix is moved aside; an untouched old slot
            # is still generation 1.
            assert len(reopened.quarantined) == (torn != old_blob), cut
