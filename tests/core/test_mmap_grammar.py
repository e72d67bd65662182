"""The compiled-artifact format: round trips, staleness, stampedes.

The multi-worker daemon's zero-copy grammar sharing rests on three
properties proved here:

- an artifact round-trips *exactly*: every table of the mapped grammar
  equals the ``FrozenGrammar`` it was compiled from, key order included
  (prediction arithmetic iterates these dicts, so order is part of
  byte-identity);
- staleness is detected through the source trace's ``(mtime_ns, size)``
  signature — a rewritten trace never serves a stale grammar;
- when N loaders race on a cold trace, exactly one compiles while the
  rest block on the artifact lock and map the finished file.
"""

from __future__ import annotations

import os
import struct
import threading

import pytest

from repro.core.events import EventRegistry
from repro.core.mmap_grammar import (
    ARTIFACT_SUFFIX,
    ArtifactFormatError,
    MmapGrammar,
    artifact_is_fresh,
    artifact_path_for,
    compile_artifact,
    ensure_artifact,
    load_artifact,
)
from repro.core.record import PythiaRecord
from repro.core.trace_file import Trace, load_trace, save_trace
from tests.conftest import random_structured_stream

SEEDS = [1, 2, 7, 42]


def write_trace_file(path, stream, *, timestamps=False) -> Trace:
    """Record ``stream`` (ints) into a JSON trace file at ``path``."""
    registry = EventRegistry()
    for t in range(max(stream) + 1):
        registry.intern_name(f"ev{t}", (t,))
    rec = PythiaRecord(registry, record_timestamps=timestamps)
    for i, t in enumerate(stream):
        rec.record(t, timestamp=float(i) * 0.25 if timestamps else None)
    trace = Trace(registry=registry, threads={0: rec.finish()}, meta={"k": "v"})
    save_trace(trace, path)
    return trace


def assert_same_tables(mapped, frozen) -> None:
    """Every table equal, *in order* — order feeds determinism."""
    assert isinstance(mapped, MmapGrammar)
    # the whole mapping compares, not just the rows decoded so far
    assert not mapped.uses != frozen.uses
    assert list(mapped.bodies) == list(frozen.bodies)
    assert dict(mapped.bodies) == dict(frozen.bodies)
    assert mapped.occ == frozen.occ
    assert dict(mapped.uses) == dict(frozen.uses)
    assert list(mapped.terminal_positions) == list(frozen.terminal_positions)
    assert dict(mapped.terminal_positions) == dict(frozen.terminal_positions)
    assert mapped.trace_len == frozen.trace_len


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tables_identical(self, tmp_path, seed):
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(seed))
        artifact = compile_artifact(path)
        assert artifact == path + ARTIFACT_SUFFIX
        original = load_trace(path)
        mapped = load_artifact(artifact)
        assert mapped.meta == original.meta
        assert mapped.registry.to_obj() == original.registry.to_obj()
        assert set(mapped.threads) == set(original.threads)
        for tid, tt in original.threads.items():
            assert mapped.threads[tid].event_count == tt.event_count
            assert_same_tables(mapped.threads[tid].grammar, tt.grammar)

    def test_timing_table_round_trips(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(5), timestamps=True)
        mapped = load_artifact(compile_artifact(path))
        original = load_trace(path)
        got, want = mapped.threads[0].timing, original.threads[0].timing
        assert want is not None
        assert got.to_obj() == want.to_obj()

    def test_lazy_decode_is_per_key_and_cached(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(2))
        grammar = load_artifact(compile_artifact(path)).threads[0].grammar
        stats = grammar.decode_stats()
        assert stats["bodies_decoded"] == 0
        first_rid = next(iter(grammar.bodies))
        row = grammar.bodies[first_rid]
        assert grammar.decode_stats()["bodies_decoded"] == 1
        assert grammar.bodies[first_rid] is row  # cached, not re-decoded
        assert grammar.bodies.get(first_rid) is row
        # membership answers without materialising anything new
        assert first_rid in grammar.bodies
        assert 10**9 not in grammar.bodies
        assert grammar.bodies.get(10**9, ()) == ()
        assert grammar.decode_stats()["bodies_decoded"] == 1

    def test_artifact_dir_redirect(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.json")
        write_trace_file(path, [0, 1, 0, 1])
        (tmp_path / "artifacts").mkdir()
        # an existing directory, and a nested one nobody created yet
        for art_dir in (tmp_path / "artifacts", tmp_path / "not" / "yet" / "made"):
            monkeypatch.setenv("PYTHIA_ARTIFACT_DIR", str(art_dir))
            artifact, outcome = ensure_artifact(path)
            assert outcome == "compiled"
            assert os.path.dirname(artifact) == str(art_dir)
            assert artifact == artifact_path_for(path)


class TestFreshness:
    def test_reuse_then_invalidate_on_rewrite(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(1))
        artifact, outcome = ensure_artifact(path)
        assert outcome == "compiled"
        assert ensure_artifact(path) == (artifact, "reused")
        # rewrite the source: different bytes, bumped mtime
        os.utime(path, ns=(0, 0))
        assert not artifact_is_fresh(
            artifact, (os.stat(path).st_mtime_ns, os.stat(path).st_size)
        )
        _, outcome = ensure_artifact(path)
        assert outcome == "compiled"

    def test_load_rejects_stale_signature(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, [0, 1, 2, 0, 1, 2])
        artifact, _ = ensure_artifact(path)
        with pytest.raises(ArtifactFormatError, match="stale"):
            load_artifact(artifact, expected_signature=(1, 2))

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ensure_artifact(str(tmp_path / "nope.json"))


class TestCorruption:
    def _artifact(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(3))
        return compile_artifact(path)

    def test_not_an_artifact(self, tmp_path):
        bogus = tmp_path / "bogus.pygx"
        bogus.write_bytes(b"this is definitely not a grammar artifact file at all!!!")
        with pytest.raises(ArtifactFormatError, match="not a pythia"):
            load_artifact(str(bogus))

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.pygx"
        empty.write_bytes(b"")
        with pytest.raises(ArtifactFormatError, match="empty"):
            load_artifact(str(empty))

    def test_unsupported_version(self, tmp_path):
        artifact = self._artifact(tmp_path)
        blob = bytearray(open(artifact, "rb").read())
        blob[7] = 0x7F  # bump the version byte
        open(artifact, "wb").write(bytes(blob))
        with pytest.raises(ArtifactFormatError, match="version"):
            load_artifact(artifact)

    def test_truncated_body(self, tmp_path):
        artifact = self._artifact(tmp_path)
        blob = open(artifact, "rb").read()
        open(artifact, "wb").write(blob[: len(blob) - 32])
        with pytest.raises(ArtifactFormatError, match="truncated"):
            load_artifact(artifact)

    def test_garbage_meta_blob(self, tmp_path):
        artifact = self._artifact(tmp_path)
        blob = bytearray(open(artifact, "rb").read())
        header = struct.Struct("<8sqQQII")
        fields = list(header.unpack_from(blob, 0))
        start = header.size
        for i in range(fields[3]):  # scribble over the JSON meta blob
            blob[start + i] = 0xFE
        open(artifact, "wb").write(bytes(blob))
        with pytest.raises(ArtifactFormatError, match="corrupt"):
            load_artifact(artifact)


class TestStampede:
    def test_concurrent_loaders_compile_once(self, tmp_path):
        """flock is per open-file-description, so in-process threads
        contend exactly like separate worker processes do."""
        path = str(tmp_path / "t.json")
        write_trace_file(path, random_structured_stream(8))
        barrier = threading.Barrier(4)
        outcomes: list[str] = []
        lock = threading.Lock()

        def loader():
            barrier.wait()
            artifact, outcome = ensure_artifact(path)
            trace = load_artifact(artifact)
            assert 0 in trace.threads
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=loader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("compiled") == 1
        assert len(outcomes) == 4
        assert set(outcomes) <= {"compiled", "waited", "reused"}

    def test_force_recompiles_fresh_artifact(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace_file(path, [0, 0, 1, 1])
        artifact, _ = ensure_artifact(path)
        before = os.stat(artifact).st_ino
        _, outcome = ensure_artifact(path, force=True)
        assert outcome == "compiled"
        assert os.stat(artifact).st_ino != before  # rewritten atomically
