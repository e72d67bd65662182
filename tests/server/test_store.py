"""TraceStore: caching, invalidation, LRU bounds, concurrency."""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.oracle import Pythia
from repro.core.trace_file import TraceFormatError
from repro.server.store import TraceStore

EVENTS = [("a", None), ("b", 1), ("a", None), ("b", 1), ("c", None)] * 8


def record(path: str, events=EVENTS) -> None:
    oracle = Pythia(path, mode="record", record_timestamps=False)
    for name, payload in events:
        oracle.event(name, payload)
    oracle.finish()


@pytest.fixture
def trace_path(tmp_path):
    path = str(tmp_path / "ref.pythia")
    record(path)
    return path


class TestCaching:
    def test_second_get_is_a_hit_and_shares_the_bundle(self, trace_path):
        store = TraceStore()
        first = store.get(trace_path)
        second = store.get(trace_path)
        assert first is second
        assert store.snapshot()["hits"] == 1
        assert store.snapshot()["misses"] == 1

    def test_relative_and_absolute_paths_share_one_entry(self, trace_path, monkeypatch):
        store = TraceStore()
        monkeypatch.chdir(os.path.dirname(trace_path))
        assert store.get(os.path.basename(trace_path)) is store.get(trace_path)

    def test_rewritten_file_invalidates(self, trace_path):
        store = TraceStore()
        store.get(trace_path)
        record(trace_path, [("x", None)] * 4)
        os.utime(trace_path, ns=(1, 1))  # force a distinct mtime
        bundle = store.get(trace_path)
        assert store.snapshot()["invalidations"] == 1
        assert len(bundle.registry) == 1  # the new trace, not the cached one

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceStore().get(str(tmp_path / "absent.pythia"))

    def test_corrupt_file_raises_format_error_and_is_not_cached(self, tmp_path):
        path = str(tmp_path / "bad.pythia")
        with open(path, "w") as fh:
            fh.write("{ not json")
        store = TraceStore()
        for _ in range(2):
            with pytest.raises(TraceFormatError):
                store.get(path)
        assert len(store) == 0  # failed loads are forgotten, ready to retry

    def test_tracker_for_unknown_thread_raises_keyerror(self, trace_path):
        bundle = TraceStore().get(trace_path)
        with pytest.raises(KeyError):
            bundle.tracker(99)


class TestLRU:
    def test_capacity_bounds_the_cache(self, tmp_path):
        store = TraceStore(capacity=2)
        paths = []
        for i in range(4):
            path = str(tmp_path / f"t{i}.pythia")
            record(path)
            paths.append(path)
            store.get(path)
        assert len(store) == 2
        assert store.snapshot()["evictions"] == 2

    def test_recently_used_survives_eviction(self, tmp_path):
        store = TraceStore(capacity=2)
        paths = []
        for i in range(3):
            path = str(tmp_path / f"t{i}.pythia")
            record(path)
            paths.append(path)
        store.get(paths[0])
        store.get(paths[1])
        store.get(paths[0])  # refresh 0 -> 1 becomes the LRU victim
        store.get(paths[2])
        before = store.snapshot()["misses"]
        store.get(paths[0])
        assert store.snapshot()["misses"] == before  # still cached

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestConcurrency:
    def test_many_threads_one_load(self, trace_path):
        store = TraceStore()
        bundles, errors = [], []
        barrier = threading.Barrier(16)

        def worker():
            try:
                barrier.wait()
                bundles.append(store.get(trace_path))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.snapshot()["misses"] == 1  # exactly one real load
        assert all(b is bundles[0] for b in bundles)

    def test_concurrent_distinct_traces(self, tmp_path):
        store = TraceStore(capacity=16)
        paths = []
        for i in range(8):
            path = str(tmp_path / f"t{i}.pythia")
            record(path)
            paths.append(path)
        errors = []

        def worker(idx: int):
            try:
                for _ in range(20):
                    store.get(paths[idx % len(paths)])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.snapshot()["misses"] == 8


class TestMmapStore:
    """Bundles carry mapped grammars out of shared compiled artifacts,
    and the compile happens once per host."""

    def test_bundle_grammar_is_mapped(self, trace_path):
        from repro.core.mmap_grammar import MmapGrammar, artifact_path_for

        store = TraceStore()
        bundle = store.get(trace_path)
        for tt in bundle.trace.threads.values():
            assert isinstance(tt.grammar, MmapGrammar)
        assert bundle.artifact == artifact_path_for(trace_path)
        snap = store.snapshot()
        assert snap["artifact_compiles"] == 1
        assert snap["artifact_reuses"] == 0
        assert snap["artifacts"] == [bundle.artifact]

    def test_second_store_reuses_the_host_artifact(self, trace_path):
        """What N workers on one host do: first compiles, rest map."""
        first = TraceStore()
        second = TraceStore()
        a = first.get(trace_path)
        b = second.get(trace_path)
        assert a.artifact == b.artifact  # same file mapped by both
        assert first.snapshot()["artifact_compiles"] == 1
        snap = second.snapshot()
        assert snap["artifact_compiles"] == 0
        assert snap["artifact_reuses"] == 1

    def test_rewritten_trace_recompiles(self, trace_path):
        store = TraceStore()
        store.get(trace_path)
        record(trace_path, [("x", None)] * 4)
        os.utime(trace_path, ns=(1, 1))
        bundle = store.get(trace_path)
        assert len(bundle.registry) == 1
        assert store.snapshot()["artifact_compiles"] == 2

    def test_corrupt_artifact_self_heals(self, trace_path):
        from repro.core.mmap_grammar import artifact_path_for, ensure_artifact

        artifact, _ = ensure_artifact(trace_path)
        blob = open(artifact, "rb").read()
        # keep the (valid) header so the freshness probe passes, then
        # truncate the body: the load fails and the store force-recompiles
        open(artifact, "wb").write(blob[: len(blob) - 16])
        store = TraceStore()
        bundle = store.get(trace_path)
        assert bundle.artifact == artifact_path_for(trace_path)
        assert store.snapshot()["artifact_compiles"] == 1
        assert len(open(artifact, "rb").read()) == len(blob)

    def test_thread_stampede_one_compile(self, trace_path):
        """16 threads, cold trace and cold artifact: one parse+compile
        for the host (the rest wait on the store entry or the artifact
        lock), and everyone shares one bundle."""
        store = TraceStore()
        bundles = []
        lock = threading.Lock()
        barrier = threading.Barrier(16)

        def worker():
            barrier.wait()
            b = store.get(trace_path)
            with lock:
                bundles.append(b)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(b is bundles[0] for b in bundles)
        snap = store.snapshot()
        assert snap["misses"] == 1
        assert snap["artifact_compiles"] == 1
        assert snap["artifact_waits"] == 0  # in-store waiters never hit disk


class TestPerWaiterExceptions:
    """A failed load must give every waiter its *own* exception
    instance: re-raising the loader's instance lets N threads race to
    rewrite one ``__traceback__``, cross-contaminating tracebacks."""

    class _CountingEvent(threading.Event):
        """Event that reports how many threads are parked in wait()."""

        def __init__(self):
            super().__init__()
            self.waiting = 0

        def wait(self, timeout=None):
            self.waiting += 1
            return super().wait(timeout)

    def _park_waiters(self, store, path, n, error):
        """Deterministically drive ``n`` threads into the waiter path of
        a pending load, then fail the load with ``error``."""
        import time

        from repro.server.store import TraceStore, _Entry

        sig = TraceStore._signature(path)
        abspath = os.path.abspath(path)
        entry = _Entry(sig)
        entry.ready = self._CountingEvent()
        with store._lock:
            store._entries[abspath] = entry

        caught: list[Exception] = []
        lock = threading.Lock()

        def waiter():
            try:
                store.get(path)
            except Exception as exc:
                with lock:
                    caught.append(exc)

        threads = [threading.Thread(target=waiter) for _ in range(n)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5
        while entry.ready.waiting < n and time.monotonic() < deadline:
            time.sleep(0.001)
        assert entry.ready.waiting == n  # everyone parked in the waiter path
        entry.error = error
        with store._lock:
            del store._entries[abspath]  # what the loader does on failure
        entry.ready.set()
        for t in threads:
            t.join(5)
        return caught

    def test_every_waiter_gets_its_own_instance(self, trace_path):
        store = TraceStore()
        original = TraceFormatError("synthetic load failure")
        caught = self._park_waiters(store, trace_path, 8, original)
        assert len(caught) == 8
        assert all(isinstance(e, TraceFormatError) for e in caught)
        assert all(str(e) == str(original) for e in caught)
        # no waiter raised the loader's instance, and none shared one
        assert original not in caught
        assert len({id(e) for e in caught}) == 8
        # each raise produced a private traceback, not a shared one
        assert len({id(e.__traceback__) for e in caught}) == 8
        # provenance survives: the loader's exception is the cause
        assert all(e.__cause__ is original for e in caught)

    def test_unclonable_exception_wrapped_as_trace_format_error(self, trace_path):
        class Picky(Exception):
            def __init__(self, a, b):  # args don't round-trip
                super().__init__(f"{a}/{b}")

        store = TraceStore()
        caught = self._park_waiters(store, trace_path, 3, Picky.__new__(Picky))
        assert len(caught) == 3
        assert all(isinstance(e, TraceFormatError) for e in caught)

    def test_waiter_outcomes_counted(self, trace_path):
        store = TraceStore()
        self._park_waiters(store, trace_path, 4, TraceFormatError("nope"))
        snap = store.snapshot()
        assert snap["waiters_failed"] == 4
        assert snap["waiters_ok"] == 0
        # happy path: successful waiters count as ok (and as hits)
        store2 = TraceStore()
        bundles = []
        barrier = threading.Barrier(4)

        def get():
            barrier.wait()
            bundles.append(store2.get(trace_path))

        threads = [threading.Thread(target=get) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = store2.snapshot()
        assert snap["misses"] == 1 and snap["hits"] == 3
        assert 0 <= snap["waiters_ok"] <= 3 and snap["waiters_failed"] == 0
        assert len({id(b) for b in bundles}) == 1
