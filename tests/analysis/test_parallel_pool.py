"""The process backend's mechanisms, contract-tested.

Complements ``tests/analysis/test_parallel.py`` (which pins backend parity
for the legacy API): here we pin the *mechanisms* the perf work added —
the persistent worker pool, one-time cast pickling with worker-side
caching, adaptive chunk sizing — plus ledger backend stamping.
"""

from __future__ import annotations

import pickle

import repro.analysis.parallel as parallel_module
from repro.analysis.parallel import (
    ProcessExecutor,
    build_sweep_cast,
    run_cast_chunk,
)
from repro.analysis.runner import CellTask, sweep
from repro.machines.tabular import (
    coded_server_class,
    relay_decoder_class,
    relay_goal,
)
from repro.obs.ledger import read_manifest

SYMBOLS = ("a", "b", "c", "d")
RELAY_GOAL = relay_goal(SYMBOLS)
RELAY_SERVERS = coded_server_class(SYMBOLS)


def relay_sweep(**kwargs):
    return sweep(
        relay_decoder_class(SYMBOLS)[0], RELAY_SERVERS, RELAY_GOAL,
        seeds=(0, 1), max_rounds=80, **kwargs,
    )


class TestLedgerStamping:
    def test_serial_backend_stamp(self, tmp_path):
        relay_sweep(ledger_dir=tmp_path)
        manifest = read_manifest(tmp_path / "sweep.json")
        assert manifest.backend == "serial"

    def test_process_backend_stamp(self, tmp_path):
        with ProcessExecutor(max_workers=2) as executor:
            relay_sweep(ledger_dir=tmp_path, executor=executor, certify=True)
        manifest = read_manifest(tmp_path / "sweep.json")
        assert manifest.backend == "process"


class TestPersistentPool:
    def test_pool_reused_across_sweeps(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            first = relay_sweep(executor=executor)
            pool = executor._pool
            assert pool is not None
            second = relay_sweep(executor=executor)
            assert executor._pool is pool
            assert first == second == relay_sweep()
        finally:
            executor.close()
        assert executor._pool is None

    def test_close_is_idempotent(self):
        executor = ProcessExecutor(max_workers=1)
        executor.close()
        executor.close()


class TestPoolShutdown:
    """The persistent pool must die cleanly: context manager, atexit
    hygiene, and coexistence with the asyncio session service."""

    def test_context_manager_closes_pool(self):
        with ProcessExecutor(max_workers=1) as executor:
            first = relay_sweep(executor=executor)
            assert executor._pool is not None
        assert executor._pool is None
        # Closed is not dead: the next use recreates the pool.
        with executor:
            assert relay_sweep(executor=executor) == first
        assert executor._pool is None

    def test_atexit_hook_tracks_the_live_pool(self, monkeypatch):
        """One registration per open pool, removed on close — repeated
        close/recreate cycles never stack hooks in the exit table."""
        registered, unregistered = [], []
        monkeypatch.setattr(
            parallel_module.atexit, "register", lambda fn: registered.append(fn)
        )
        monkeypatch.setattr(
            parallel_module.atexit,
            "unregister",
            lambda fn: unregistered.append(fn),
        )
        executor = ProcessExecutor(max_workers=1)
        try:
            executor._ensure_pool()
            executor._ensure_pool()  # reuse: no second registration
            assert len(registered) == 1
            executor.close()
            assert unregistered == registered
            executor.close()  # idempotent: nothing new to unregister
            assert len(unregistered) == 1
            executor._ensure_pool()  # recreation re-registers exactly once
            assert len(registered) == 2
        finally:
            executor.close()
        assert len(unregistered) == 2

    def test_serve_and_pool_coexist_without_leaked_workers(self):
        """A ServeEngine load and a process sweep in one interpreter:
        closing the executor reaps its workers (and their semaphores) even
        while the asyncio service keeps running in the same process."""
        import multiprocessing

        from repro.serve.loadgen import demo_specs, run_load

        # Other tests' pools may still be open (they rely on the atexit
        # hook); only *this* executor's workers must be gone afterwards.
        before = {child.pid for child in multiprocessing.active_children()}
        with ProcessExecutor(max_workers=2) as executor:
            swept = relay_sweep(executor=executor)
            report = run_load(
                demo_specs("relay", 4, seed=1, max_rounds=30), workers=1
            )
            assert report.settled == 4
            assert relay_sweep(executor=executor) == swept
        assert executor._pool is None
        lingering = {
            child.pid for child in multiprocessing.active_children()
        } - before
        assert lingering == set()
        # The service still works after the pool is gone.
        report = run_load(
            demo_specs("relay", 2, seed=2, max_rounds=30), workers=1
        )
        assert report.settled == 2


class TestAdaptiveChunking:
    def test_explicit_chunk_size_passes_through(self):
        executor = ProcessExecutor(max_workers=2, chunk_size=5)
        assert executor._plan_chunk_size(0.001, 100) == 5

    def test_auto_targets_chunk_seconds(self):
        executor = ProcessExecutor(max_workers=2)
        # 10ms cells → ~TARGET_CHUNK_SECONDS/0.01 cells per chunk.
        expected = round(parallel_module.TARGET_CHUNK_SECONDS / 0.01)
        assert executor._plan_chunk_size(0.01, 1000) == expected

    def test_auto_caps_for_load_balance(self):
        executor = ProcessExecutor(max_workers=4)
        # Slow cells on a small grid: never starve workers.
        assert executor._plan_chunk_size(10.0, 8) == 1
        # Fast cells: cap at ceil(n / workers) so every worker gets work.
        assert executor._plan_chunk_size(1e-6, 8) == 2

    def test_auto_without_probe_falls_back_to_even_split(self):
        executor = ProcessExecutor(max_workers=4)
        assert executor._plan_chunk_size(None, 10) == 3


class TestSweepCastSharing:
    def tasks(self):
        return [
            CellTask(
                index=i,
                user=relay_decoder_class(SYMBOLS)[0],
                server=server,
                goal=RELAY_GOAL,
                seeds=(0,),
                max_rounds=20,
                telemetry=False,
            )
            for i, server in enumerate(RELAY_SERVERS)
        ]

    def test_cast_interns_shared_objects(self):
        tasks = self.tasks()
        shared_user = tasks[0].user
        for task in tasks:
            object.__setattr__(task, "user", shared_user)
        cast, refs = build_sweep_cast(tasks)
        assert len(cast.users) == 1
        assert len(cast.goals) == 1
        assert len(cast.servers) == len(tasks)
        assert [ref.index for ref in refs] == [t.index for t in tasks]

    def test_worker_unpickles_cast_once_per_digest(self):
        tasks = self.tasks()
        cast, refs = build_sweep_cast(tasks)
        blob = pickle.dumps(cast)
        digest = "test-digest-1"
        parallel_module._WORKER_CASTS.clear()
        first = run_cast_chunk((digest, blob, tuple(refs[:2])))
        assert digest in parallel_module._WORKER_CASTS
        cached = parallel_module._WORKER_CASTS[digest]
        second = run_cast_chunk((digest, blob, tuple(refs[:2])))
        assert parallel_module._WORKER_CASTS[digest] is cached
        assert [cell for _, cell in first] == [cell for _, cell in second]
        parallel_module._WORKER_CASTS.clear()

    def test_worker_cache_bounded(self):
        parallel_module._WORKER_CASTS.clear()
        tasks = self.tasks()
        cast, refs = build_sweep_cast(tasks)
        blob = pickle.dumps(cast)
        for i in range(parallel_module._WORKER_CAST_LIMIT):
            parallel_module._WORKER_CASTS[f"filler-{i}"] = cast
        run_cast_chunk(("fresh", blob, tuple(refs[:1])))
        assert len(parallel_module._WORKER_CASTS) == 1
        assert "fresh" in parallel_module._WORKER_CASTS
        parallel_module._WORKER_CASTS.clear()
