"""Chaos matrix for the execution service.

The robustness contract under test: whatever faults are injected,
every batch either completes with correct results (bit-identical
payloads and fingerprints) or fails with a documented exit code —
never hangs, never silently drops a point.

Fault kinds (see ``docs/chaos.md``): worker-plane ``crash`` / ``hang``
/ ``error`` scripted through ``probe`` job config, and cache-plane read
faults, write faults, disk-full (ENOSPC) and corrupt entries through
the ``chaos_cache`` fixture. Each kind runs in both inline
(``workers=1``) and pooled execution; the pooled cells spawn real
processes and are marked ``slow``. A batch that failed or was killed is
resumed by rerunning it on the same result cache.
"""

import errno
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import (
    EXIT_CODES,
    SimulationTimeoutError,
    WorkerCrashError,
    WorkerSpawnError,
    exit_code_for,
)
from repro.experiments.config import ExperimentScale
from repro.service import ExecutionService, Job, ResultCache, WorkerPool

TINY = ExperimentScale("tiny", synthetic_accesses=800)

#: Worker counts for each matrix cell; the pooled cell spawns real
#: processes, so it rides the `slow` marker.
MODES = [
    pytest.param(1, id="inline"),
    pytest.param(2, id="pooled", marks=pytest.mark.slow),
]

#: The typed error each worker-plane fault kind fails its job with.
FAULT_ERRORS = {"crash": WorkerCrashError, "hang": SimulationTimeoutError,
                "error": SimulationTimeoutError}

#: The batch the kill tests run in a child process, with ``{cache}``,
#: ``{jobs}`` and ``{workers}`` filled in: after its ``{die_after}``-th
#: finished job it prints its workers' pids and dies hard
#: (``os._exit``: no cleanup, no pool shutdown).
KILLED_BATCH = """
import multiprocessing, os
from repro.experiments.config import ExperimentScale
from repro.service import ExecutionService, Job, JobFinished

TINY = ExperimentScale("tiny", synthetic_accesses=800)
done = []

def on_event(event):
    if not isinstance(event, JobFinished):
        return
    done.append(event.index)
    if len(done) == {die_after}:
        pids = [child.pid for child in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        os._exit(9)

ExecutionService(workers={workers}, cache={cache!r}).run(
    {jobs}, on_event=on_event
)
"""

SYNTHETIC_JOBS = """[
    Job("synthetic", {"pattern": p, "cores": 1}, scale=TINY, label=p)
    for p in ("sequential", "random", "strided")
]"""


def run_killed_batch(tmp_path, jobs, workers=1, die_after=2):
    """Run KILLED_BATCH in a child on the cache ``tmp_path / "cache"``;
    returns the pids it printed.

    The child's output goes to files, not pipes, so waiting for it
    never waits on a worker it left behind holding a pipe open.
    """
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    child = KILLED_BATCH.format(
        cache=str(tmp_path / "cache"), jobs=jobs, workers=workers,
        die_after=die_after,
    )
    out, err = tmp_path / "child.out", tmp_path / "child.err"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=package_root),
            timeout=300,
            stdout=stdout,
            stderr=stderr,
        )
    assert proc.returncode == 9, err.read_text()
    return [int(pid) for pid in out.read_text().split()]


def alive(pid):
    """True while `pid` runs; a zombie (exited, not yet reaped) is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def probe_jobs(count=3):
    return [
        Job("probe", {"value": i}, label=f"p{i}") for i in range(count)
    ]


def synthetic_jobs():
    return [
        Job(
            "synthetic",
            {"pattern": pattern, "cores": 1},
            scale=TINY,
            label=pattern,
        )
        for pattern in ("sequential", "random", "strided")
    ]


@pytest.fixture(scope="module")
def clean_payloads():
    """Payloads of the synthetic jobs from a fault-free inline run."""
    result = ExecutionService().run(synthetic_jobs())
    assert result.complete
    return result.payloads


def assert_contract(result, jobs):
    """No point silently dropped: every index resolved exactly one way,
    and every terminal failure maps to a documented exit code."""
    assert len(result.payloads) == len(jobs)
    failed = {failure.index for failure in result.failures}
    for index, payload in enumerate(result.payloads):
        assert (payload is None) == (index in failed)
    for failure in result.failures:
        assert exit_code_for(failure.error) in EXIT_CODES.values()


def refuse_spawn(monkeypatch):
    def refuse(self):
        raise WorkerSpawnError("chaos: spawn refused")

    monkeypatch.setattr(WorkerPool, "_spawn_worker", refuse)


class TestWorkerPlaneMatrix:
    """crash / hang / error × inline / pooled: the victim fails with its
    typed error while the rest of the batch completes, and a rerun on
    the same cache recomputes only the victim."""

    @pytest.mark.parametrize("workers", MODES)
    @pytest.mark.parametrize("kind", ["crash", "hang", "error"])
    def test_transient_fault_batch_still_completes(
        self, kind, workers, tmp_path, clean_payloads
    ):
        fault = {"crash": {"crash": True}, "error": {"fail": True}}.get(
            kind, {}
        )
        timeout_s = None
        if kind == "hang":
            if workers > 1:
                # Past the hard-kill deadline: the worker dies mid-wait.
                fault, timeout_s = {"sleep_s": 30.0}, 0.3
            else:
                # Inline has no hard kill by design; the scripted hang
                # finishes quickly and fails cooperatively.
                fault = {"sleep_s": 0.05, "fail": True}
        synthetic = synthetic_jobs()
        jobs = [
            synthetic[0],
            Job("probe", {**fault, "value": 7}, label="victim",
                timeout_s=timeout_s),
            synthetic[1],
        ]
        service = ExecutionService(
            workers=workers, cache=ResultCache(tmp_path / "cache")
        )
        start = time.monotonic()
        result = service.run(jobs)
        assert time.monotonic() - start < 60.0  # never hangs
        assert_contract(result, jobs)
        assert [f.index for f in result.failures] == [1]
        assert isinstance(result.failures[0].error, FAULT_ERRORS[kind])
        # The healthy jobs beside the victim are untouched by it.
        assert [result.payloads[0], result.payloads[2]] == (
            clean_payloads[:2]
        )
        # The fault was transient: the rerun's victim runs clean, and
        # it is the only job that recomputes.
        jobs[1] = Job("probe", {"value": 7}, label="victim")
        rerun = service.run(jobs)
        assert rerun.complete
        assert (rerun.cache_hits, rerun.executed) == (2, 1)
        assert rerun.payloads == [
            clean_payloads[0], {"value": 7}, clean_payloads[1],
        ]

    @pytest.mark.parametrize("workers", MODES)
    def test_persistent_fault_fails_with_documented_code(
        self, workers, tmp_path
    ):
        jobs = probe_jobs()
        jobs[1] = Job("probe", {"fail": True}, label="p1")
        service = ExecutionService(
            workers=workers, cache=ResultCache(tmp_path / "cache")
        )
        result = service.run(jobs)
        assert_contract(result, jobs)
        assert [f.index for f in result.failures] == [1]
        assert exit_code_for(result.failures[0].error) == (
            EXIT_CODES[SimulationTimeoutError]
        )
        # The healthy points still completed.
        assert result.payloads[0]["value"] == 0
        assert result.payloads[2]["value"] == 2
        # A deterministic failure recurs on the rerun, which recomputes
        # nothing else.
        rerun = service.run(jobs)
        assert [f.index for f in rerun.failures] == [1]
        assert (rerun.cache_hits, rerun.executed) == (2, 0)


class TestCachePlaneMatrix:
    """Cache IO faults × inline / pooled: the batch completes with
    bit-identical payloads, and every absorbed fault is counted — one
    call at a time, with the same counts in both modes."""

    def _reference(self, tmp_path):
        """Prime a healthy cache and return the reference payloads."""
        cache = ResultCache(tmp_path / "cache")
        result = ExecutionService(cache=cache).run(synthetic_jobs())
        assert result.complete
        return result.payloads

    @pytest.mark.parametrize("workers", MODES)
    def test_read_faults_recompute_identically(
        self, workers, tmp_path, chaos_cache
    ):
        reference = self._reference(tmp_path)
        cache = chaos_cache(tmp_path / "cache", read_faults=2)
        service = ExecutionService(workers=workers, cache=cache)
        result = service.run(synthetic_jobs())
        assert result.complete
        assert result.payloads == reference  # recomputed bit-identically
        stats = cache.stats
        assert (stats.read_errors, stats.misses, stats.hits) == (2, 2, 1)
        assert stats.writes == 2  # both recomputed entries rewritten

    @pytest.mark.parametrize("workers", MODES)
    def test_corrupt_entries_self_heal(
        self, workers, tmp_path, chaos_cache
    ):
        reference = self._reference(tmp_path)
        cache = chaos_cache(tmp_path / "cache", corrupt_faults=1)
        service = ExecutionService(workers=workers, cache=cache)
        result = service.run(synthetic_jobs())
        assert result.complete
        assert result.payloads == reference
        stats = cache.stats
        assert (stats.invalid, stats.misses, stats.hits) == (1, 1, 2)
        assert stats.writes == 1  # the healed entry was rewritten

    @pytest.mark.parametrize("workers", MODES)
    def test_write_faults_are_absorbed_and_counted(
        self, workers, tmp_path, chaos_cache, clean_payloads
    ):
        cache = chaos_cache(tmp_path / "cache", write_faults=2)
        service = ExecutionService(workers=workers, cache=cache)
        result = service.run(synthetic_jobs())
        assert result.complete
        assert result.payloads == clean_payloads
        assert cache.stats.write_errors == 2
        assert cache.stats.writes == 1  # the third write landed

    @pytest.mark.parametrize("workers", MODES)
    def test_disk_full_skips_every_put_and_batch_completes(
        self, workers, tmp_path, chaos_cache, clean_payloads
    ):
        cache = chaos_cache(
            tmp_path / "cache",
            write_faults=10**9,
            write_errno=errno.ENOSPC,
        )
        service = ExecutionService(workers=workers, cache=cache)
        for run in (1, 2):
            result = service.run(synthetic_jobs())
            assert result.complete
            assert result.payloads == clean_payloads
            # Nothing ever landed, so every job recomputes every time
            # and every put is skipped and counted.
            assert result.cache_hits == 0
            assert cache.stats.write_errors == 3 * run
            assert cache.stats.writes == 0


class TestSpawnFailure:
    def test_spawn_failure_raises_and_rerun_resumes(
        self, tmp_path, monkeypatch, clean_payloads
    ):
        """A refused spawn fails fast with exit code 12; the jobs that
        finished before it stay cached, and a rerun on the same cache
        completes with the clean payloads, recomputing only the rest."""
        jobs = synthetic_jobs()
        cache = ResultCache(tmp_path / "cache")
        assert ExecutionService(cache=cache).run(jobs[:2]).complete
        refuse_spawn(monkeypatch)
        service = ExecutionService(workers=2, cache=cache)
        with pytest.raises(WorkerSpawnError) as excinfo:
            service.run(jobs)
        assert exit_code_for(excinfo.value) == 12
        monkeypatch.undo()
        rerun = ExecutionService(cache=cache).run(jobs)
        assert rerun.complete
        assert rerun.cache_hits == 2 and rerun.executed == 1
        assert rerun.payloads == clean_payloads

    def test_cache_hits_resolve_before_any_spawn(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        jobs = synthetic_jobs()
        assert ExecutionService(cache=cache).run(jobs).complete
        refuse_spawn(monkeypatch)
        service = ExecutionService(workers=2, cache=cache)
        result = service.run(jobs)
        # Fully warm batch: no worker was ever needed.
        assert result.complete
        assert result.cache_hits == len(jobs)


class TestKillResume:
    def test_killed_mid_batch_resumes_with_identical_fingerprints(
        self, tmp_path
    ):
        """The acceptance scenario: a batch killed mid-run is rerun on
        its cache, recomputing only the unfinished jobs, and the final
        fingerprints equal an uninterrupted run's."""
        cache = tmp_path / "cache"
        # The child runs the same 3-job batch and dies hard right after
        # the 2nd result.
        run_killed_batch(tmp_path, SYNTHETIC_JOBS)
        # Both finished jobs survived the kill.
        assert len(list(cache.rglob("*.json"))) == 2
        rerun = ExecutionService(cache=cache).run(synthetic_jobs())
        assert rerun.complete
        assert rerun.cache_hits == 2 and rerun.executed == 1
        reference = ExecutionService().run(synthetic_jobs())
        assert [
            p["fingerprint"]["digest"] for p in rerun.payloads
        ] == [
            p["fingerprint"]["digest"] for p in reference.payloads
        ]

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", [
        pytest.param(
            '[Job("probe", {"value": i, "sleep_s": 0.2}) for i in range(4)]',
            id="idle",
        ),
        pytest.param(
            '[Job("probe", {"value": 0}), Job("probe", {"sleep_s": 60.0})]',
            id="busy",
        ),
    ])
    def test_killed_batch_leaves_no_worker_alive(self, tmp_path, jobs):
        """Workers whose batch process died exit on their own, idle or
        in the middle of a job: no orphan is left reparented to init,
        blocked on its task queue or running a job nobody will read."""
        pids = run_killed_batch(tmp_path, jobs, workers=2, die_after=1)
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 3.0
            while any(alive(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    f"orphaned workers: {[p for p in pids if alive(p)]}"
                )
                time.sleep(0.1)
        finally:
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
