"""Chaos matrix for the execution service.

The robustness contract under test: whatever faults are injected,
every batch either completes with correct results (bit-identical
payloads and fingerprints) or fails with a documented exit code —
never hangs, never silently drops a point.

Fault kinds (see ``docs/chaos.md``): worker-plane ``crash`` / ``hang``
/ ``error`` scripted through ``probe`` job config (attempts are
counted in a marker directory, so "fail the first N attempts" is exact
across processes), and cache-plane read faults, write faults,
disk-full (ENOSPC) and corrupt entries through the ``chaos_cache``
fixture. Each kind runs in both inline (``workers=1``) and pooled
execution; the pooled cells spawn real processes and are marked
``slow``.
"""

import errno
import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import (
    EXIT_CODES,
    SimulationTimeoutError,
    WorkerSpawnError,
    exit_code_for,
)
from repro.experiments.config import ExperimentScale
from repro.service import (
    BatchJournal,
    ExecutionService,
    Job,
    ResultCache,
    WorkerPool,
)

TINY = ExperimentScale("tiny", synthetic_accesses=800)

#: Worker counts for each matrix cell; the pooled cell spawns real
#: processes, so it rides the `slow` marker.
MODES = [
    pytest.param(1, id="inline"),
    pytest.param(2, id="pooled", marks=pytest.mark.slow),
]

#: Probe config key scripting each worker-plane fault kind.
FAULT_KEYS = {"crash": "crash_times", "hang": "hang_times",
              "error": "fail_times"}


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
    """crash / hang / error × inline / pooled, transient (retried)."""

    @pytest.mark.parametrize("workers", MODES)
    @pytest.mark.parametrize("kind", ["crash", "hang", "error"])
    def test_transient_fault_batch_still_completes(
        self, kind, workers, tmp_path, clean_payloads
    ):
        fault = {
            FAULT_KEYS[kind]: 1,
            "marker_dir": str(tmp_path / "markers"),
            "value": 7,
        }
        timeout_s = None
        if kind == "hang":
            if workers > 1:
                # Past the hard-kill deadline: the worker dies mid-wait.
                fault["sleep_s"], timeout_s = 30.0, 0.3
            else:
                # Inline has no hard kill by design; the scripted hang
                # finishes quickly and fails cooperatively.
                fault["sleep_s"] = 0.05
        synthetic = synthetic_jobs()
        jobs = [
            synthetic[0],
            Job("probe", fault, label="victim", timeout_s=timeout_s),
            synthetic[1],
        ]
        service = ExecutionService(workers=workers, retries=2)
        start = time.monotonic()
        result = service.run(jobs)
        assert time.monotonic() - start < 60.0  # never hangs
        assert_contract(result, jobs)
        assert result.complete  # one scripted fault, two retries
        assert result.payloads[1] == {"value": 7, "attempt": 2}
        # The healthy jobs beside the victim are untouched by it.
        assert [result.payloads[0], result.payloads[2]] == (
            clean_payloads[:2]
        )

    @pytest.mark.parametrize("workers", MODES)
    def test_persistent_fault_fails_with_documented_code(
        self, workers, tmp_path
    ):
        jobs = probe_jobs()
        jobs[1] = Job(
            "probe",
            {"fail_times": 99, "marker_dir": str(tmp_path / "markers")},
            label="p1",
        )
        service = ExecutionService(workers=workers, retries=1)
        result = service.run(jobs)
        assert_contract(result, jobs)
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].attempts == 2
        assert exit_code_for(result.failures[0].error) == (
            EXIT_CODES[SimulationTimeoutError]
        )
        # The healthy points still completed.
        assert result.payloads[0]["value"] == 0
        assert result.payloads[2]["value"] == 2


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
    def test_spawn_failure_raises_and_journal_resumes(
        self, tmp_path, monkeypatch, clean_payloads
    ):
        """A refused spawn fails fast with exit code 12; the jobs that
        finished before it stay journaled, and a resumed run completes
        with the clean payloads."""
        jobs = synthetic_jobs()
        cache = ResultCache(tmp_path / "cache")
        assert ExecutionService(cache=cache).run(jobs[:2]).complete
        journal_path = tmp_path / "batch.jsonl"
        refuse_spawn(monkeypatch)
        service = ExecutionService(workers=2, cache=cache)
        with pytest.raises(WorkerSpawnError) as excinfo:
            service.run(jobs, journal=journal_path)
        assert exit_code_for(excinfo.value) == 12
        monkeypatch.undo()
        with BatchJournal(journal_path, resume=True) as journal:
            # The two cache hits resolved (and were journaled) before
            # the pool tried to start.
            assert len(journal) == 2
            resumed = ExecutionService().run(jobs, journal=journal)
        assert resumed.complete
        assert resumed.journal_hits == 2 and resumed.executed == 1
        assert resumed.payloads == clean_payloads

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
        """The acceptance scenario: a batch killed mid-run resumes from
        its journal, recomputing only the unfinished jobs, and the
        final fingerprints equal an uninterrupted run's."""
        journal_path = tmp_path / "batch.jsonl"
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        # The child runs the same 3-job batch and dies hard (os._exit,
        # no cleanup, no journal close) right after the 2nd result.
        child = f"""
import os, sys
from repro.experiments.config import ExperimentScale
from repro.service import ExecutionService, Job

TINY = ExperimentScale("tiny", synthetic_accesses=800)
jobs = [
    Job("synthetic", {{"pattern": p, "cores": 1}}, scale=TINY, label=p)
    for p in ("sequential", "random", "strided")
]
done = []

def on_result(index, job, payload, cached):
    done.append(index)
    if len(done) == 2:
        os._exit(9)

ExecutionService().run(jobs, journal={str(journal_path)!r},
                       on_result=on_result)
"""
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            timeout=300,
            capture_output=True,
        )
        assert proc.returncode == 9, proc.stderr.decode()
        with BatchJournal(journal_path, resume=True) as journal:
            assert len(journal) == 2  # both finished jobs survived the kill
            resumed = ExecutionService().run(
                synthetic_jobs(), journal=journal
            )
        assert resumed.complete
        assert resumed.journal_hits == 2 and resumed.executed == 1
        reference = ExecutionService().run(synthetic_jobs())
        assert [
            p["fingerprint"]["digest"] for p in resumed.payloads
        ] == [
            p["fingerprint"]["digest"] for p in reference.payloads
        ]


class TestJournalChaos:
    def test_torn_tail_then_resume_recovers(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        jobs = probe_jobs()
        ExecutionService().run(jobs[:2], journal=str(path))
        # Tear the final record in half (crash mid-append).
        raw = path.read_bytes()
        path.write_bytes(raw[:-15])
        result = ExecutionService().run(jobs, journal=str(path))
        assert result.complete
        assert result.journal_hits == 1  # torn record recomputed
        assert json.loads(path.read_text().splitlines()[-1])["kind"] in (
            "done",
        )
