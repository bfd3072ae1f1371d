"""Tests for the crash-safe batch journal (append-only JSONL WAL)."""

import json

import pytest

from repro.errors import JournalCorruptError
from repro.service import BatchJournal, ExecutionService, Job
from repro.service.journal import JOURNAL_FORMAT


def lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestWriteReplay:
    def test_done_records_replay_by_digest(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {"value": 1}, True)
            journal.record_done("d2", "b", {"value": 2}, False)
        replay = BatchJournal(path, resume=True)
        assert len(replay) == 2
        assert replay.completed["d1"] == ({"value": 1}, True)
        assert replay.completed["d2"] == ({"value": 2}, False)
        replay.close()

    def test_fresh_journal_truncates_existing(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {}, True)
        with BatchJournal(path, resume=False):
            pass
        replay = BatchJournal(path, resume=True)
        assert len(replay) == 0
        replay.close()

    def test_failed_records_are_history_not_outcomes(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_failed("d1", "a", "WorkerCrashError", "boom", 2)
        replay = BatchJournal(path, resume=True)
        assert len(replay) == 0  # the job will be retried
        assert replay.prior_failures["d1"]["error_type"] == (
            "WorkerCrashError"
        )
        replay.close()

    def test_done_after_failed_wins(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_failed("d1", "a", "ReproError", "flaky", 1)
            journal.record_done("d1", "a", {"ok": True}, True)
        replay = BatchJournal(path, resume=True)
        assert replay.completed["d1"] == ({"ok": True}, True)
        assert "d1" not in replay.prior_failures
        replay.close()

    def test_resume_appends_second_header(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {}, True)
        with BatchJournal(path, resume=True) as journal:
            journal.record_done("d2", "b", {}, True)
        kinds = [record["kind"] for record in lines(path)]
        assert kinds == ["open", "done", "open", "done"]
        # And a third resume still replays everything.
        replay = BatchJournal(path, resume=True)
        assert set(replay.completed) == {"d1", "d2"}
        replay.close()


class TestCorruption:
    def test_truncated_final_line_is_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {"value": 1}, True)
            journal.record_done("d2", "b", {"value": 2}, True)
        # Simulate a crash mid-append: chop the last record in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        replay = BatchJournal(path, resume=True)
        assert set(replay.completed) == {"d1"}  # d2's half-line dropped
        replay.record_done("d2", "b", {"value": 2}, True)
        replay.close()
        # The repaired file parses cleanly line by line.
        assert [r["kind"] for r in lines(path)] == [
            "open", "done", "open", "done",
        ]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {}, True)
        raw = path.read_text().splitlines()
        raw.insert(1, "{garbage")
        path.write_text("\n".join(raw) + "\n")
        with pytest.raises(JournalCorruptError):
            BatchJournal(path, resume=True)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            json.dumps({"kind": "done", "digest": "d", "payload": {}})
            + "\n"
        )
        with pytest.raises(JournalCorruptError):
            BatchJournal(path, resume=True)

    def test_foreign_format_raises(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            json.dumps({"kind": "open", "format": JOURNAL_FORMAT + 1})
            + "\n"
        )
        with pytest.raises(JournalCorruptError):
            BatchJournal(path, resume=True)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path) as journal:
            journal.record_done("d1", "a", {}, True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(JournalCorruptError):
            BatchJournal(path, resume=True)

    def test_done_without_payload_raises(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with BatchJournal(path):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "done", "digest": "d"}) + "\n")
        with pytest.raises(JournalCorruptError):
            BatchJournal(path, resume=True)


class TestServiceIntegration:
    def test_path_journal_resumes_finished_jobs(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        jobs = [Job("probe", {"value": i}, label=f"p{i}") for i in range(3)]
        service = ExecutionService()
        first = service.run(jobs, journal=str(path))
        assert first.complete and first.executed == 3
        second = service.run(jobs, journal=str(path))
        assert second.complete
        assert second.journal_hits == 3 and second.executed == 0
        assert second.payloads == first.payloads

    def test_partial_journal_recomputes_only_missing(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        jobs = [Job("probe", {"value": i}, label=f"p{i}") for i in range(4)]
        # Pretend the first run died after two jobs: journal only them.
        with BatchJournal(path) as journal:
            service = ExecutionService()
            service.run(jobs[:2], journal=journal)
        with BatchJournal(path, resume=True) as journal:
            result = ExecutionService().run(jobs, journal=journal)
        assert result.complete
        assert result.journal_hits == 2 and result.executed == 2
        assert [p["value"] for p in result.payloads] == [0, 1, 2, 3]

    def test_on_result_fires_for_replayed_jobs(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        jobs = [Job("probe", {"value": 5}, label="p")]
        ExecutionService().run(jobs, journal=str(path))
        seen = []
        ExecutionService().run(
            jobs,
            journal=str(path),
            on_result=lambda i, j, p, cached: seen.append((i, cached)),
        )
        assert seen == [(0, True)]

    def test_terminal_failures_are_journaled(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        job = Job(
            "probe",
            {"fail_times": 99, "marker_dir": str(tmp_path / "m")},
            label="doomed",
        )
        service = ExecutionService()
        result = service.run([job], journal=str(path))
        assert not result.complete
        failed = [r for r in lines(path) if r["kind"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "SimulationTimeoutError"
        # A resumed run retries the failed job (fresh marker dir means
        # the probe now succeeds) and journals the success.
        job2 = Job(
            "probe",
            {"fail_times": 0, "marker_dir": str(tmp_path / "m2"),
             "value": 3},
            label="doomed",
        )
        retry = service.run([job2], journal=str(path))
        assert retry.complete and retry.executed == 1
