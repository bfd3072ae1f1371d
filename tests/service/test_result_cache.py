"""Tests for the content-addressed result cache."""

import errno
import json
import os

from repro.service.cache import ResultCache
from repro.service.job import Job


def make_job(cores=1):
    return Job("synthetic", {"pattern": "sequential", "cores": cores})


def failing_writes(cache, code=errno.ENOSPC, times=10**9):
    """Make the next `times` entry writes fail with `code`."""
    remaining = [times]
    original = cache._write_entry

    def write(path, digest, body):
        if remaining[0] > 0:
            remaining[0] -= 1
            raise OSError(code, "injected write failure", str(path))
        original(path, digest, body)

    cache._write_entry = write


class TestHitMiss:
    def test_miss_then_put_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        assert cache.get(job.digest()) is None
        cache.put(job, {"value": 42})
        assert cache.get(job.digest()) == {"value": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_payload_floats_round_trip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        value = 0.1 + 0.2  # not representable prettily
        cache.put(job, {"gbps": value})
        assert cache.get(job.digest())["gbps"] == value

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_job(cores=1), {"cores": 1})
        assert cache.get(make_job(cores=2).digest()) is None
        assert cache.get(make_job(cores=1).digest()) == {"cores": 1}

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        assert cache.stats.hit_rate == 0.0
        cache.get(job.digest())
        cache.put(job, {})
        cache.get(job.digest())
        assert cache.stats.hit_rate == 0.5


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 1})
        path = cache.path_for(job.digest())
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(job.digest()) is None
        assert not path.exists()
        assert cache.stats.invalid == 1

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 1})
        path = cache.path_for(job.digest())
        body = json.loads(path.read_text())
        body["digest"] = "0" * 64
        path.write_text(json.dumps(body), encoding="utf-8")
        assert cache.get(job.digest()) is None

    def test_foreign_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 1})
        path = cache.path_for(job.digest())
        body = json.loads(path.read_text())
        body["format"] = 999
        path.write_text(json.dumps(body), encoding="utf-8")
        assert cache.get(job.digest()) is None

    def test_non_utf8_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 1})
        path = cache.path_for(job.digest())
        path.write_bytes(b"\xff\xfe not utf-8")
        assert cache.get(job.digest()) is None  # does not raise
        assert not path.exists()
        assert cache.stats.invalid == 1

    def test_non_dict_payload_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 1})
        path = cache.path_for(job.digest())
        body = json.loads(path.read_text())
        body["payload"] = None
        path.write_text(json.dumps(body), encoding="utf-8")
        assert cache.get(job.digest()) is None
        assert not path.exists()
        assert (cache.stats.hits, cache.stats.invalid) == (0, 1)

    def test_write_fsyncs_before_replace(self, tmp_path, monkeypatch):
        """An entry that exists after a crash is complete: the temp
        file reaches the disk before it replaces the entry."""
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        cache = ResultCache(tmp_path)
        assert cache.put(make_job(), {"value": 1}) is not None
        # The file fsync'd is the file that then replaces the entry.
        assert [kind for kind, _ in calls] == ["fsync", "replace"]
        assert calls[0][1] == calls[1][1]

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_job(), {"value": 1})
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
            and p.suffix != ".json"
        ]
        assert leftovers == []


class TestErrorPolicy:
    """get/put never raise: each IO error is counted and absorbed on
    its own call — that lookup misses, that write is skipped — and the
    next call tries the disk again.

    Tests may run as root, so chmod-style read-only directories do not
    actually fail — faults are injected at the IO seam instead (the
    same seam the ``chaos_cache`` fixture uses).
    """

    def test_disk_full_put_returns_none_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        failing_writes(cache, code=errno.ENOSPC, times=1)
        job = make_job()
        assert cache.put(job, {"value": 1}) is None  # absorbed
        assert cache.stats.write_errors == 1
        assert cache.stats.writes == 0
        # The fault was transient: the next put lands.
        assert cache.put(job, {"value": 1}) is not None
        assert cache.stats.writes == 1

    def test_persistent_write_errors_skip_each_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        job_a, job_b = make_job(cores=1), make_job(cores=2)
        cache.put(job_a, {"value": 1})  # healthy write first
        failing_writes(cache, code=errno.EROFS)
        for attempt in (1, 2, 3):
            assert cache.put(job_b, {}) is None
            assert cache.stats.write_errors == attempt
        # Hits keep being served from what did land.
        assert cache.get(job_a.digest()) == {"value": 1}
        assert cache.get(job_b.digest()) is None
        assert cache.stats.writes == 1

    def test_read_errors_count_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, {"value": 7})
        healthy = cache._read_entry

        def read(path, digest):
            raise OSError(errno.EIO, "injected read failure", str(path))

        cache._read_entry = read
        assert cache.get(job.digest()) is None
        assert cache.get(job.digest()) is None
        assert cache.stats.read_errors == 2
        assert cache.stats.misses == 2
        # Every lookup tries the disk again: once it reads, it hits.
        cache._read_entry = healthy
        assert cache.get(job.digest()) == {"value": 7}
        assert cache.stats.read_errors == 2
