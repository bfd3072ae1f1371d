"""Tests for the content-addressed result cache."""

import errno
import json

import pytest

from repro.errors import ConfigurationError
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


class TestEviction:
    def test_rejects_bad_cap(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_entries=0)

    def test_evict_to_cap_removes_oldest(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        jobs = [make_job(cores=c) for c in (1, 2, 3, 4)]
        base = time.time() - 1000
        for i, job in enumerate(jobs):
            path = cache.put(job, {"i": i})
            os.utime(path, (base + i, base + i))
        assert len(cache) == 4
        removed = cache.evict(max_entries=2)
        assert removed == 2
        assert cache.get(jobs[0].digest()) is None
        assert cache.get(jobs[3].digest()) == {"i": 3}

    def test_evict_by_age(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        old, new = make_job(cores=1), make_job(cores=2)
        stale = time.time() - 10_000
        os.utime(cache.put(old, {}), (stale, stale))
        cache.put(new, {})
        assert cache.evict(max_age_s=5_000) == 1
        assert cache.get(old.digest()) is None
        assert cache.get(new.digest()) == {}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for c in (1, 2):
            cache.put(make_job(cores=c), {})
        assert cache.clear() == 2
        assert len(cache) == 0
