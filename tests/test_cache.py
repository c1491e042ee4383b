"""Tests for the content-addressed run cache (repro.cache)."""

from __future__ import annotations

import errno
import multiprocessing
import os
import struct
import unittest.mock
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import (
    CACHE_ENV_VAR,
    RunCache,
    default_cache_dir,
    describe,
    resolve_cache,
    run_cache_key,
)
from repro.printer import TimeNoiseModel, ULTIMAKER3, ROSTOCK_MAX_V3
from repro.sensors import default_daq
from repro.signals import Signal


@pytest.fixture(scope="module")
def daq():
    return default_daq()


class TestKey:
    def test_stable_across_calls(self, tiny_job, daq):
        key_a = run_cache_key(
            tiny_job.program, ULTIMAKER3, TimeNoiseModel(), daq, ("ACC",), 3
        )
        key_b = run_cache_key(
            tiny_job.program, ULTIMAKER3, TimeNoiseModel(), daq, ("ACC",), 3
        )
        assert key_a == key_b
        assert len(key_a) == 64  # sha256 hex

    def test_seed_changes_key(self, tiny_job, daq):
        args = (tiny_job.program, ULTIMAKER3, TimeNoiseModel(), daq, ("ACC",))
        assert run_cache_key(*args, 3) != run_cache_key(*args, 4)

    def test_noise_params_change_key(self, tiny_job, daq):
        base = TimeNoiseModel()
        tweaked = replace(base, rate_walk_std=base.rate_walk_std * 2)
        key_a = run_cache_key(
            tiny_job.program, ULTIMAKER3, base, daq, ("ACC",), 3
        )
        key_b = run_cache_key(
            tiny_job.program, ULTIMAKER3, tweaked, daq, ("ACC",), 3
        )
        assert key_a != key_b

    def test_machine_and_channels_change_key(self, tiny_job, daq):
        noise = TimeNoiseModel()
        key = run_cache_key(
            tiny_job.program, ULTIMAKER3, noise, daq, ("ACC",), 3
        )
        assert key != run_cache_key(
            tiny_job.program, ROSTOCK_MAX_V3, noise, daq, ("ACC",), 3
        )
        assert key != run_cache_key(
            tiny_job.program, ULTIMAKER3, noise, daq, ("ACC", "AUD"), 3
        )

    def test_program_text_changes_key(self, tiny_job, daq):
        from repro.attacks import TABLE_I_ATTACKS

        attacked = TABLE_I_ATTACKS()[0].apply(tiny_job)
        noise = TimeNoiseModel()
        assert run_cache_key(
            tiny_job.program, ULTIMAKER3, noise, daq, ("ACC",), 3
        ) != run_cache_key(
            attacked.program, ULTIMAKER3, noise, daq, ("ACC",), 3
        )


class TestDescribe:
    def test_dataclass_fields_surface(self):
        doc = describe(TimeNoiseModel())
        assert doc["__class__"] == "TimeNoiseModel"
        assert doc["rate_walk_std"] == TimeNoiseModel().rate_walk_std

    def test_nested_machine_includes_kinematics(self):
        doc = describe(ROSTOCK_MAX_V3)
        assert doc["kinematics"]["__class__"] == "DeltaKinematics"

    def test_array_digest(self):
        a = describe(np.arange(4.0))
        b = describe(np.arange(4.0))
        c = describe(np.arange(5.0))
        assert a == b and a != c


class TestRunCache:
    def _payload(self):
        rng = np.random.default_rng(0)
        signals = {
            "ACC": Signal(rng.standard_normal((50, 3)), 400.0,
                          channel_names=["ax", "ay", "az"]),
            "AUD": Signal(rng.standard_normal(80), 2000.0),
        }
        return signals, (0.5, 1.25), 2.0

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        signals, layers, duration = self._payload()
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, signals, layers, duration)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_evict_by_count(self, tmp_path):
        cache = RunCache(tmp_path)
        signals, layers, duration = self._payload()
        for i in range(4):
            cache.put(f"{i:02d}" + "0" * 62, signals, layers, duration)
        removed = cache.evict(max_entries=2)
        assert removed == 2
        assert len(cache) == 2

    def test_evict_by_bytes(self, tmp_path):
        cache = RunCache(tmp_path)
        signals, layers, duration = self._payload()
        cache.put("aa" + "0" * 62, signals, layers, duration)
        one_entry = cache.total_bytes()
        cache.put("bb" + "0" * 62, signals, layers, duration)
        assert cache.evict(max_bytes=one_entry) == 1
        assert len(cache) == 1

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        assert RunCache().directory == tmp_path / "env-cache"

    def test_resolve(self, tmp_path):
        assert resolve_cache(None) is None
        cache = RunCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(str(tmp_path)).directory == tmp_path

    def test_rejects_file_as_directory(self, tmp_path):
        bogus = tmp_path / "notadir"
        bogus.touch()
        with pytest.raises(ValueError, match="not a directory"):
            RunCache(bogus)


def _hammer_put(directory, key, n_rounds):
    """Worker for the concurrent-put stress test (module-level: picklable)."""
    rng = np.random.default_rng(os.getpid())
    cache = RunCache(directory)
    for _ in range(n_rounds):
        signals = {"ACC": Signal(rng.standard_normal((40, 3)), 400.0)}
        cache.put(key, signals, (0.5,), 1.0)


class TestConcurrentCache:
    KEY = "ee" + "0" * 62

    def test_two_process_put_same_key_stays_consistent(self, tmp_path):
        """Two writers hammer one key while a reader polls it.

        Every read must come back as either a miss or a complete payload —
        never a torn archive — and no staging tmp files may survive.
        """
        procs = [
            multiprocessing.Process(
                target=_hammer_put, args=(str(tmp_path), self.KEY, 20)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        reader = RunCache(tmp_path)
        try:
            while any(p.is_alive() for p in procs):
                handle = reader.get_lazy(self.KEY)
                if handle is not None:
                    assert handle.signal("ACC").data.shape == (40, 3)
                    assert handle.duration == 1.0
        finally:
            for p in procs:
                p.join()
        assert all(p.exitcode == 0 for p in procs)
        final = reader.get_lazy(self.KEY)
        assert final is not None
        assert list(tmp_path.glob("**/*.tmp.npz")) == []

    def test_tmp_staging_names_are_per_writer_unique(self, tmp_path):
        cache = RunCache(tmp_path)
        seen = set()

        real_replace = os.replace

        def spy_replace(src, dst):
            seen.add(str(src))
            return real_replace(src, dst)

        signals = {"ACC": Signal(np.zeros((4, 3)), 400.0)}
        with unittest.mock.patch("repro.cache.os.replace", spy_replace):
            cache.put(self.KEY, signals, (0.5,), 1.0)
            cache.put(self.KEY, signals, (0.5,), 1.0)
        assert len(seen) == 2  # distinct tmp path per write, same key
        for name in seen:
            assert f".{os.getpid()}." in name

    def test_tmp_files_excluded_from_entries(self, tmp_path):
        cache = RunCache(tmp_path)
        signals = {"ACC": Signal(np.zeros((4, 3)), 400.0)}
        cache.put(self.KEY, signals, (0.5,), 1.0)
        straggler = tmp_path / self.KEY[:2] / f"{self.KEY}.999.7.tmp.npz"
        straggler.write_bytes(b"partial write")
        assert len(cache) == 1
        assert cache.evict(max_entries=5) == 0
        assert cache.get_lazy(self.KEY) is not None


class TestScanRaces:
    def _cache_with_entries(self, tmp_path, n=3):
        cache = RunCache(tmp_path)
        signals = {"ACC": Signal(np.zeros((10, 3)), 400.0)}
        for i in range(n):
            cache.put(f"{i:02d}" + "0" * 62, signals, (0.5,), 1.0)
        return cache

    def _vanish_mid_scan(self, cache, monkeypatch):
        """Make the first scanned entry disappear between glob and stat."""
        real_entries = RunCache._entries

        def racy_entries(self_cache):
            entries = list(real_entries(self_cache))
            if entries:
                entries[0].unlink(missing_ok=True)
            return entries

        monkeypatch.setattr(RunCache, "_entries", racy_entries)

    def test_total_bytes_tolerates_vanished_entry(self, tmp_path, monkeypatch):
        cache = self._cache_with_entries(tmp_path)
        baseline = cache.total_bytes()
        self._vanish_mid_scan(cache, monkeypatch)
        assert 0 < cache.total_bytes() < baseline

    def test_evict_tolerates_vanished_entry(self, tmp_path, monkeypatch):
        cache = self._cache_with_entries(tmp_path)
        self._vanish_mid_scan(cache, monkeypatch)
        # 3 scanned, 1 vanished mid-scan: only the survivors are evictable.
        assert cache.evict(max_entries=0) == 2
        monkeypatch.undo()
        assert len(cache) == 0


class TestGetLazy:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cache = RunCache(tmp_path)
        key = "ab" + "1" * 62
        signals = {
            "ACC": Signal(rng.standard_normal((50, 3)), 400.0,
                          channel_names=["ax", "ay", "az"]),
            "AUD": Signal(rng.standard_normal(80), 2000.0),
        }
        cache.put(key, signals, (0.5, 1.0), 1.5)
        assert key in cache
        handle = cache.get_lazy(key)
        assert handle is not None
        with handle:
            assert handle.channels == ("ACC", "AUD")
            assert handle.layer_times == (0.5, 1.0)
            assert handle.duration == 1.5
            got = handle.signals()
            assert list(got) == list(signals)
            for cid in signals:
                assert np.array_equal(got[cid].data, signals[cid].data)
                assert got[cid].sample_rate == signals[cid].sample_rate
            assert got["ACC"].channel_names == ("ax", "ay", "az")
            assert got["AUD"].channel_names is None
        assert cache.stats == {"hits": 1, "misses": 0}

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get_lazy("ff" + "1" * 62) is None
        assert cache.stats == {"hits": 0, "misses": 1}

    def test_corrupt_entry_behaves_like_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "cd" + "1" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz")
        assert cache.get_lazy(key) is None
        assert not path.exists()
        assert cache.stats == {"hits": 0, "misses": 1}

    @pytest.mark.parametrize(
        "code",
        [errno.EMFILE, errno.ENFILE, errno.ENOMEM],
        ids=["EMFILE", "ENFILE", "ENOMEM"],
    )
    def test_resource_exhaustion_keeps_entry(self, tmp_path, monkeypatch, code):
        """Running out of fds or memory is not corruption: the error
        propagates and the healthy entry stays on disk."""
        import repro.io

        cache = RunCache(tmp_path)
        key = "ce" + "1" * 62
        path = cache.put(key, {"ACC": Signal(np.ones((20, 3)), 400.0)}, (), 1.0)

        def exhausted(path):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(repro.io, "LazyRunPayload", exhausted)
        with pytest.raises(OSError) as info:
            cache.get_lazy(key)
        assert info.value.errno == code
        assert path.exists()
        assert cache.stats == {"hits": 0, "misses": 0}


def _tear_npy_magic(path, member="ACC::data.npy"):
    """Overwrite one member's npy magic in place, leaving the zip intact.

    The zip directory still parses, so the archive opens; only reading
    the member fails (its npy header no longer parses, and the fallback
    zip read fails the member's CRC-32).
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as f:
        f.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", f.read(4))
        f.seek(info.header_offset + 30 + name_len + extra_len)
        f.write(b"XXXXXX")


class TestTornMember:
    def test_get_lazy_treats_torn_member_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "de" + "1" * 62
        signals = {"ACC": Signal(np.ones((20, 3)), 400.0)}
        path = cache.put(key, signals, (0.5,), 1.0)
        _tear_npy_magic(path)
        assert cache.get_lazy(key) is None
        assert not path.exists()
        assert cache.stats == {"hits": 0, "misses": 1}

    def test_engine_resimulates_torn_entry(self, tmp_path):
        from repro.eval import CampaignEngine, campaign_requests, default_setup

        setup = default_setup("UM3", object_height=0.4)
        requests, _ = campaign_requests(
            setup, n_train=0, n_benign_test=0, attacks=[], seed=5
        )
        cold = CampaignEngine(cache=tmp_path).execute(
            requests, channels=("ACC",)
        )
        [path] = tmp_path.glob("*/*.npz")
        _tear_npy_magic(path)
        engine = CampaignEngine(cache=tmp_path)
        [(_, run)] = engine.iter_execute(requests, channels=("ACC",))
        assert engine.stats.cache_misses == 1
        assert engine.stats.simulated == 1
        assert np.array_equal(
            run.signals["ACC"].data, cold[0].signals["ACC"].data
        )
        # The re-simulated run was written back: the slot is whole again.
        assert CampaignEngine(cache=tmp_path).execute(
            requests, channels=("ACC",)
        )[0].duration == run.duration
