"""Tests for shared helpers (dates, stable hashing, RNG derivation,
durable writes)."""

import datetime
import os
import stat

from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    EPOCH,
    FINAL_DAY,
    atomic_write,
    date_to_day,
    day_to_date,
    derive_rng,
    mix64,
    stable_hash,
)


class TestDates:
    def test_epoch(self):
        assert EPOCH == datetime.date(2018, 7, 1)
        assert day_to_date(0) == EPOCH

    def test_final_day_matches_paper_snapshot(self):
        assert day_to_date(FINAL_DAY) == datetime.date(2022, 4, 7)

    @given(st.integers(min_value=-1000, max_value=3000))
    def test_round_trip(self, day):
        assert date_to_day(day_to_date(day)) == day


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_sensitive_to_parts(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("ab") != stable_hash("a", "b")

    def test_64_bit_range(self):
        value = stable_hash("anything")
        assert 0 <= value < (1 << 64)


class TestDeriveRng:
    def test_reproducible(self):
        assert derive_rng(1, "x").random() == derive_rng(1, "x").random()

    def test_label_isolation(self):
        assert derive_rng(1, "x").random() != derive_rng(1, "y").random()


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_range(self):
        for value in (0, 1, (1 << 64) - 1, 1 << 127):
            assert 0 <= mix64(value) < (1 << 64)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_bijective_on_64_bits(self, value):
        # SplitMix64's finalizer is a bijection; collisions on distinct
        # inputs would break churn independence.  Spot-check injectivity
        # against neighbours.
        assert mix64(value) != mix64(value ^ 1)

    def test_avalanche(self):
        a, b = mix64(0), mix64(1)
        assert bin(a ^ b).count("1") > 16


class TestAtomicWrite:
    def test_replaces_contents_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"old")
        atomic_write(str(path), b"new bytes")
        assert path.read_bytes() == b"new bytes"
        assert sorted(os.listdir(tmp_path)) == ["state.bin"]

    def test_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        atomic_write(str(tmp_path / "state.bin"), b"x")
        # the rename is durable only once the directory entry is synced
        assert synced == [False, True]
