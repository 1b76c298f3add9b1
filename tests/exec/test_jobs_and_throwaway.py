"""--jobs auto sizing and the context-managed throwaway cache dir."""

import os
from pathlib import Path

import pytest

from repro.exec.cache import CACHE_DIR_ENV, throwaway_cache_dir
from repro.exec.parallel import AUTO_JOBS_CAP, auto_jobs


class TestAutoJobs:
    @pytest.mark.parametrize(
        "cpus,expected",
        [
            (1, 1),
            (2, 2),
            (4, 3),  # leave one core for the parent
            (8, 7),
            (9, 8),  # capped
            (64, AUTO_JOBS_CAP),
        ],
    )
    def test_sizing(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert auto_jobs() == expected

    def test_unknown_cpu_count_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_jobs() == 1

    def test_custom_cap(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 32)
        assert auto_jobs(cap=3) == 3


class TestJobsArg:
    def test_auto_resolves_to_int(self, monkeypatch):
        from repro.__main__ import _jobs_arg

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _jobs_arg("auto") == 3
        assert _jobs_arg("AUTO") == 3

    def test_explicit_integer_unchanged(self):
        from repro.__main__ import _jobs_arg

        assert _jobs_arg("5") == 5

    def test_garbage_is_a_parse_error(self):
        import argparse

        from repro.__main__ import _jobs_arg

        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_arg("many")


class TestThrowawayCacheDir:
    def test_redirects_and_restores(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/original")
        with throwaway_cache_dir() as tmp:
            assert os.environ[CACHE_DIR_ENV] == str(tmp)
            assert Path(tmp).is_dir()
        assert os.environ[CACHE_DIR_ENV] == "/original"
        assert not Path(tmp).exists()

    def test_restores_unset_variable(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with throwaway_cache_dir():
            assert CACHE_DIR_ENV in os.environ
        assert CACHE_DIR_ENV not in os.environ

    def test_exception_safe(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/original")
        with pytest.raises(RuntimeError, match="boom"):
            with throwaway_cache_dir() as tmp:
                (Path(tmp) / "partial.json").write_text("{}")
                raise RuntimeError("boom")
        assert os.environ[CACHE_DIR_ENV] == "/original"
        assert not Path(tmp).exists()

    def test_inner_redirect_still_restored(self, monkeypatch):
        """A caller may point the var at subdirectories inside the block;
        the manager must still restore the original on exit."""
        monkeypatch.setenv(CACHE_DIR_ENV, "/original")
        with throwaway_cache_dir() as tmp:
            os.environ[CACHE_DIR_ENV] = str(tmp / "phase2")
        assert os.environ[CACHE_DIR_ENV] == "/original"
