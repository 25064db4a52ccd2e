"""The benchmarks' site-fleet launcher (``benchmarks/_common.py``) leaves no
process behind when a site fails to boot."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

COMMON = Path(__file__).resolve().parents[2] / "benchmarks" / "_common.py"


@pytest.fixture()
def common():
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def spawned(monkeypatch):
    """Every process the launcher starts during the test."""
    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return procs


def test_a_site_outside_the_network_stops_the_whole_fleet(common, spawned):
    # hospital-9 is not one of two sites: its server exits before LISTENING.
    with pytest.raises(RuntimeError, match="hospital-9 failed to boot"):
        common.start_site_fleet(["hospital-0", "hospital-9", "hospital-1"], 2, 10, 2026)
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)


def test_a_site_that_does_not_answer_in_time_stops_the_whole_fleet(common, spawned):
    with pytest.raises(RuntimeError, match="hospital-0 failed to boot"):
        common.start_site_fleet(["hospital-0", "hospital-1"], 2, 10, 2026, boot_timeout_s=0.0)
    assert len(spawned) == 2
    assert all(proc.poll() is not None for proc in spawned)


def test_a_booted_fleet_answers_and_stops(common):
    procs, addrs = common.start_site_fleet(["hospital-0", "hospital-1"], 2, 10, 2026)
    try:
        assert sorted(addrs) == ["hospital-0", "hospital-1"]
        assert all(proc.poll() is None for proc in procs)
    finally:
        common.stop_site_fleet(procs)
    assert [proc.returncode for proc in procs] == [0, 0]
