"""usable_cores(): affinity set clamped by a cgroup CPU quota."""

import os

import pytest

from repro._host import cgroup_cpu_limit, usable_cores


def _affinity():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.mark.parametrize("cpu_max, cores", [
    ("100000 100000\n", 1),
    ("150000 100000\n", 2),
    ("50000 100000\n", 1),
    ("400000 100000\n", 4),
])
def test_cgroup_v2_quota_rounds_up_to_whole_cores(tmp_path, cpu_max, cores):
    _write(tmp_path, "cpu.max", cpu_max)
    assert cgroup_cpu_limit(str(tmp_path)) == cores
    assert usable_cores(str(tmp_path)) == min(_affinity(), cores)


def test_cgroup_v1_quota_is_read_when_v2_is_absent(tmp_path):
    _write(tmp_path, "cpu/cpu.cfs_quota_us", "100000\n")
    _write(tmp_path, "cpu/cpu.cfs_period_us", "100000\n")
    assert cgroup_cpu_limit(str(tmp_path)) == 1
    assert usable_cores(str(tmp_path)) == 1


@pytest.mark.parametrize("files", [
    {"cpu.max": "max 100000\n"},
    {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
    {"cpu.max": "garbage\n"},
    {},
])
def test_unlimited_or_missing_quota_keeps_the_affinity_count(tmp_path, files):
    for relative, text in files.items():
        _write(tmp_path, relative, text)
    assert cgroup_cpu_limit(str(tmp_path)) is None
    assert usable_cores(str(tmp_path)) == _affinity()
