"""Tests for :mod:`repro.runner.heap`, the runner's heap tuning.

The runner tunes glibc's ``malloc`` once per process, before its first
work unit, so the blocks a unit frees stay in the heap for the next unit
instead of being faulted in again.  The fake-library tests pin the calls;
the subprocess test measures the effect on real units.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.runner import heap
from repro.runner.units import execute_unit, plan_units

SRC = str(Path(heap.__file__).resolve().parents[2])


class _FakeLibc:
    def __init__(self):
        self.calls = []
        outer = self

        class _Mallopt:
            argtypes = None

            def __call__(self, param, value):
                outer.calls.append((param, value))
                return 1

        self.mallopt = _Mallopt()


def _fake_process_libc(monkeypatch, libc):
    """Fake ``CDLL(None)`` (this process's C library); other loads are real."""
    real = heap.ctypes.CDLL
    monkeypatch.setattr(heap, "_tuned", False)
    monkeypatch.setattr(
        heap.ctypes,
        "CDLL",
        lambda name, *args, **kw: libc if name is None else real(name, *args, **kw),
    )


@pytest.fixture
def fake_libc(monkeypatch):
    libc = _FakeLibc()
    _fake_process_libc(monkeypatch, libc)
    return libc


def _units(count=3):
    config = SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=40, expansion_ratio=2.5
    )
    cells = [((index,), config, 0.1, 0.5) for index in range(count)]
    return plan_units(cells, runs=3, base_seed=5)


class TestRetainFreedPages:
    def test_sets_both_thresholds_once_per_process(self, fake_libc):
        heap.retain_freed_pages()
        heap.retain_freed_pages()
        assert fake_libc.calls == [
            (heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD),
            (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD),
        ]

    def test_the_runner_tunes_before_its_first_unit(self, fake_libc):
        for unit in _units():
            execute_unit(unit)
        assert len(fake_libc.calls) == 2

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        _fake_process_libc(monkeypatch, object())
        heap.retain_freed_pages()
        heap.retain_freed_pages()
        assert heap._tuned


_FAULTS = textwrap.dedent(
    """
    import resource, sys
    from repro.runner import heap
    if sys.argv[1] == "untuned":
        heap._tuned = True
    from repro.core.config import SimulationConfig
    from repro.runner.units import execute_unit, plan_units
    config = SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=1000, expansion_ratio=2.5
    )
    units = plan_units([((i,), config, 0.1, 0.5) for i in range(9)], runs=50, base_seed=5)
    execute_unit(units[0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for unit in units[1:]:
        execute_unit(unit)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc tuning")
def test_units_stop_faulting_their_buffers_in():
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC

    def faults(mode):
        result = subprocess.run(
            [sys.executable, "-c", _FAULTS, mode],
            env=env, capture_output=True, text=True, check=True,
        )
        return int(result.stdout.split()[-1])

    untuned, tuned = faults("untuned"), faults("tuned")
    # 8 units of three 50 x 2500 intermediates: ~3.5k faults untuned
    # on a 2-vCPU Linux VM, ~10 tuned.
    assert tuned * 5 < untuned, (tuned, untuned)
