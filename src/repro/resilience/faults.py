"""Deterministic unit-level fault injection (the executor side).

The chaos harness has two halves: :mod:`repro.store.chaos` injects
*store* faults (latency, transient errors, torn batches), this module
injects *execution* faults -- units that die, flake, or hang.  Together
they are the test substrate proving that retries, quarantine and lease
takeover converge to the bit-identical fault-free result.

:class:`FaultInjectingExecutor` is a :class:`~repro.runner.executors.
SerialExecutor` whose execution hook consults a :class:`FaultPlan`
before running each unit.  Faults are keyed by the unit's ``seed_path``
(the stable cell identity a test can name without computing hashes) and
counted per *attempt*, so a "transient" cell fails its first N attempts
and then succeeds -- exercising the retry path end to end.  Injection is
fully deterministic: same plan, same unit list, same failures.

Serial on purpose: a cell's attempts then run one after another in
the order the plan lists them, so which attempt fails is fixed.  Fleet
tests get fault-injecting workers by giving each
:class:`~repro.runner.fleet.FleetRunner` its own instance as the local
executor.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.resilience.errors import UnitExecutionError
from repro.runner.executors import SerialExecutor
from repro.runner.units import FrontEnds, UnitResult, WorkUnit, execute_unit

#: Cell identity faults are keyed by (``WorkUnit.seed_path``).
CellPath = Tuple[int, ...]


@dataclass(frozen=True)
class FaultPlan:
    """Which cells fail, and how.

    Attributes
    ----------
    poison:
        Cells that raise :class:`UnitExecutionError` on *every* attempt
        -- the unit can only end in ``raise``/``skip``/``quarantine``.
    transient:
        Cells that fail their first N attempts, then execute normally;
        with ``max_retries >= N`` the unit recovers.
    hang:
        Cells whose first N attempts sleep ``hang_seconds`` before
        executing -- with ``unit_timeout < hang_seconds`` the watchdog
        converts the hang into a failed (retryable) attempt.
    """

    poison: FrozenSet[CellPath] = frozenset()
    transient: Dict[CellPath, int] = field(default_factory=dict)
    hang: Dict[CellPath, int] = field(default_factory=dict)
    hang_seconds: float = 0.5


class FaultInjectingExecutor(SerialExecutor):
    """Serial executor that injects the faults a :class:`FaultPlan` names.

    ``injected`` counts what actually fired (``"poison"``,
    ``"transient"``, ``"hang"``), so tests assert the faults happened
    rather than trusting that they were configured.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: Counter = Counter()
        self._attempts: Counter = Counter()
        self._lock = threading.Lock()

    def _execute_one(self, unit: WorkUnit, front_ends: FrontEnds) -> UnitResult:
        path = tuple(unit.seed_path)
        with self._lock:
            attempt = self._attempts[path]
            self._attempts[path] += 1
        if path in self.plan.poison:
            with self._lock:
                self.injected["poison"] += 1
            raise UnitExecutionError(
                f"injected poison fault (cell {path}, attempt {attempt})"
            )
        if attempt < self.plan.transient.get(path, 0):
            with self._lock:
                self.injected["transient"] += 1
            raise UnitExecutionError(
                f"injected transient fault (cell {path}, attempt {attempt})"
            )
        if attempt < self.plan.hang.get(path, 0):
            with self._lock:
                self.injected["hang"] += 1
            time.sleep(self.plan.hang_seconds)
        return execute_unit(unit, front_ends)


__all__ = ["CellPath", "FaultInjectingExecutor", "FaultPlan"]
