"""Repository benchmark: real ``python -m repro run`` sweeps, timed from outside.

Usage::

    python benchmarks/perf/run.py [--workload NAME ...] [--seed S]
        [--seconds S | --repeats N] [--trace [0|1]] [--out PATH] [--smoke]

Each workload is a sweep users run, executed as fresh subprocesses from a
working directory under ``.bench_work/``.  One *repeat* of a workload
empties that directory and runs there 3 ``--dry-run`` invocations
(``setup_s``; the first creates the empty store), one cold sweep on the
empty store (``wall_s``, ``runs_per_s``, ``peak_rss_mb``) and 3 identical
warm reruns against the filled store (``warm_s``).  A workload without a
store has nothing to rerun warm: a rerun is another cold sweep, so its
``warm_s`` samples are its cold sweeps.  Repeats are interleaved
round-robin across the selected workloads.  ``--seconds`` bounds the
whole command, set-up and traced run included: rounds keep starting while
the next one, plus the traced run, is predicted to end inside the budget
(at least one round runs); otherwise ``--repeats`` rounds run.

The development host is a VM whose physical cores are shared, and for
minutes at a time everything on it can run up to twice as slow.  So each
timed invocation is bracketed by a fixed calibration workload run in this
process, and its times and rates are scaled to the calibration's usual
speed (:func:`calibration_s`).  Every metric is reported as the median of
its scaled samples with quartiles and the sample count, next to the
median of the measured ones.

Every output CSV is hashed and checked against ``golden.json`` (or, for a
seed without an entry there, against the first cold sweep of the run):
cold, warm and both fleet peers must agree, and the fleet's writes must
partition the planned units.  Failures count against ``attempted`` and
make the command exit 1.

``--trace 1`` adds one traced cold + warm run per workload
(``tracing.py`` wraps each layer of :mod:`repro` and calls the CLI
in-process) and reports the per-layer metrics of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
medians, or with ``--trace 1`` the per-layer values.  With several
workloads selected each metric name is prefixed by ``<workload>.``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
GOLDEN_FILE = HERE / "golden.json"
DEFAULT_SEED = 20050707

#: A hung child is killed after this long; the invocation then fails.
INVOCATION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Profile:
    """Problem size, per-repeat sample counts and the trace health floor."""

    name: str
    scale: str
    runs: Optional[int]  # None keeps each workload's own run count
    dry_runs: int
    warm_runs: int
    min_coverage: float


FULL = Profile("full", "small", None, dry_runs=3, warm_runs=3, min_coverage=0.95)
# Tiny sweeps last tens of milliseconds inside cli.main, so the fixed cost
# of opening the store and resolving the kernel, which no layer span
# wraps, is a visible share of them.
SMOKE = Profile("smoke", "tiny", 2, dry_runs=1, warm_runs=1, min_coverage=0.5)

# Span keys every workload's traced run must record.  A key that never
# shows up means a wrapper sits on a binding the program no longer calls.
COMMON_SPANS = frozenset(
    {
        "runner.cli", "runner.plan", "runner.unit", "runner.merge", "seeds.streams",
        "fec.build", "kernels.sojourn_batch", "fastpath.decode_block",
        "fastpath.compile", "fastpath.batch", "analysis.csv",
    }
)
PER_RUN_SPANS = frozenset({"seeds.run_rngs", "scheduling.batch", "channel.batch", "pipeline.runs"})
UNIT_SCHEME_SPANS = frozenset({"scheduling.unit", "channel.unit", "pipeline.unit"})
LDGM_SPANS = frozenset({"kernels.ldgm", "fastpath.decode_ldgm"})
STORE_SPANS = frozenset({"store.get", "store.put"})
FLEET_SPANS = frozenset({"fleet.run", "store.claim", "store.release"})


@dataclass(frozen=True)
class Workload:
    """One CLI sweep: its command line, peers and the spans it serves."""

    name: str
    experiment: str
    runs_flag: str
    runs: int
    flags: Tuple[str, ...]
    spans: frozenset
    peers: int = 1

    @property
    def has_store(self) -> bool:
        return "--no-cache" not in self.flags

    def cli_argv(self, profile: Profile, seed: int, peer: int) -> List[str]:
        argv = [
            "run", self.experiment, "--scale", profile.scale,
            self.runs_flag, str(profile.runs or self.runs),
            "--seed", str(seed), "--quiet", "--csv-dir", f"csv{peer}", *self.flags,
        ]
        if self.peers > 1:
            argv += ["--worker-id", f"w{peer}"]
        return argv


# Why each workload exists is recorded in README.md; in short: the paper's
# headline figure with large units, the same codes as many small adaptive
# units on sqlite, a 2-process fleet on the unit seed scheme, and an RSE
# sweep that bypasses the store, the LDGM kernels and schedule randomness.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "fig09-fixed", "fig09", "--runs", 100, (),
        COMMON_SPANS | PER_RUN_SPANS | LDGM_SPANS | STORE_SPANS,
    ),
    Workload(
        "fig09-adaptive", "fig09", "--max-runs", 400,
        ("--adaptive", "--ci-width", "0.1", "--rel-tol", "0.02", "--store", "sqlite:store.db"),
        COMMON_SPANS | PER_RUN_SPANS | LDGM_SPANS | STORE_SPANS | {"adaptive.grid"},
    ),
    Workload(
        "fig11-fleet2", "fig11", "--runs", 100,
        ("--seed-scheme", "unit", "--store", "sqlite:store.db", "--fleet"),
        COMMON_SPANS | UNIT_SCHEME_SPANS | LDGM_SPANS | STORE_SPANS | FLEET_SPANS,
        peers=2,
    ),
    Workload(
        "fig12-rse", "fig12", "--runs", 300, ("--no-cache",),
        COMMON_SPANS | PER_RUN_SPANS,
    ),
)

_CACHE_LINE = re.compile(r"\(cache: \d+ hits, (\d+) misses, (\d+) writes\)")
_DRY_LINE = re.compile(r"dry run: (\d+) units planned")

_PROBE = """
import json, os, sys
import numpy, repro
from repro.kernels import cext_openmp_enabled, get_backend, physical_cores, resolve_thread_count
print(json.dumps({
    "repro": os.path.abspath(repro.__file__),
    "kernel": get_backend().name,
    "cext_openmp": cext_openmp_enabled(),
    "nproc": os.cpu_count(),
    "physical_cores": physical_cores(),
    "kernel_threads": resolve_thread_count(None),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
}))
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all (no result is printed)."""


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's sources, caches inside it.

    ``REPRO_*`` variables are dropped so that the benchmark always measures
    the program's defaults, whatever the caller's shell selects.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(WORK / "xdg-cache")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe(env: Dict[str, str]) -> Dict[str, object]:
    """Import the checkout's package once: builds the cext cache, reports the host."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=WORK, env=env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if result.returncode != 0:
        raise SetupError(f"cannot import repro from {SRC}:\n{result.stderr.strip()}")
    info = json.loads(result.stdout.strip().splitlines()[-1])
    if not Path(info["repro"]).is_relative_to(SRC):
        raise SetupError(f"imported repro from {info['repro']}, not from {SRC}")
    info["commit"] = git_commit()
    return info


@dataclass
class Invocation:
    """One concurrent group of child processes (a fleet is one group)."""

    wall_s: float
    rss_mb: float
    codes: List[int]
    logs: List[str]


def spawn(argvs: Sequence[List[str]], cwd: Path, env: Dict[str, str]) -> Invocation:
    """Start every argv at once and wait for all of them.

    ``wall_s`` runs from the first spawn to the last exit; ``rss_mb`` sums
    each child's peak resident set (``ru_maxrss`` from ``os.wait4``).
    """
    cwd.mkdir(parents=True, exist_ok=True)
    log_paths = [cwd / f"peer{index}.log" for index in range(len(argvs))]
    procs: List[subprocess.Popen] = []
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, lambda: [p.kill() for p in procs])
    rss_kb = 0
    started = time.perf_counter()
    try:
        for argv, log_path in zip(argvs, log_paths):
            with open(log_path, "wb") as log:
                procs.append(
                    subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
                )
        watchdog.start()
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            rss_kb += usage.ru_maxrss
        wall = time.perf_counter() - started
    finally:
        watchdog.cancel()
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    logs = [path.read_text(encoding="utf-8", errors="replace") for path in log_paths]
    return Invocation(wall, rss_kb / 1024.0, [proc.returncode for proc in procs], logs)


def csv_digests(directory: Path) -> Dict[str, str]:
    if not directory.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.csv"))
    }


def csv_runs(directory: Path) -> int:
    """Σ of the ``runs`` column over every CSV grid in ``directory``."""
    total = 0
    for path in directory.glob("*.csv"):
        rows = [line for line in path.read_text(encoding="utf-8").splitlines() if line and line[0] != "#"]
        total += sum(int(row.rsplit(",", 1)[1]) for row in rows[1:])
    return total


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    values = list(samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0] if values else float("nan")
    return {
        "median": statistics.median(values) if values else float("nan"),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


#: Unit of each end-to-end metric, and the power of the host's slowdown by
#: which a sample is multiplied to scale it to the calibrated speed.
END_TO_END = {
    "wall_s": ("s", -1),
    "runs_per_s": ("runs/s", 1),
    "warm_s": ("s", -1),
    "setup_s": ("s", -1),
    "peak_rss_mb": ("MB", 0),
}

#: Median of :func:`calibration_s` between the invocations of ten runs per
#: workload on the 2-vCPU development VM (Intel Xeon, 2.0 GHz), so that
#: scaled times read as seconds on that host at its usual speed.
CALIBRATION_S = 0.0345
_CALIBRATION_DATA = np.random.default_rng(0).random(200_000)


def calibration_s() -> float:
    """Time fixed interpreter and NumPy work, the mix a sweep spends its time on.

    It runs in this process between invocations, so nothing the checkout's
    code does changes it; only the speed of the host at that moment does.
    """
    started = time.perf_counter()
    total = 0
    for index in range(400_000):
        total += index * index
    for _ in range(5):
        np.sort(_CALIBRATION_DATA)
        (_CALIBRATION_DATA * 1.5).sum()
    return time.perf_counter() - started


@dataclass
class WorkloadRun:
    """Samples, checks and traced metrics of one workload in this run."""

    workload: Workload
    profile: Profile
    seed: int
    env: Dict[str, str]
    reference: Optional[Dict[str, str]]  # golden digests, else the first cold sweep's
    samples: Dict[str, List[float]] = field(  # as measured
        default_factory=lambda: {name: [] for name in END_TO_END}
    )
    slowdowns: Dict[str, List[float]] = field(  # of the host, one per sample
        default_factory=lambda: {name: [] for name in END_TO_END}
    )
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    planned_units: Optional[int] = None
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    traced_wall: Optional[float] = None

    @property
    def case(self) -> str:
        return f"{self.workload.name}/{self.profile.name}/seed={self.seed}"

    @property
    def directory(self) -> Path:
        return WORK / "runs" / self.workload.name

    def _argvs(self, cli_prefix: Sequence[str], extra: Sequence[str] = (), peers=None):
        count = self.workload.peers if peers is None else peers
        return [
            [*cli_prefix, *self.workload.cli_argv(self.profile, self.seed, peer), *extra]
            for peer in range(count)
        ]

    def _record(self, phase: str, invocation: Invocation, problems: List[str]) -> bool:
        self.attempted += len(invocation.codes)
        for code, log in zip(invocation.codes, invocation.logs):
            if code != 0:
                problems.append(f"exit code {code}: {log.strip()[-400:]}")
        if problems:
            self.failed += len(invocation.codes)
            self.problems.extend(f"{phase}: {problem}" for problem in problems)
            return False
        return True

    def _spawn(self, argvs: Sequence[List[str]], job: Path, timed: bool):
        """Spawn ``argvs``; when timed, also the host's slowdown around them."""
        if not timed:
            return spawn(argvs, job, self.env), 1.0
        before = calibration_s()
        invocation = spawn(argvs, job, self.env)
        return invocation, (before + calibration_s()) / (2 * CALIBRATION_S)

    def _add(self, name: str, value: float, slowdown: float) -> None:
        self.samples[name].append(value)
        self.slowdowns[name].append(slowdown)

    def scaled(self, name: str) -> List[float]:
        power = END_TO_END[name][1]
        return [
            value * slowdown**power
            for value, slowdown in zip(self.samples[name], self.slowdowns[name])
        ]

    def dry_run(self, job: Path, timed: bool) -> None:
        """``--dry-run`` in ``job``: opens (so creates) the job's empty store.

        Fleet peers that open a store file neither has created yet can fail
        with "database is locked" (a start-up race in the sqlite backend),
        so every cold sweep runs on a store a dry run created.
        """
        argvs = self._argvs([sys.executable, "-m", "repro"], ["--dry-run"], peers=1)
        invocation, slowdown = self._spawn(argvs, job, timed)
        match = _DRY_LINE.search(invocation.logs[0])
        problems = [] if match else ["no dry-run summary line"]
        if self._record("dry-run", invocation, problems):
            self.planned_units = int(match.group(1))
            if timed:
                self._add("setup_s", invocation.wall_s, slowdown)

    def _check_sweep(self, phase: str, job: Path, invocation: Invocation) -> List[str]:
        problems: List[str] = []
        digests = [csv_digests(job / f"csv{peer}") for peer in range(self.workload.peers)]
        if not digests[0]:
            problems.append("no CSV written")
        if any(other != digests[0] for other in digests[1:]):
            problems.append("fleet peers wrote different CSVs")
        if self.reference is None:
            if not problems and all(code == 0 for code in invocation.codes):
                self.reference = digests[0]
        elif digests[0] != self.reference:
            problems.append("CSV digests differ from the reference")
        stats = [_CACHE_LINE.search(log) for log in invocation.logs]
        if self.workload.has_store:
            if not all(stats):
                return problems + ["no cache summary line"]
            misses, writes = (
                sum(int(match.group(index)) for match in stats) for index in (1, 2)
            )
            if phase == "warm" and (misses or writes):
                problems.append(f"warm rerun missed the store ({misses} misses, {writes} writes)")
            if phase == "cold" and self.workload.peers > 1 and writes != self.planned_units:
                problems.append(f"fleet writes sum to {writes}, planned {self.planned_units}")
        return problems

    def sweep(self, job: Path, phase: str) -> Optional[Invocation]:
        """One cold (empty store) or warm (filled store) sweep in ``job``."""
        argvs = self._argvs([sys.executable, "-m", "repro"])
        invocation, slowdown = self._spawn(argvs, job, timed=True)
        problems = self._check_sweep(phase, job, invocation)
        if not self._record(phase, invocation, problems):
            return None
        if phase == "cold":
            self._add("wall_s", invocation.wall_s, slowdown)
            self._add("runs_per_s", csv_runs(job / "csv0") / invocation.wall_s, slowdown)
            self._add("peak_rss_mb", invocation.rss_mb, slowdown)
        if phase == "warm" or not self.workload.has_store:
            self._add("warm_s", invocation.wall_s, slowdown)
        return invocation

    @property
    def phases(self) -> Tuple[str, ...]:
        return ("cold", "warm") if self.workload.has_store else ("cold",)

    def repeat(self) -> None:
        job = self.directory / "job"
        shutil.rmtree(job, ignore_errors=True)
        for _ in range(self.profile.dry_runs):
            self.dry_run(job, timed=True)
        if self.sweep(job, "cold") is None or not self.workload.has_store:
            return
        for _ in range(self.profile.warm_runs):
            self.sweep(job, "warm")

    def predicted_trace_s(self) -> float:
        """What :meth:`trace` should take: a dry run plus one sweep per phase."""
        medians = {name: summarize(values)["median"] for name, values in self.samples.items()}
        # The traced process also imports every module of the package (a
        # few tenths of a second) and pays the wrappers' overhead (up to
        # about 10% of a sweep).
        seconds = medians["setup_s"] + sum(
            1.2 * medians["wall_s" if phase == "cold" else "warm_s"] + 0.5 for phase in self.phases
        )
        return seconds if math.isfinite(seconds) else 0.0

    def trace(self) -> None:
        """Traced cold (+ warm, with a store) runs, then the per-layer metrics."""
        job = self.directory / "traced"
        shutil.rmtree(job, ignore_errors=True)
        self.dry_run(job, timed=False)
        span_files: List[str] = []
        walls = {}
        for phase in self.phases:
            paths = [str(job / f"spans-{phase}-{peer}.json") for peer in range(self.workload.peers)]
            argvs = [
                [
                    sys.executable, str(HERE / "tracing.py"), "--spans", path, "--phase", phase,
                    "--", *self.workload.cli_argv(self.profile, self.seed, peer),
                ]
                for peer, path in enumerate(paths)
            ]
            invocation = spawn(argvs, job, self.env)
            problems = self._check_sweep(phase, job, invocation)
            if not self._record(f"traced {phase}", invocation, problems):
                return
            walls[phase] = invocation.wall_s
            span_files.extend(paths)
        self.traced_wall = walls["cold"]
        processes = tracing.load_spans(span_files)
        problems = [
            f"wrapped call {key} never ran" for key in sorted(self.workload.spans - tracing.called_keys(processes))
        ]
        untraced = summarize(self.samples["wall_s"])["median"]
        self.layers = tracing.layer_metrics(
            processes,
            peers=self.workload.peers,
            traced_cold_wall=walls["cold"],
            untraced_cold_wall=untraced,
        )
        coverage = self.layers["trace.coverage"][0]
        if coverage < self.profile.min_coverage:
            problems.append(f"trace.coverage {coverage:.3f} < {self.profile.min_coverage}")
        if problems:
            self.failed += 1
            self.problems.extend(f"trace: {problem}" for problem in problems)

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        """Summaries of the scaled samples, with the median as measured."""
        return {
            name: {
                "unit": unit,
                **summarize(self.scaled(name)),
                "measured_median": summarize(self.samples[name])["median"],
            }
            for name, (unit, _) in END_TO_END.items()
        }


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def print_report(run: WorkloadRun) -> None:
    print(f"\n{run.workload.name}  [{run.case}]  attempted {run.attempted}, failed {run.failed}")
    slowdown = summarize([value for values in run.slowdowns.values() for value in values])
    print(f"  host slowdown (calibration time / {CALIBRATION_S} s): median {slowdown['median']:.3f}")
    print(
        f"  {'metric':24s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}"
        f" {'measured':>12s}"
    )
    for name, summary in run.end_to_end().items():
        print(
            f"  {name:24s} {summary['unit']:7s} {summary['median']:12.5g} "
            f"{summary['q1']:12.5g} {summary['q3']:12.5g} {summary['n']:4d} "
            f"{summary['measured_median']:12.5g}"
        )
    if run.layers:
        wall = run.traced_wall or 0.0
        print(f"  per layer (traced cold + warm run; traced cold wall {wall:.3f} s)")
        for name, (value, unit) in run.layers.items():
            print(f"  {name:24s} {unit:7s} {value:12.5g}")
    for problem in run.problems:
        print(f"  FAILED {problem}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="finish within about this long, set-up and traced run included (whole "
        "rounds, at least one) instead of running --repeats rounds",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="rounds to run (default 5, 1 with --smoke)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
        help="1: add the traced run and report the per-layer metrics (default 0, 1 with --smoke)",
    )
    parser.add_argument("--out", default=None, help="write the full JSON report here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="--scale tiny --runs 2, 1 repeat, traced: a quick end-to-end check",
    )
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 5
    if args.trace is None:
        args.trace = int(args.smoke)
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    profile = SMOKE if args.smoke else FULL
    selected = [workload for workload in WORKLOADS if workload.name in args.workload]
    for directory in (WORK / "tmp", WORK / "xdg-cache"):
        directory.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        host = probe(env)
        declared = load_json(BENCHMARK_FILE)
        golden = load_json(GOLDEN_FILE)
    except (SetupError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"benchmark setup failed: {error}", file=sys.stderr)
        return 2

    runs = []
    for workload in selected:
        case = f"{workload.name}/{profile.name}/seed={args.seed}"
        runs.append(WorkloadRun(workload, profile, args.seed, env, golden.get(case)))
    print(f"host: {json.dumps(host)}")
    print(f"profile {profile.name}, seed {args.seed}, workloads {', '.join(args.workload)}")

    for run in runs:
        shutil.rmtree(run.directory, ignore_errors=True)
    # Untimed: fills the page cache and the bytecode caches of src/.
    runs[0].dry_run(runs[0].directory / "job", timed=False)
    rounds_started = time.perf_counter()
    rounds = 0
    while True:
        for run in runs:
            run.repeat()
        rounds += 1
        if args.seconds is None:
            if rounds >= args.repeats:
                break
            continue
        now = time.perf_counter()
        next_round = (now - rounds_started) / rounds
        traced = sum(run.predicted_trace_s() for run in runs) if args.trace else 0.0
        if now - started + next_round + traced > args.seconds:
            break
    measured = time.perf_counter() - rounds_started
    if args.trace:
        for run in runs:
            run.trace()

    for run in runs:
        print_report(run)
    total = time.perf_counter() - started
    print(f"\n{rounds} round(s) measured in {measured:.1f} s; {total:.1f} s in all")

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    correct = failed == 0
    if args.out:
        report = {
            "host": host,
            "profile": profile.name,
            "seed": args.seed,
            "rounds": rounds,
            "measured_s": measured,
            "total_s": total,
            "attempted": attempted,
            "failed": failed,
            "workloads": {
                run.workload.name: {
                    "case": run.case,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "error_rate": run.failed / run.attempted if run.attempted else 0.0,
                    "problems": run.problems,
                    "end_to_end": run.end_to_end(),
                    "samples": {name: run.scaled(name) for name in END_TO_END},
                    "measured_samples": run.samples,
                    "slowdowns": run.slowdowns,
                    "per_layer": {
                        name: {"value": value, "unit": unit} for name, (value, unit) in run.layers.items()
                    },
                }
                for run in runs
            },
            "digests": {run.case: run.reference for run in runs if run.reference},
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.workload.name}."
        for spec in declared[group]:
            name = spec["name"]
            if args.trace:
                value = run.layers.get(name, (float("nan"), spec["unit"]))[0]
            else:
                value = summarize(run.scaled(name))["median"]
            # A metric without samples (its invocations failed) is null.
            metrics[prefix + name] = {
                "value": value if math.isfinite(value) else None,
                "unit": spec["unit"],
            }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
