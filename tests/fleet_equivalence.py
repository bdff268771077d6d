"""Two fleet processes on one shared store must match a serial json-dir run.

Usage::

    PYTHONPATH=src python tests/fleet_equivalence.py STORE SCHEME

``STORE`` is ``sqlite``, ``chaos+sqlite``, ``http`` or ``chaos+http``;
``SCHEME`` a seed scheme.  The leg runs ``python -m repro run fig07 --scale
tiny`` serially on a json-dir cache, then as two concurrent ``--fleet``
processes on the store, and checks that:

* both workers' CSVs are byte-identical to the serial CSV;
* their reported ``N writes`` sum to the grid's 16 units (zero duplicated
  executions), except on ``chaos+sqlite``, whose torn batches rewrite;
* ``sqlite``: a second fleet at ``--kernel-threads 2`` and a third whose
  peers each run a ``--workers 2`` thread pool (writes again summing to
  16) give the same CSVs, and two peers running ``run fig09 --scale tiny
  --adaptive`` (six configs through one shared round loop) write the CSVs of a serial adaptive run,
  with writes summing to that run's misses;
* ``chaos+sqlite``: a solo adaptive sweep whose buffered write-behind flush
  is torn (``injected fault on put_many``) converges to the same CSV;
* ``http`` legs reach a ``cache serve`` process on localhost only through
  the ``http:`` backend; on ``chaos+http`` that server is killed once a
  result has landed and restarted on the same port and file mid-sweep.

Exits non-zero with the failed check on stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STORES = ("sqlite", "chaos+sqlite", "http", "chaos+http")
UNITS = 16  # fig07 at tiny scale: one config on a 4 x 4 grid
_MISSES = re.compile(r"(\d+) misses, ")
_WRITES = re.compile(r"misses, (\d+) writes\)")


def _spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _finish(process: subprocess.Popen) -> str:
    output, _ = process.communicate(timeout=600)
    if process.returncode != 0:
        command = " ".join(process.args)
        raise AssertionError(f"{command} exited {process.returncode}:\n{output}")
    return output


def _csvs(directory: Path) -> dict:
    """Every CSV a run wrote, by file name."""
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def _serve(db: Path, port: int = 0):
    """Start ``cache serve`` on ``db``; returns (process, port)."""
    server = _spawn(
        "cache", "serve", f"sqlite:{db}", "--host", "127.0.0.1", "--port", str(port)
    )
    banner = server.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    if match is None:
        server.kill()
        rest = server.communicate()[0]
        raise AssertionError(f"cache serve did not start: {banner}{rest}")
    return server, int(match.group(1))


def _stop(server: subprocess.Popen) -> None:
    server.terminate()
    server.wait(timeout=30)


def _fleet(base, uris, *extra, work: Path, tag: str, during=None):
    """Run one fleet worker per store URI; returns their outputs."""
    workers = [
        _spawn(*base, "--store", uri, "--fleet", "--worker-id", f"{tag}{index}",
               "--csv-dir", str(work / f"csv_{tag}{index}"), *extra)
        for index, uri in enumerate(uris)
    ]
    try:
        if during is not None:
            during()
        return [_finish(worker) for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()


def _check_csvs(serial: dict, work: Path, *names: str) -> None:
    for name in names:
        if _csvs(work / f"csv_{name}") != serial:
            raise AssertionError(f"{name}'s CSVs differ from the serial json-dir CSVs")


def _check_writes(outputs, units: int = UNITS) -> None:
    writes = sum(int(_WRITES.search(output).group(1)) for output in outputs)
    if writes != units:
        raise AssertionError(f"the workers wrote {writes} results for {units} units")


def _check_shared_adaptive(scheme: str, work: Path) -> None:
    """Two fleet peers of an adaptive experiment whose configs share one
    round loop: the serial run's CSVs, each planned miss written once."""
    base = ("run", "fig09", "--scale", "tiny", "--adaptive", "--max-runs", "64",
            "--seed-scheme", scheme, "--quiet")
    output = _finish(_spawn(*base, "--store", str(work / "serial_adaptive"),
                            "--csv-dir", str(work / "csv_serial_adaptive")))
    misses = int(_MISSES.search(output).group(1))
    outputs = _fleet(base, [f"sqlite:{work}/fleet_adaptive.db"] * 2, work=work, tag="a")
    _check_writes(outputs, misses)
    _check_csvs(_csvs(work / "csv_serial_adaptive"), work, "a0", "a1")


def _wait_for_a_result(db: Path) -> None:
    """Poll the served file until a result landed (the sweep is running)."""
    import sqlite3

    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        try:
            with sqlite3.connect(f"file:{db}?mode=ro", uri=True) as connection:
                if connection.execute("SELECT COUNT(*) FROM results").fetchone()[0]:
                    return
        except sqlite3.Error:
            pass  # not created yet
        time.sleep(0.05)
    raise AssertionError("no result reached the served store within 120 s")


def run_leg(store: str, scheme: str, work: Path, runs: int = 2) -> None:
    """One store x scheme leg; raises AssertionError on a failed check."""
    base = ("run", "fig07", "--scale", "tiny", "--runs", str(runs),
            "--seed-scheme", scheme, "--quiet")
    _finish(_spawn(*base, "--store", str(work / "serial"),
                   "--csv-dir", str(work / "csv_serial")))
    serial = _csvs(work / "csv_serial")
    db = work / "fleet.db"
    chaos = "rate=0.2&seed={}&burst=2"
    if store == "sqlite":
        _check_writes(_fleet(base, [f"sqlite:{db}"] * 2, work=work, tag="w"))
        # auto kernel threads divide by the same-host peers; 2 is taken as given
        _fleet(base, [f"sqlite:{work}/fleet_t2.db"] * 2, "--kernel-threads", "2",
               work=work, tag="t")
        # Peers running thread pools: auto divides by peers x pool threads.
        _check_writes(_fleet(base, [f"sqlite:{work}/fleet_p2.db"] * 2,
                             "--workers", "2", work=work, tag="p"))
        _check_csvs(serial, work, "w0", "w1", "t0", "t1", "p0", "p1")
        _check_shared_adaptive(scheme, work)
    elif store == "chaos+sqlite":
        uris = [f"chaos+sqlite:{db}?{chaos.format(index + 1)}" for index in range(2)]
        _fleet(base, uris, "--max-retries", "2", work=work, tag="w")
        # A solo sweep buffers its writes and flushes them through put_many;
        # seed 1 tears that flush.  The run budget is below the first
        # adaptive round, so the adaptive grid equals the fixed one.
        solo = f"chaos+sqlite:{work}/solo.db?{chaos.format(1)}"
        output = _finish(_spawn(
            *base, "--adaptive", "--store", solo, "--max-retries", "2",
            "--csv-dir", str(work / "csv_solo"),
        ))
        if "injected fault on put_many" not in output:
            raise AssertionError(f"the solo flush was never torn:\n{output}")
        _check_csvs(serial, work, "w0", "w1", "solo")
    elif store in ("http", "chaos+http"):
        server, port = _serve(db)
        try:
            if store == "http":
                uris = [f"http:127.0.0.1:{port}"] * 2
                outputs = _fleet(base, uris, work=work, tag="w")
            else:
                def restart_server():
                    nonlocal server
                    _wait_for_a_result(db)
                    _stop(server)
                    time.sleep(1)  # dead long enough to hurt
                    server, _ = _serve(db, port)

                uris = [
                    f"chaos+http:127.0.0.1:{port}?{chaos.format(index + 1)}&latency=0.05"
                    for index in range(2)
                ]
                # The raised --store-retries budget rides out the outage.
                outputs = _fleet(
                    base, uris, "--max-retries", "2", "--store-retries", "10",
                    "--lease-ttl", "60", work=work, tag="w", during=restart_server,
                )
        finally:
            _stop(server)
        _check_writes(outputs)
        _check_csvs(serial, work, "w0", "w1")
    else:
        raise ValueError(f"unknown store {store!r}; choose from {', '.join(STORES)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("store", choices=STORES)
    parser.add_argument("scheme")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        try:
            run_leg(args.store, args.scheme, Path(work))
        except AssertionError as error:
            print(f"FAILED {args.store} {args.scheme}: {error}", file=sys.stderr)
            return 1
    print(f"{args.store} {args.scheme}: fleet CSVs bit-identical to serial json-dir")
    return 0


if __name__ == "__main__":
    sys.exit(main())
