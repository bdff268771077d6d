"""On-demand C extension backend: loop kernels compiled with the system
C compiler.

Three kernels, written in C:

* ``ldgm_peel_batch`` -- inside a compiled kernel the incremental peeling
  algorithm *is* the fast one: each run walks its received sequence once,
  cascading reveals through an explicit stack, so ``n_necessary`` falls
  out of the walk directly (no prefix bisection, no lockstep batching).
  The bookkeeping mirrors the symbolic decoder exactly -- a per-row
  unknown count plus an id *sum* standing in for the XOR accumulator (the
  sum of a single remaining unknown identifies it) -- so results are
  bit-identical.
* ``block_count_batch`` -- the counting rule of RSE and repetition: each
  run walks its received sequence once with a seen-key byte map and a
  per-group missing counter, and stops at the packet that closes its last
  open group.  Where the numpy reference builds a ``(runs, keys)``
  first-arrival table and partitions it, this touches each received
  packet once, with scratch the size of one run's key space.
* ``fill_sojourns`` -- the historical serial Gilbert chain minus the
  geometric draws (the caller draws them, so every backend consumes the
  generator identically).

They are compiled once per machine with ``cc -O2 -shared -fPIC`` into a cache
directory keyed by the source hash, and loaded through :mod:`ctypes` --
no build-time dependency, no pip package, and fully optional: when no C
compiler is available (or the compile fails, e.g. in a sandbox without a
writable cache), importing this module raises ``ImportError`` and the
registry treats the backend as unavailable, with ``auto`` falling back
to the numpy reference.

The per-run loops are row-parallel with OpenMP when the probe compile
with ``-fopenmp`` succeeds; when it fails the build falls back to a
pthread-free serial library with one logged warning (the ``#pragma omp``
lines are inert without the flag, so both builds share one source).
Runs are independent rows -- each writes only its own output slot and
works on per-thread scratch, and there are no cross-run reductions in
these kernels (the lockstep probe reductions live in the numpy backend,
which stays serial) -- so 1 thread and N threads are bit-identical and
the thread count (``REPRO_KERNEL_THREADS`` / ``kernel_threads=`` /
``--kernel-threads``) is a pure wall-clock knob.  ctypes drops the GIL
for the duration of every foreign call, which is what lets thread-
executor workers overlap these kernels on top of kernel threads.

The backend choice is a pure wall-clock knob too: the cross-backend
equivalence suite pins these kernels to the numpy backend and the
incremental decoder.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.kernels.base import NOT_DECODED, KernelBackend, ReceivedBatch
from repro.kernels.threads import current_thread_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype

logger = logging.getLogger("repro.kernels")

#: C source of the kernels.  The cross-backend tests enforce
#: bit-identical behaviour against the numpy backend and the incremental
#: decoder.
#:
#: Without ``-fopenmp`` the pragmas are ignored and ``_OPENMP`` is
#: undefined, so the same source builds the serial fallback library.
#: ``REPRO_POISON_OPENMP`` (injected via ``CFLAGS``) force-fails the
#: OpenMP probe compile only, which is how CI and the degradation test
#: exercise the fallback on machines where OpenMP works.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#ifdef REPRO_POISON_OPENMP
#error "OpenMP probe poisoned (REPRO_POISON_OPENMP in CFLAGS)"
#endif
#endif

int peel_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

void ldgm_peel_batch(
    const int64_t *col_indptr, const int64_t *col_rows,
    const int64_t *init_counts, const int64_t *init_sums,
    const int64_t *flat, const int64_t *offsets, const int64_t *lengths,
    int64_t num_runs, int64_t k, int64_t n, int64_t num_checks,
    int64_t *counts, int64_t *sums, uint8_t *known, int64_t *stack,
    uint8_t *decoded, int64_t *n_necessary, int64_t num_threads)
{
    /* Runs are independent rows: every run writes only decoded[run] /
       n_necessary[run] and works on its thread's private scratch slice,
       so the parallel schedule cannot affect results.  num_threads is
       the caller-resolved team size; scratch is (num_threads, ...). */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        int64_t slot = 0;
#ifdef _OPENMP
        slot = (int64_t)omp_get_thread_num();
#endif
        int64_t *counts_t = counts + slot * num_checks;
        int64_t *sums_t = sums + slot * num_checks;
        uint8_t *known_t = known + slot * n;
        int64_t *stack_t = stack + slot * (num_checks + 2);
        memcpy(counts_t, init_counts, (size_t)num_checks * sizeof(int64_t));
        memcpy(sums_t, init_sums, (size_t)num_checks * sizeof(int64_t));
        memset(known_t, 0, (size_t)n);
        int64_t sources = 0;
        int64_t start = offsets[run];
        int64_t end = start + lengths[run];
        int complete = 0;
        for (int64_t pos = start; pos < end && !complete; pos++) {
            int64_t node = flat[pos];
            if (known_t[node])
                continue; /* duplicate or already recovered: a no-op */
            int64_t top = 0;
            stack_t[0] = node;
            while (top >= 0) {
                int64_t v = stack_t[top--];
                if (known_t[v])
                    continue;
                known_t[v] = 1;
                if (v < k && ++sources == k) {
                    /* all sources recovered: stop mid-cascade, like the
                       incremental decoder's early return */
                    n_necessary[run] = pos - start + 1;
                    complete = 1;
                    break;
                }
                for (int64_t e = col_indptr[v]; e < col_indptr[v + 1]; e++) {
                    int64_t r = col_rows[e];
                    counts_t[r] -= 1;
                    sums_t[r] -= v;
                    if (counts_t[r] == 1) {
                        /* one unknown left: its id sum IS the node */
                        int64_t u = sums_t[r];
                        if (!known_t[u])
                            stack_t[++top] = u;
                    }
                }
            }
        }
        decoded[run] = (uint8_t)complete;
    }
}

void block_count_batch(
    const int64_t *group_of_key, const int64_t *needed,
    int64_t key_modulus, int64_t num_groups,
    const int64_t *flat, const int64_t *offsets, const int64_t *lengths,
    int64_t num_runs, uint8_t *seen, int64_t seen_stride,
    int64_t *missing, int64_t missing_stride,
    uint8_t *decoded, int64_t *n_necessary, int64_t num_threads)
{
    /* Row-parallel like the peel: per-thread seen/missing scratch rows
       (strides padded by the caller so no two threads share a cache
       line), one output slot per run.  A group needing more keys than it
       has never closes.  Indices are range-checked by the caller. */
    int64_t open_groups = 0;
    for (int64_t group = 0; group < num_groups; group++)
        open_groups += needed[group] > 0;
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        int64_t slot = 0;
#ifdef _OPENMP
        slot = (int64_t)omp_get_thread_num();
#endif
        uint8_t *seen_t = seen + slot * seen_stride;
        int64_t *missing_t = missing + slot * missing_stride;
        memset(seen_t, 0, (size_t)key_modulus);
        memcpy(missing_t, needed, (size_t)num_groups * sizeof(int64_t));
        int64_t open = open_groups;
        int64_t start = offsets[run];
        int64_t end = start + lengths[run];
        int64_t pos = start;
        for (; pos < end && open > 0; pos++) {
            int64_t key = flat[pos];
            /* Branch-free first wrap (a random repetition order would
               mispredict a branch half the time); the division is only
               reached beyond two copies per key. */
            key -= key_modulus & -(int64_t)(key >= key_modulus);
            if (key >= key_modulus)
                key %= key_modulus;
            if (seen_t[key])
                continue;
            seen_t[key] = 1;
            int64_t group = group_of_key[key];
            if (missing_t[group] > 0 && --missing_t[group] == 0)
                open--;
        }
        decoded[run] = (uint8_t)(open == 0);
        /* pos is one past the closing packet: its 1-based position. */
        n_necessary[run] = open == 0 ? pos - start : -1;
    }
}

int64_t fill_sojourns(
    uint8_t *mask, int64_t filled, int64_t count, int in_loss_state,
    const int64_t *gap_runs, const int64_t *burst_runs, int64_t batch)
{
    int state = in_loss_state;
    for (int64_t i = 0; i < batch; i++) {
        int64_t length = state ? burst_runs[i] : gap_runs[i];
        int64_t remaining = count - filled;
        if (length > remaining)
            length = remaining;
        memset(mask + filled, state, (size_t)length);
        filled += length;
        state = !state;
        if (filled >= count)
            break;
    }
    return filled;
}

void fill_sojourns_batch(
    uint8_t *masks, int64_t count, const uint8_t *states,
    const int64_t *gap_runs, const int64_t *burst_runs,
    int64_t num_runs, int64_t batch, int64_t *filled_out,
    int64_t num_threads)
{
    /* Row-parallel like the peel: each run fills its own mask row and
       filled_out slot from its own sojourn columns, no shared state. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        filled_out[run] = fill_sojourns(
            masks + run * count, 0, count, states[run],
            gap_runs + run * batch, burst_runs + run * batch, batch);
    }
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def compiler() -> str | None:
    """The C compiler used for the extension, or None when absent."""
    return shutil.which(os.environ.get("CC", "").strip() or "cc")


def _extra_cflags() -> list[str]:
    """User/CI-supplied compile flags (``CFLAGS``), applied to both builds.

    This is also the OpenMP-probe poison hook: ``-DREPRO_POISON_OPENMP``
    makes the ``-fopenmp`` probe compile fail by construction while the
    serial fallback (where ``_OPENMP`` is undefined) still builds.
    """
    return shlex.split(os.environ.get("CFLAGS", ""))


def _compile(cc: str, source: Path, artefact: Path, *, openmp: bool):
    command = [cc, "-O2", "-shared", "-fPIC"]
    if openmp:
        command.append("-fopenmp")
    command += [*_extra_cflags(), "-o", str(artefact), str(source)]
    return subprocess.run(command, capture_output=True, text=True)


def _build_library() -> Path:
    """Compile the kernels into the cache (once per source revision).

    The OpenMP build (``-fopenmp``) is probed first; when the probe
    compile fails -- no libgomp, a compiler without OpenMP support, a
    poisoned ``CFLAGS`` -- one warning is logged and the same source is
    rebuilt serial (the pragmas are inert without the flag), so the
    backend degrades to single-threaded kernels instead of disappearing.
    The cache name encodes source + ``CFLAGS`` + variant, so a cached
    serial fallback never masks an OpenMP build from a different
    environment (and vice versa).

    Every environment failure -- no compiler, compile error, unwritable
    cache directory -- surfaces as ``ImportError`` so the registry treats
    the backend as unavailable and ``auto`` degrades to numpy instead of
    crashing the decode.
    """
    cc = compiler()
    if cc is None:
        raise ImportError("no C compiler (cc) on PATH for the cext backend")
    seed = "\x00".join([_C_SOURCE, *_extra_cflags()])
    digest = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]
    cache = _cache_dir()
    omp_target = cache / f"peel-{digest}-omp.so"
    serial_target = cache / f"peel-{digest}-serial.so"
    try:
        if omp_target.exists():
            return omp_target
        if serial_target.exists():
            # A previous probe in this environment already failed; stay
            # serial without recompiling (the warning still fires at
            # load time, once per process).
            return serial_target
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as build_dir:
            source = Path(build_dir) / "peel.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            artefact = Path(build_dir) / "peel.so"
            probe = _compile(cc, source, artefact, openmp=True)
            if probe.returncode == 0:
                # Atomic publish so concurrent processes never load a
                # half-written library; losing the race is fine, the
                # content is identical.
                os.replace(artefact, omp_target)
                return omp_target
            _warn_openmp_unavailable(
                f"probe compile with -fopenmp failed: {probe.stderr.strip()}"
            )
            result = _compile(cc, source, artefact, openmp=False)
            if result.returncode != 0:
                raise ImportError(
                    f"C compile of the cext kernels failed: {result.stderr.strip()}"
                )
            os.replace(artefact, serial_target)
            return serial_target
    except OSError as exc:
        raise ImportError(f"cext kernel build failed: {exc}") from exc


_openmp_warned = False


def _warn_openmp_unavailable(detail: str) -> None:
    """One warning per process when the threaded build is unavailable.

    Degradation must be loud but never fatal and never result-changing:
    the serial kernels are bit-identical, only slower.
    """
    global _openmp_warned
    if _openmp_warned:
        return
    _openmp_warned = True
    logger.warning(
        "cext OpenMP unavailable (%s); serving single-threaded cext kernels "
        "(results unchanged, kernel_threads forced to 1)",
        detail,
    )


def _load_library() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(_build_library()))
    except OSError as exc:
        raise ImportError(f"cext kernel library failed to load: {exc}") from exc
    lib.peel_openmp.restype = ctypes.c_int
    lib.peel_openmp.argtypes = []
    lib.ldgm_peel_batch.restype = None
    lib.ldgm_peel_batch.argtypes = [
        _I64, _I64, _I64, _I64, _I64, _I64, _I64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _U8, _I64, _U8, _I64, ctypes.c_int64,
    ]
    lib.block_count_batch.restype = None
    lib.block_count_batch.argtypes = [
        _I64, _I64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _I64, ctypes.c_int64, _U8, ctypes.c_int64,
        _I64, ctypes.c_int64, _U8, _I64, ctypes.c_int64,
    ]
    lib.fill_sojourns.restype = ctypes.c_int64
    lib.fill_sojourns.argtypes = [
        _U8, ctypes.c_int64, ctypes.c_int64, ctypes.c_int,
        _I64, _I64, ctypes.c_int64,
    ]
    lib.fill_sojourns_batch.restype = None
    lib.fill_sojourns_batch.argtypes = [
        _U8, ctypes.c_int64, _U8, _I64, _I64,
        ctypes.c_int64, ctypes.c_int64, _I64, ctypes.c_int64,
    ]
    if not lib.peel_openmp():
        _warn_openmp_unavailable("library built without OpenMP")
    return lib


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _cache_lines(nbytes: int) -> int:
    """``nbytes`` rounded up to whole 64-byte cache lines."""
    return -(-nbytes // 64) * 64


class CExtBackend(KernelBackend):
    """Loop kernels compiled on demand with the system C compiler.

    The batch kernels run row-parallel over runs when the library was
    built with OpenMP; the team size comes from the active
    ``kernel_threads`` resolution (:func:`~repro.kernels.threads.current_thread_count`)
    at call time, clamped to the batch size.  A serial-fallback library
    pins it to 1.  Either way the results are bit-identical -- threads
    are a wall-clock knob, like the backend choice itself.
    """

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_library()
        #: Whether the loaded library was built with OpenMP (provenance).
        self.openmp = bool(self._lib.peel_openmp())

    def _team_size(self, num_runs: int) -> int:
        if not self.openmp:
            return 1
        return max(1, min(current_thread_count(), num_runs))

    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=np.uint8)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        if batch.flat.size:
            num_checks = prototype.num_checks
            threads = self._team_size(num_runs)
            # One scratch slice per thread: rows of these (threads, ...)
            # arrays are private to their OpenMP thread, which is what
            # keeps N-thread peeling bit-identical to 1-thread.
            counts = np.empty((threads, num_checks), dtype=np.int64)
            sums = np.empty((threads, num_checks), dtype=np.int64)
            known = np.empty((threads, prototype.n), dtype=np.uint8)
            stack = np.empty((threads, num_checks + 2), dtype=np.int64)
            flat = _i64(batch.flat)
            offsets = _i64(batch.offsets)
            lengths = _i64(batch.lengths)
            self._lib.ldgm_peel_batch(
                prototype.col_indptr.ctypes.data_as(_I64),
                prototype.col_rows.ctypes.data_as(_I64),
                prototype.row_degrees.ctypes.data_as(_I64),
                prototype.row_sums.ctypes.data_as(_I64),
                flat.ctypes.data_as(_I64),
                offsets.ctypes.data_as(_I64),
                lengths.ctypes.data_as(_I64),
                num_runs,
                prototype.k,
                prototype.n,
                num_checks,
                counts.ctypes.data_as(_I64),
                sums.ctypes.data_as(_I64),
                known.ctypes.data_as(_U8),
                stack.ctypes.data_as(_I64),
                decoded.ctypes.data_as(_U8),
                n_necessary.ctypes.data_as(_I64),
                threads,
            )
        return decoded.astype(bool), n_necessary

    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        batch.check_index_range(prototype.n)
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=np.uint8)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        if num_runs:
            threads = self._team_size(num_runs)
            # Per-thread scratch rows, as in the peel, padded to whole
            # cache lines: the per-group counters are tiny and would
            # otherwise share one line across threads.
            seen = np.empty((threads, _cache_lines(prototype.key_modulus)), dtype=np.uint8)
            missing = np.empty(
                (threads, _cache_lines(8 * prototype.num_groups) // 8), dtype=np.int64
            )
            flat = _i64(batch.flat)
            offsets = _i64(batch.offsets)
            lengths = _i64(batch.lengths)
            self._lib.block_count_batch(
                prototype.group_of_key.ctypes.data_as(_I64),
                prototype.needed.ctypes.data_as(_I64),
                prototype.key_modulus,
                prototype.num_groups,
                flat.ctypes.data_as(_I64),
                offsets.ctypes.data_as(_I64),
                lengths.ctypes.data_as(_I64),
                num_runs,
                seen.ctypes.data_as(_U8),
                seen.shape[1],
                missing.ctypes.data_as(_I64),
                missing.shape[1],
                decoded.ctypes.data_as(_U8),
                n_necessary.ctypes.data_as(_I64),
                threads,
            )
        return decoded.astype(bool), n_necessary

    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        return int(
            self._lib.fill_sojourns(
                mask.ctypes.data_as(_U8),
                int(filled),
                int(mask.shape[0]),
                int(bool(in_loss_state)),
                _i64(gap_runs).ctypes.data_as(_I64),
                _i64(burst_runs).ctypes.data_as(_I64),
                int(gap_runs.shape[0]),
            )
        )

    def fill_sojourns_batch(
        self,
        masks: np.ndarray,
        states: np.ndarray,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> np.ndarray:
        # One C call fills every row: the per-row ctypes marshalling of the
        # loop default (~20 us/run) is what this kernel exists to remove.
        num_runs, count = masks.shape
        filled = np.empty(num_runs, dtype=np.int64)
        if not masks.flags.c_contiguous:  # pragma: no cover - caller allocates
            return super().fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        if num_runs:
            self._lib.fill_sojourns_batch(
                # A view, not a copy: the C rows must land in the caller's
                # array (bool and uint8 share the memory layout).
                masks.view(np.uint8).ctypes.data_as(_U8),
                int(count),
                np.ascontiguousarray(states, dtype=np.uint8).ctypes.data_as(_U8),
                _i64(gap_runs).ctypes.data_as(_I64),
                _i64(burst_runs).ctypes.data_as(_I64),
                int(num_runs),
                int(gap_runs.shape[1]),
                filled.ctypes.data_as(_I64),
                self._team_size(num_runs),
            )
        return filled


__all__ = ["CExtBackend", "compiler"]
