"""Keep a sweep's freed buffers in the heap between work units (glibc).

A work unit allocates a few ``(runs, n)`` intermediates -- schedule rows,
loss masks, the flat received array, decoder scratch -- that die with the
unit.  Under glibc's default thresholds, freeing several of them at once
hands their pages back to the kernel, and the next unit faults them in
again: about 139k minor faults in one cold ``run fig09 --scale small
--runs 100``.  :func:`retain_freed_pages`, called before every unit the
runner executes, raises ``M_MMAP_THRESHOLD`` to glibc's 64-bit ceiling and
``M_TRIM_THRESHOLD`` far above any unit's working set, once per process.
Freed blocks then stay in the heap and the next unit reuses them: about
9k faults, at the same peak resident size, since the same blocks were
alive at once before.

The setting is process-wide and lasts for the process: a process's
resident size stays near the peak of its largest sweep instead of
shrinking between sweeps.  Blocks above 32 MiB are still mapped and
unmapped one by one.  Where the C library has no ``mallopt`` (musl,
macOS, Windows) this is a no-op.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameters, from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: glibc ignores larger mmap thresholds on 64-bit hosts.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30

_tuned = False


def retain_freed_pages() -> None:
    """Keep freed heap blocks mapped for reuse (first call in a process only)."""
    global _tuned
    if _tuned:
        return
    _tuned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


__all__ = ["retain_freed_pages"]
