"""On-demand C extension backend: loop kernels compiled with the system
C compiler.

The kernels, written in C:

* ``ldgm_peel_batch`` -- inside a compiled kernel the incremental peeling
  algorithm *is* the fast one: each run walks its received sequence once,
  cascading reveals through an explicit stack, so ``n_necessary`` falls
  out of the walk directly.
  The bookkeeping mirrors the symbolic decoder exactly -- a per-row
  unknown count plus an id *sum* standing in for the XOR accumulator (the
  sum of a single remaining unknown identifies it), kept together as one
  8-byte pair per row -- so results are bit-identical.
* ``block_count_batch`` -- the counting rule of RSE and repetition: each
  run walks its received sequence once with a seen-key byte map and a
  per-group missing counter, and stops at the packet that closes its last
  open group.  Where the numpy reference builds a ``(runs, keys)``
  first-arrival table and partitions it, this touches each received
  packet once, with scratch the size of one run's key space.
* ``fill_sojourns`` / ``fill_sojourns_batch`` -- the historical serial
  Gilbert chain minus the geometric draws.
* ``gather_count`` / ``gather_write`` -- the received-batch assembly:
  each run's kept mask slots are counted and prefix-summed, then its
  surviving schedule entries are written straight into the flat
  :class:`~repro.kernels.ReceivedBatch` array, range-checking each
  received index as it is stored.  Both read their inputs through a row
  stride, so broadcast rows and column-sliced views are never copied.
* ``gilbert_draw_batch`` -- those draws: each run's initial state and
  sojourn batches, taken from the run's own generator through numpy's
  C core (``libnpyrandom``: ``random_standard_exponential``,
  ``random_geometric_search`` and the bit generator's ``next_double``,
  the functions behind ``Generator.geometric`` and ``Generator.random``),
  so every generator is consumed exactly as the Python draw loop
  consumes it.  Only ``random_geometric``'s three-line dispatch is
  restated, to take its ``log1p(-p)`` once per batch instead of per draw.
* ``stream_seed_batch`` and ``stream_shuffle_batch`` (and
  ``gilbert_draw_batch`` on stream rows) -- the per-run streams of a
  :class:`~repro.seeds.RunStreams` block without any Python generator:
  numpy's ``SeedSequence`` pool hash and ``PCG64`` seeding and stepping
  are ported (small integer routines; the generator is O'Neill's PCG,
  a 128-bit LCG with an XSL-RR output), and so is ``random_interval``
  (the Fisher-Yates step of ``Generator.shuffle``), inlined on the
  stream state; each ``(runs, 6)`` state row is wrapped in a stack
  ``bitgen_t`` for the geometric draws.  A load-time self-check compares
  a C-seeded state, a shuffle and geometric draws on both branches with
  ``np.random.PCG64``; the Gilbert draw kernel runs only once it passed.
  The shuffle copies a template row into each row first, so a row is
  written by the thread that shuffles it, while it is in that thread's
  cache.

They are compiled once per machine with ``cc -O2 -shared -fPIC`` into a cache
directory keyed by the source hash, the compiler and the numpy build, and
loaded through :mod:`ctypes` --
no build-time dependency, no pip package, and fully optional: when no C
compiler is available (or the compile fails, e.g. in a sandbox without a
writable cache), importing this module raises ``ImportError`` and the
registry treats the backend as unavailable, with ``auto`` falling back
to the numpy reference.

The per-run loops are row-parallel with OpenMP when the probe compile
with ``-fopenmp`` succeeds; when it fails the build falls back to a
pthread-free serial library with one logged warning (the ``#pragma omp``
lines are inert without the flag, so both builds share one source).
The ``libnpyrandom`` link is probed the same way: without it the library
builds without the draw and stream kernels and the backend serves the
Python generators and draw loop, again with one warning and identical
results; a failed stream self-check degrades the same way.
Runs are independent rows -- each writes only its own output slot and
works on per-thread scratch, and the only cross-run reduction is the
gather's order-free "any index out of range" flag -- so 1 thread and N
threads are bit-identical and the thread count (``REPRO_KERNEL_THREADS``
/ ``kernel_scope(threads=)`` / ``--kernel-threads``) is a pure wall-clock
knob.  ctypes drops the GIL
for the duration of every foreign call, which is what lets thread-
executor workers overlap these kernels on top of kernel threads.

The backend choice is a pure wall-clock knob too: the cross-backend
equivalence suite pins these kernels to the numpy backend and the
incremental decoder.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.kernels.base import NOT_DECODED, KernelBackend, ReceivedBatch
from repro.kernels.threads import current_thread_count
from repro.seeds.schemes import RunStreams, entropy_words, pcg64_state

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
#: exercise the fallback on machines where OpenMP works.  Likewise the
#: Gilbert draw and per-run stream kernels are compiled only under
#: ``REPRO_NPYRANDOM`` (set by the build that links ``libnpyrandom``), and
#: ``REPRO_POISON_NPYRANDOM`` force-fails that build.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#ifdef REPRO_POISON_OPENMP
#error "OpenMP probe poisoned (REPRO_POISON_OPENMP in CFLAGS)"
#endif
#endif

#ifdef REPRO_NPYRANDOM
#include <math.h>
#include "numpy/random/bitgen.h"
#ifdef REPRO_POISON_NPYRANDOM
#error "libnpyrandom probe poisoned (REPRO_POISON_NPYRANDOM in CFLAGS)"
#endif
/* The two halves of numpy's geometric sampler (Generator.geometric) and
   its standard exponential; declared here because
   numpy/random/distributions.h pulls in Python.h. */
int64_t random_geometric_search(bitgen_t *bitgen_state, double p);
double random_standard_exponential(bitgen_t *bitgen_state);
#endif

int peel_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

int peel_npyrandom(void)
{
#ifdef REPRO_NPYRANDOM
    return 1;
#else
    return 0;
#endif
}

/* One check's peeling state, kept together so an edge touches one cache
   line: its unknown count and the sum of its unknown ids.  The sum wraps
   mod 2**32 (unsigned, so the wrap is defined) and is still exact when
   one unknown is left, because every id is below n < 2**32. */
typedef struct {
    int32_t count;
    uint32_t sum;
} check_t;

void ldgm_peel_batch(
    const int64_t *col_indptr, const int64_t *col_rows, const check_t *init_checks,
    const int64_t *flat, const int64_t *offsets, const int64_t *lengths,
    int64_t num_runs, int64_t k, int64_t n, int64_t num_checks,
    check_t *checks, uint8_t *known, int64_t *stack,
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
        check_t *checks_t = checks + slot * num_checks;
        uint8_t *known_t = known + slot * n;
        int64_t *stack_t = stack + slot * (num_checks + 2);
        memcpy(checks_t, init_checks, (size_t)num_checks * sizeof(check_t));
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
                    check_t *check = checks_t + col_rows[e];
                    check->count -= 1;
                    check->sum -= (uint32_t)v;
                    if (check->count == 1) {
                        /* one unknown left: its id sum IS the node */
                        int64_t u = (int64_t)check->sum;
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

static inline int64_t lost_in_word(const uint8_t *mask)
{
    /* Lost (non-zero) bytes among mask[0..8): each byte's high bit is set
       iff the byte is non-zero, and the eight 0/1 flags are summed into
       the top byte by one multiply. */
    const uint64_t low7 = 0x7f7f7f7f7f7f7f7fULL;
    uint64_t word;
    memcpy(&word, mask, sizeof word);
    uint64_t flags = ((((word & low7) + low7) | word) >> 7) & 0x0101010101010101ULL;
    return (int64_t)((flags * 0x0101010101010101ULL) >> 56);
}

int64_t gather_count(
    const uint8_t *loss, int64_t loss_stride, int64_t num_runs, int64_t width,
    int64_t *lengths, int64_t *offsets, int64_t num_threads)
{
    /* Kept (zero) mask bytes of each run and their exclusive prefix sum;
       returns the total.  Row r of the mask starts at r * loss_stride, so
       a broadcast mask (stride 0) is counted once. */
    int64_t rows = loss_stride ? num_runs : (num_runs > 0);
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < rows; run++) {
        const uint8_t *mask = loss + run * loss_stride;
        int64_t lost = 0, j = 0;
        for (; j + 8 <= width; j += 8)
            lost += lost_in_word(mask + j);
        for (; j < width; j++)
            lost += mask[j] != 0;
        lengths[run] = width - lost;
    }
    int64_t total = 0;
    for (int64_t run = 0; run < num_runs; run++) {
        lengths[run] = lengths[loss_stride ? run : 0];
        offsets[run] = total;
        total += lengths[run];
    }
    return total;
}

static int index_outside(const int64_t *row, int64_t width, int64_t n)
{
    /* One unsigned compare catches both negative and too-large ids. */
    uint64_t bad = 0;
    for (int64_t j = 0; j < width; j++)
        bad |= (uint64_t)row[j] >= (uint64_t)n;
    return bad != 0;
}

int gather_write(
    const int64_t *schedules, int64_t schedule_stride,
    const uint8_t *loss, int64_t loss_stride,
    int64_t num_runs, int64_t width, int64_t n,
    const int64_t *lengths, const int64_t *offsets, int64_t *flat,
    int64_t num_threads)
{
    /* Run r writes the schedule entries of its kept slots, in order, to
       flat[offsets[r] .. offsets[r] + lengths[r]) -- disjoint output
       ranges, so the row-parallel schedule cannot affect results.  Strides
       are in elements; a broadcast row has stride 0.  Returns whether a
       *received* index lies outside [0, n): a broadcast schedule row found
       in range is checked once here instead of once per run. */
    int checked = schedule_stride == 0 && num_runs > 0
        && !index_outside(schedules, width, n);
    int outside = 0;
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads) reduction(|:outside)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        const int64_t *row = schedules + run * schedule_stride;
        const uint8_t *mask = loss + run * loss_stride;
        int64_t *out = flat + offsets[run];
        int64_t length = lengths[run];
        if (length == width) {
            memcpy(out, row, (size_t)width * sizeof(int64_t));
            if (!checked)
                outside |= index_outside(row, width, n);
            continue;
        }
        /* Branch-free compaction (burst edges would mispredict a branch):
           every slot is stored at out[pos] and only a kept one advances
           pos, so a lost entry is overwritten by the next kept one.  The
           loop ends with the row's last kept slot, which keeps every store
           inside the row's own output range. */
        uint64_t bad = 0;
        for (int64_t j = 0, pos = 0; pos < length; j++) {
            int64_t value = row[j];
            uint64_t keep = mask[j] == 0;
            out[pos] = value;
            bad |= keep & ((uint64_t)value >= (uint64_t)n);
            pos += (int64_t)keep;
        }
        if (!checked)
            outside |= bad != 0;
    }
    return outside;
}

#ifdef REPRO_NPYRANDOM
static void draw_geometric(bitgen_t *bitgen, double p, int64_t *out, int64_t size)
{
    /* numpy's random_geometric element by element: the search for
       p >= 1/3, otherwise inversion, ceil(-E / log1p(-p)) capped at
       INT64_MAX (9.223372036854776e+18 is the smallest double above it).
       The inversion's log1p(-p) is taken once per call, not per draw. */
    if (p >= 0.333333333333333333333333) {
        for (int64_t i = 0; i < size; i++)
            out[i] = random_geometric_search(bitgen, p);
        return;
    }
    const double denom = log1p(-p);
    for (int64_t i = 0; i < size; i++) {
        double z = ceil(-random_standard_exponential(bitgen) / denom);
        out[i] = z >= 9.223372036854776e+18 ? INT64_MAX : (int64_t)z;
    }
}

static void gilbert_draw_run(
    bitgen_t *bitgen, int64_t count, double loss_probability, double p,
    double q, int64_t batch, uint8_t *state_out, int64_t *gap,
    int64_t *burst, uint8_t *mask, int64_t *scratch)
{
    /* One run, in the serial chain's order: the initial-state uniform
       (Generator.random), then batch gap and batch burst sojourns per
       round (two Generator.geometric calls).  Continuation rounds use the
       caller's scratch row of 2 * batch sojourns. */
    int state = bitgen->next_double(bitgen->state) < loss_probability;
    *state_out = (uint8_t)state;
    draw_geometric(bitgen, p, gap, batch);
    draw_geometric(bitgen, q, burst, batch);
    /* Sojourn i is a burst in the loss state, a gap otherwise, the state
       toggling after each one; capping at count keeps saturated draws
       (near INT64_MAX) from overflowing the sum. */
    int64_t covered = 0;
    for (int64_t i = 0; i < batch && covered < count; i++) {
        int64_t length = (state ^ (int)(i & 1)) ? burst[i] : gap[i];
        covered += length < count ? length : count;
    }
    /* A short first round held no capped sojourn, so the caller's
       fill_sojourns_batch covers exactly [0, covered): the continuation
       rounds fill the disjoint tail. */
    while (covered < count) {
        draw_geometric(bitgen, p, scratch, batch);
        draw_geometric(bitgen, q, scratch + batch, batch);
        covered = fill_sojourns(mask, covered, count, state, scratch, scratch + batch, batch);
    }
}

/* ---- Per-run streams: numpy's SeedSequence and PCG64, ported. ----

   A stream is one row of six uint64 words: the 128-bit LCG state (high,
   low), the 128-bit increment (high, low), has_uint32 and uinteger --
   exactly the fields of PCG64.state.  A row is loaded into a stack
   stream_t, wrapped in a bitgen_t so that libnpyrandom's samplers run on
   it unchanged, and stored back when the row's draws are done. */

typedef unsigned __int128 u128;

#define PCG_MULTIPLIER ((((u128)2549297995355413924ULL) << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} stream_t;

static inline uint64_t stream_next64(void *st)
{
    /* PCG64: step the LCG, then the XSL-RR output of the new state. */
    stream_t *s = (stream_t *)st;
    s->state = s->state * PCG_MULTIPLIER + s->inc;
    uint64_t high = (uint64_t)(s->state >> 64);
    uint64_t folded = high ^ (uint64_t)s->state;
    unsigned rot = (unsigned)(high >> 58);
    return (folded >> rot) | (folded << ((64u - rot) & 63u));
}

static uint32_t stream_next32(void *st)
{
    /* numpy's buffering: the high half of a 64-bit draw is kept for the
       next call. */
    stream_t *s = (stream_t *)st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t next = stream_next64(st);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double stream_next_double(void *st)
{
    return (double)(stream_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

static inline uint64_t stream_interval(stream_t *s, uint64_t max)
{
    /* numpy's random_interval, the swap partner of Generator.shuffle:
       masked draws until one is <= max, under the smallest all-ones mask
       >= max; 32-bit draws while max fits in 32 bits.  Inlined on the
       stream instead of called through bitgen_t function pointers. */
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (stream_next32(s) & mask)) > max)
            ;
    } else {
        while ((value = (stream_next64(s) & mask)) > max)
            ;
    }
    return value;
}

static void stream_load(const uint64_t *row, stream_t *s, bitgen_t *bitgen)
{
    s->state = ((u128)row[0] << 64) | row[1];
    s->inc = ((u128)row[2] << 64) | row[3];
    s->has_uint32 = (int)row[4];
    s->uinteger = (uint32_t)row[5];
    bitgen->state = s;
    bitgen->next_uint64 = stream_next64;
    bitgen->next_uint32 = stream_next32;
    bitgen->next_double = stream_next_double;
    bitgen->next_raw = stream_next64;
}

static void stream_store(const stream_t *s, uint64_t *row)
{
    row[0] = (uint64_t)(s->state >> 64);
    row[1] = (uint64_t)s->state;
    row[2] = (uint64_t)(s->inc >> 64);
    row[3] = (uint64_t)s->inc;
    row[4] = (uint64_t)s->has_uint32;
    row[5] = (uint64_t)s->uinteger;
}

static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

static void stream_seed(const uint32_t *prefix, int64_t prefix_len, uint64_t run, uint64_t *row)
{
    /* SeedSequence([*prefix, run]).generate_state(4, uint64), then
       pcg64_set_seed: the entropy is prefix's 32-bit words followed by
       run's (one word, two from 2**32 on), mixed into a 4-word pool. */
    uint32_t run_words[2] = {(uint32_t)run, (uint32_t)(run >> 32)};
    int64_t total = prefix_len + (run >> 32 ? 2 : 1);
#define ENTROPY(i) ((i) < prefix_len ? prefix[i] : run_words[(i) - prefix_len])
    uint32_t pool[4];
    uint32_t hash_const = 0x43b0d7e5u;
    for (int64_t i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < total ? ENTROPY(i) : 0u, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash_const));
    for (int64_t src = 4; src < total; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(ENTROPY(src), &hash_const));
#undef ENTROPY
    uint64_t words[4];
    hash_const = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash_const;
        hash_const *= 0x58f38dedu;
        value *= hash_const;
        value ^= value >> 16;
        if (i % 2)
            words[i / 2] |= (uint64_t)value << 32;
        else
            words[i / 2] = value;
    }
    stream_t s;
    s.state = 0;
    s.inc = ((((u128)words[2] << 64) | words[3]) << 1) | 1u;
    stream_next64(&s);
    s.state += ((u128)words[0] << 64) | words[1];
    stream_next64(&s);
    s.has_uint32 = 0;
    s.uinteger = 0;
    stream_store(&s, row);
}

void stream_seed_batch(
    const uint32_t *prefix, int64_t prefix_len, int64_t run_start,
    int64_t num_runs, uint64_t *states, int64_t num_threads)
{
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++)
        stream_seed(prefix, prefix_len, (uint64_t)(run_start + run), states + 6 * run);
}

void stream_shuffle_batch(
    uint64_t *states, int64_t *rows, int64_t num_runs, int64_t width,
    int64_t start, const int64_t *template_row, int64_t num_threads)
{
    /* Generator.shuffle on rows[run, start:]: Fisher-Yates from the last
       position down to 1, each swap partner drawn by random_interval.
       The row is first copied from template_row by the thread that
       shuffles it, while it is hot in that thread's cache. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        stream_t s;
        bitgen_t bitgen;
        stream_load(states + 6 * run, &s, &bitgen);
        memcpy(rows + run * width, template_row, (size_t)width * sizeof(int64_t));
        int64_t *segment = rows + run * width + start;
        for (int64_t i = width - start - 1; i > 0; i--) {
            int64_t j = (int64_t)stream_interval(&s, (uint64_t)i);
            int64_t swap = segment[j];
            segment[j] = segment[i];
            segment[i] = swap;
        }
        stream_store(&s, states + 6 * run);
    }
}

void gilbert_draw_batch(
    bitgen_t *const *bitgens, uint64_t *streams, int64_t num_runs,
    int64_t count, double loss_probability, double p, double q,
    int64_t batch, uint8_t *states, int64_t *gap_runs, int64_t *burst_runs,
    uint8_t *masks, int64_t *scratch, int64_t num_threads)
{
    /* Run r draws only from its own source: bitgens[r], or stream row r
       when streams is non-NULL.  Rows are independent when the sources
       are pairwise distinct (stream rows always are); the caller passes a
       team of 1 when generators are shared, which keeps the serial
       interleaving. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        int64_t slot = 0;
#ifdef _OPENMP
        slot = (int64_t)omp_get_thread_num();
#endif
        stream_t s;
        bitgen_t row;
        bitgen_t *bitgen = bitgens ? bitgens[run] : &row;
        if (streams)
            stream_load(streams + 6 * run, &s, &row);
        gilbert_draw_run(
            bitgen, count, loss_probability, p, q, batch, states + run,
            gap_runs + run * batch, burst_runs + run * batch,
            masks + run * count, scratch + slot * 2 * batch);
        if (streams)
            stream_store(&s, streams + 6 * run);
    }
}
#endif
"""

#: Every array argument is declared ``void *`` and passed as
#: ``array.ctypes.data``, a plain address (about half the cost of
#: ``data_as``).  An address does not keep its array alive, so every array
#: passed to a kernel -- converted copies above all -- is bound to a local
#: name that outlives the call.
_P = ctypes.c_void_p
_I = ctypes.c_int64

#: ``PyCapsule_GetPointer`` with its own prototype (the shared
#: ``ctypes.pythonapi`` attribute is left untouched): the ``bitgen_t *``
#: inside a bit generator's ``capsule``, ~1 us per generator.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def compiler() -> str | None:
    """The C compiler used for the extension, or None when absent."""
    return shutil.which(os.environ.get("CC", "").strip() or "cc")


def _extra_cflags() -> list[str]:
    """User/CI-supplied compile flags (``CFLAGS``), applied to every build.

    This is also the probe poison hook: ``-DREPRO_POISON_OPENMP`` makes
    every ``-fopenmp`` build fail by construction and
    ``-DREPRO_POISON_NPYRANDOM`` every ``libnpyrandom`` build, while the
    builds without the feature (where the guarding macro is undefined)
    still compile.
    """
    return shlex.split(os.environ.get("CFLAGS", ""))


def _npyrandom_dir() -> Path:
    """Directory of numpy's static ``libnpyrandom.a``, the C core of ``Generator``."""
    return Path(np.__file__).parent / "random" / "lib"


#: Optional build features, each a (compile flags, link flags) pair.
_FEATURE_FLAGS = {
    "omp": (["-fopenmp"], []),
    "npy": (
        ["-DREPRO_NPYRANDOM", "-I", np.get_include()],
        ["-L", str(_npyrandom_dir()), "-lnpyrandom", "-lm"],
    ),
}

#: Library variants in order of preference; the first that compiles wins.
_VARIANTS = (("omp", "npy"), ("omp",), ("npy",), ())

#: What the library loses without each feature (for the fallback warning).
_FALLBACKS = {
    "omp": "OpenMP unavailable (%s); serving single-threaded cext kernels "
    "(results unchanged, kernel_threads forced to 1)",
    "npy": "libnpyrandom link unavailable (%s); per-run streams are numpy "
    "Generators and Gilbert sojourns are drawn by the Python loop (results "
    "unchanged)",
    "streams": "per-run stream self-check failed (%s); per-run streams are "
    "numpy Generators (results unchanged)",
}


def _compile(cc: str, source: Path, artefact: Path, features: tuple):
    cflags = [flag for feature in features for flag in _FEATURE_FLAGS[feature][0]]
    ldflags = [flag for feature in features for flag in _FEATURE_FLAGS[feature][1]]
    command = [cc, "-O2", "-shared", "-fPIC", *cflags, *_extra_cflags()]
    command += ["-o", str(artefact), str(source), *ldflags]
    return subprocess.run(command, capture_output=True, text=True)


def _library_digest(cc: str) -> str:
    """Cache key of the library: everything that can change its code or draws.

    The source and ``CFLAGS``, the resolved compiler, and the numpy build
    whose ``libnpyrandom`` gets linked in (a library linked against
    another numpy could draw differently from ``Generator``).
    """
    seed = "\x00".join(
        [_C_SOURCE, cc, np.__version__, str(_npyrandom_dir()), *_extra_cflags()]
    )
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]


def _build_library() -> Path:
    """Compile the kernels into the cache (once per source revision).

    The variants of :data:`_VARIANTS` are tried in order: OpenMP with the
    ``libnpyrandom`` link, then without one feature, then neither.  A
    feature the winning build lacks -- no libgomp, a compiler without
    OpenMP support, no ``libnpyrandom.a`` in the numpy install, a poisoned
    ``CFLAGS`` -- logs one warning with the failed compile's error, and
    the backend degrades (single-threaded kernels, Python draws) instead
    of disappearing.  The cache name is :func:`_library_digest` plus the
    variant, so a library built by another compiler or against another
    numpy is never reused, and a cached fallback never masks a full build
    from a different environment (and vice versa).

    Every environment failure -- no compiler, compile error, unwritable
    cache directory -- surfaces as ``ImportError`` so the registry treats
    the backend as unavailable and ``auto`` degrades to numpy instead of
    crashing the decode.
    """
    cc = compiler()
    if cc is None:
        raise ImportError("no C compiler (cc) on PATH for the cext backend")
    digest = _library_digest(cc)
    cache = _cache_dir()
    targets = {
        features: cache / f"peel-{digest}-{'-'.join(features) or 'serial'}.so"
        for features in _VARIANTS
    }
    try:
        for target in targets.values():
            if target.exists():
                # A fallback here means a probe in this environment
                # already failed; the warning fires at load time instead.
                return target
        cache.mkdir(parents=True, exist_ok=True)
        errors: list[tuple[tuple, str]] = []
        with tempfile.TemporaryDirectory(dir=cache) as build_dir:
            source = Path(build_dir) / "peel.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            artefact = Path(build_dir) / "peel.so"
            for features, target in targets.items():
                result = _compile(cc, source, artefact, features)
                if result.returncode != 0:
                    errors.append((features, result.stderr.strip()))
                    continue
                for missing in set(_FEATURE_FLAGS) - set(features):
                    # The last failed build with the feature is the one
                    # that failed for it alone.
                    detail = [err for tried, err in errors if missing in tried][-1]
                    _warn_fallback(missing, f"probe compile failed: {detail}")
                # Atomic publish so concurrent processes never load a
                # half-written library; losing the race is fine, the
                # content is identical.
                os.replace(artefact, target)
                return target
        raise ImportError(f"C compile of the cext kernels failed: {errors[-1][1]}")
    except OSError as exc:
        raise ImportError(f"cext kernel build failed: {exc}") from exc


_warned: set[str] = set()


def _warn_fallback(feature: str, detail: str) -> None:
    """One warning per process and feature the loaded library lacks.

    Degradation must be loud but never fatal and never result-changing:
    the fallback kernels are bit-identical, only slower.
    """
    if feature in _warned:
        return
    _warned.add(feature)
    logger.warning("cext " + _FALLBACKS[feature], detail)


def _load_library() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(_build_library()))
    except OSError as exc:
        raise ImportError(f"cext kernel library failed to load: {exc}") from exc
    lib.peel_openmp.restype = ctypes.c_int
    lib.peel_openmp.argtypes = []
    lib.peel_npyrandom.restype = ctypes.c_int
    lib.peel_npyrandom.argtypes = []
    lib.ldgm_peel_batch.restype = None
    lib.ldgm_peel_batch.argtypes = [_P, _P, _P, _P, _P, _P, _I, _I, _I, _I, _P, _P, _P, _P, _P, _I]
    lib.block_count_batch.restype = None
    lib.block_count_batch.argtypes = [_P, _P, _I, _I, _P, _P, _P, _I, _P, _I, _P, _I, _P, _P, _I]
    lib.fill_sojourns.restype = ctypes.c_int64
    lib.fill_sojourns.argtypes = [_P, _I, _I, ctypes.c_int, _P, _P, _I]
    lib.fill_sojourns_batch.restype = None
    lib.fill_sojourns_batch.argtypes = [_P, _I, _P, _P, _P, _I, _I, _P, _I]
    lib.gather_count.restype = ctypes.c_int64
    lib.gather_count.argtypes = [_P, _I, _I, _I, _P, _P, _I]
    lib.gather_write.restype = ctypes.c_int
    lib.gather_write.argtypes = [_P, _I, _P, _I, _I, _I, _I, _P, _P, _P, _I]
    if not lib.peel_openmp():
        _warn_fallback("omp", "library built without OpenMP")
    if lib.peel_npyrandom():
        lib.gilbert_draw_batch.restype = None
        lib.gilbert_draw_batch.argtypes = [
            _P, _P, _I, _I, ctypes.c_double, ctypes.c_double, ctypes.c_double, _I,
            _P, _P, _P, _P, _P, _I,
        ]
        lib.stream_seed_batch.restype = None
        lib.stream_seed_batch.argtypes = [_P, _I, _I, _I, _P, _I]
        lib.stream_shuffle_batch.restype = None
        lib.stream_shuffle_batch.argtypes = [_P, _P, _I, _I, _I, _P, _I]
    else:
        _warn_fallback("npy", "library built without libnpyrandom")
    return lib


def _streams_self_check(lib: ctypes.CDLL) -> str | None:
    """Why the C streams disagree with numpy, or None when they agree.

    One coordinate with multi-word entropy (a base and a path entry above
    2**32, a run above 2**32) is seeded in C and compared with
    ``PCG64(SeedSequence(...)).state``.  From that state a C shuffle, then
    C geometric draws on both branches of numpy's sampler (inversion at
    p = 0.05, search at p = 0.5), are compared with ``Generator.shuffle``
    and ``Generator.geometric``: outputs and the final state.
    """
    base, path, run = 2**40 + 7, (3, 2**33 + 1), 2**32 + 5
    prefix = entropy_words((base, *path))
    states = np.empty((1, 6), dtype=np.uint64)
    lib.stream_seed_batch(prefix.ctypes.data, prefix.size, run, 1, states.ctypes.data, 1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([base, *path, run])))
    seeded = pcg64_state(states[0])
    if seeded != rng.bit_generator.state:
        return f"C seeding gave {seeded}, numpy {rng.bit_generator.state}"

    width, start = 40, 3
    rows = np.empty((1, width), dtype=np.int64)
    shuffled = np.arange(width, dtype=np.int64)
    lib.stream_shuffle_batch(
        states.ctypes.data, rows.ctypes.data, 1, width, start, shuffled.ctypes.data, 1
    )
    rng.shuffle(shuffled[start:])
    if not np.array_equal(rows[0], shuffled):
        return f"C shuffle gave {rows[0].tolist()}, numpy {shuffled.tolist()}"

    # count = 1: the first round always covers the row, so the kernel
    # draws exactly one uniform and one round of each geometric.
    batch = 64
    initial = np.empty(1, dtype=np.uint8)
    gap = np.empty((1, batch), dtype=np.int64)
    burst = np.empty((1, batch), dtype=np.int64)
    mask = np.zeros((1, 1), dtype=np.uint8)
    scratch = np.empty((1, 2 * batch), dtype=np.int64)
    lib.gilbert_draw_batch(
        None, states.ctypes.data, 1, 1, 0.5, 0.05, 0.5, batch, initial.ctypes.data,
        gap.ctypes.data, burst.ctypes.data, mask.ctypes.data, scratch.ctypes.data, 1,
    )
    rng.random()
    for p, drawn in ((0.05, gap[0]), (0.5, burst[0])):
        expected = rng.geometric(p, batch)
        if not np.array_equal(drawn, expected):
            return f"C geometric({p}) gave {drawn.tolist()}, numpy {expected.tolist()}"
    drawn_state = pcg64_state(states[0])
    if drawn_state != rng.bit_generator.state:
        return f"C draws left {drawn_state}, numpy {rng.bit_generator.state}"
    return None


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _rows(array: np.ndarray, dtype) -> np.ndarray:
    """``array`` as rows a C kernel reads in place, copied only when it must be.

    The kernels take one row stride (0 for a broadcast row) and need
    aligned elements at unit stride; any other layout is made contiguous.
    """
    array = np.asarray(array, dtype=dtype)
    row_stride, element_stride = array.strides
    if (
        element_stride != array.itemsize
        or row_stride < 0
        or row_stride % array.itemsize
        or not array.flags.aligned
    ):
        array = np.ascontiguousarray(array)
    return array


def _cache_lines(nbytes: int) -> int:
    """``nbytes`` rounded up to whole 64-byte cache lines."""
    return -(-nbytes // 64) * 64


class CExtBackend(KernelBackend):
    """Loop kernels compiled on demand with the system C compiler.

    The batch kernels run row-parallel over runs when the library was
    built with OpenMP; the team size is the count the enclosing
    :func:`~repro.kernels.threads.kernel_scope` resolved (once per work
    unit), clamped to the batch size.  A serial-fallback library
    pins it to 1, and so do Gilbert draws from shared generators.  Either
    way the results are bit-identical -- threads are a wall-clock knob,
    like the backend choice itself.

    :meth:`gather_received` replaces the numpy default's boolean
    selection and min/max scan with two C calls (count, then write and
    range-check), reading broadcast rows and column-sliced views in place;
    the LDGM and block-count decodes skip the range scan for the batches
    it returns (``index_bound``).
    """

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_library()
        #: Whether the loaded library was built with OpenMP (provenance).
        self.openmp = bool(self._lib.peel_openmp())
        #: Whether it links ``libnpyrandom`` (build provenance).
        self.npyrandom = bool(self._lib.peel_npyrandom())
        #: Whether it seeds and draws :class:`~repro.seeds.RunStreams`
        #: blocks in C (``libnpyrandom`` linked and the self-check passed).
        #: The Gilbert draw kernel shares the checked samplers, so it too
        #: runs only when this holds.
        self.stream_blocks = False
        if self.npyrandom:
            failure = _streams_self_check(self._lib)
            if failure is None:
                self.stream_blocks = True
            else:
                _warn_fallback("streams", failure)

    def _team_size(self, num_runs: int) -> int:
        if not self.openmp:
            return 1
        return max(1, min(current_thread_count(), num_runs))

    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        # The peel indexes its scratch rows by packet id: a stray id would
        # read and write outside them.
        batch.check_index_range(prototype.n)
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=np.uint8)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        if batch.flat.size:
            num_checks = prototype.num_checks
            threads = self._team_size(num_runs)
            # One scratch slice per thread: rows of these (threads, ...)
            # arrays are private to their OpenMP thread, which is what
            # keeps N-thread peeling bit-identical to 1-thread.  A check's
            # (count, id sum) pair is one uint64.
            checks = np.empty((threads, num_checks), dtype=np.uint64)
            known = np.empty((threads, prototype.n), dtype=np.uint8)
            stack = np.empty((threads, num_checks + 2), dtype=np.int64)
            col_indptr, col_rows = prototype.column_adjacency
            init = prototype.check_init
            flat = _i64(batch.flat)
            offsets = _i64(batch.offsets)
            lengths = _i64(batch.lengths)
            self._lib.ldgm_peel_batch(
                col_indptr.ctypes.data,
                col_rows.ctypes.data,
                init.ctypes.data,
                flat.ctypes.data,
                offsets.ctypes.data,
                lengths.ctypes.data,
                num_runs,
                prototype.k,
                prototype.n,
                num_checks,
                checks.ctypes.data,
                known.ctypes.data,
                stack.ctypes.data,
                decoded.ctypes.data,
                n_necessary.ctypes.data,
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
                prototype.group_of_key.ctypes.data,
                prototype.needed.ctypes.data,
                prototype.key_modulus,
                prototype.num_groups,
                flat.ctypes.data,
                offsets.ctypes.data,
                lengths.ctypes.data,
                num_runs,
                seen.ctypes.data,
                seen.shape[1],
                missing.ctypes.data,
                missing.shape[1],
                decoded.ctypes.data,
                n_necessary.ctypes.data,
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
        gap = _i64(gap_runs)
        burst = _i64(burst_runs)
        return int(
            self._lib.fill_sojourns(
                mask.ctypes.data,
                int(filled),
                int(mask.shape[0]),
                int(bool(in_loss_state)),
                gap.ctypes.data,
                burst.ctypes.data,
                int(gap.shape[0]),
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
            # bool and uint8 share the memory layout, so the C rows land in
            # the caller's mask as they are.
            states = np.ascontiguousarray(states, dtype=np.uint8)
            gap = _i64(gap_runs)
            burst = _i64(burst_runs)
            self._lib.fill_sojourns_batch(
                masks.ctypes.data,
                int(count),
                states.ctypes.data,
                gap.ctypes.data,
                burst.ctypes.data,
                int(num_runs),
                int(gap.shape[1]),
                filled.ctypes.data,
                self._team_size(num_runs),
            )
        return filled

    def gather_received(
        self, schedules: np.ndarray, loss: np.ndarray, n: int
    ) -> ReceivedBatch:
        runs, width = schedules.shape
        if not runs or not width:
            return super().gather_received(schedules, loss, n)
        # Broadcast rows (stride 0) and column-sliced views are read in
        # place; only an unusual layout is copied.
        schedules = _rows(schedules, np.int64)
        loss = _rows(loss, np.bool_)
        lengths = np.empty(runs, dtype=np.int64)
        offsets = np.empty(runs, dtype=np.int64)
        threads = self._team_size(runs)
        total = self._lib.gather_count(
            loss.ctypes.data,
            loss.strides[0],
            runs,
            width,
            lengths.ctypes.data,
            offsets.ctypes.data,
            threads,
        )
        flat = np.empty(total, dtype=np.int64)
        outside = self._lib.gather_write(
            schedules.ctypes.data,
            schedules.strides[0] // schedules.itemsize,
            loss.ctypes.data,
            loss.strides[0],
            runs,
            width,
            int(n),
            lengths.ctypes.data,
            offsets.ctypes.data,
            flat.ctypes.data,
            threads,
        )
        if outside:
            raise ValueError(f"received indices outside [0, {n})")
        return ReceivedBatch(flat=flat, offsets=offsets, lengths=lengths, index_bound=n)

    def seed_streams(self, prefix: np.ndarray, run_start: int, runs: int) -> np.ndarray:
        """PCG64 state rows of runs ``run_start ..``, seeded like
        ``SeedSequence([*prefix_values, run])`` from the prefix's entropy words."""
        prefix = np.ascontiguousarray(prefix, dtype=np.uint32)
        states = np.empty((runs, 6), dtype=np.uint64)
        if runs:
            self._lib.stream_seed_batch(
                prefix.ctypes.data,
                prefix.size,
                int(run_start),
                int(runs),
                states.ctypes.data,
                self._team_size(runs),
            )
        return states

    def shuffle_streams(
        self, states: np.ndarray, rows: np.ndarray, start: int, template: np.ndarray
    ) -> None:
        """Fill every row from ``template``, then ``Generator.shuffle(rows[i, start:])``
        drawing from stream row i (one thread fills and shuffles a row).
        """
        runs, width = rows.shape
        if rows.dtype != np.int64 or not rows.flags.c_contiguous or states.shape != (runs, 6):
            raise ValueError("shuffle_streams needs a C-contiguous int64 row per stream")
        template = np.ascontiguousarray(template, dtype=np.int64)
        if template.shape != (width,):
            raise ValueError("shuffle_streams needs a template row as wide as the rows")
        if runs:
            self._lib.stream_shuffle_batch(
                states.ctypes.data,
                rows.ctypes.data,
                runs,
                width,
                int(start),
                template.ctypes.data,
                self._team_size(runs),
            )

    def draw_sojourns_batch(
        self,
        masks: np.ndarray,
        rngs: Sequence[np.random.Generator],
        loss_probability: float,
        p: float,
        q: float,
        batch: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.stream_blocks or not masks.flags.c_contiguous:
            return super().draw_sojourns_batch(masks, rngs, loss_probability, p, q, batch)
        runs, count = masks.shape
        if masks.dtype != np.bool_ or len(rngs) != runs:
            raise ValueError("draw_sojourns_batch needs a bool mask row per generator")
        states = np.empty(runs, dtype=np.uint8)
        gap_runs = np.empty((runs, batch), dtype=np.int64)
        burst_runs = np.empty((runs, batch), dtype=np.int64)
        with contextlib.ExitStack() as held:
            if isinstance(rngs, RunStreams) and rngs.kernel is self:
                # Stream rows are distinct by construction and private to
                # the unit: always row-parallel, no capsules, no locks.
                capsules, streams = None, rngs.states()
                threads = self._team_size(runs)
            else:
                bit_generators = [rng.bit_generator for rng in rngs]
                capsules = np.fromiter(
                    (_capsule_pointer(bg.capsule, b"BitGenerator") for bg in bit_generators),
                    dtype=np.uintp,
                    count=runs,
                )
                streams = None
                distinct = {id(bg): bg for bg in bit_generators}
                # Rows may run in parallel only when no two share a stream,
                # by the test of pipeline._all_distinct; shared generators
                # keep the serial draw interleaving on a team of one.
                threads = self._team_size(runs) if len(distinct) == runs else 1
                # Hold each generator's lock for the call, as numpy's own
                # draw methods do; a fixed (id) order keeps concurrent calls
                # on overlapping generators from deadlocking.
                for key in sorted(distinct):
                    held.enter_context(distinct[key].lock)
            scratch = np.empty((threads, 2 * batch), dtype=np.int64)
            self._lib.gilbert_draw_batch(
                None if capsules is None else capsules.ctypes.data,
                None if streams is None else streams.ctypes.data,
                runs,
                count,
                float(loss_probability),
                float(p),
                float(q),
                int(batch),
                states.ctypes.data,
                gap_runs.ctypes.data,
                burst_runs.ctypes.data,
                masks.ctypes.data,
                scratch.ctypes.data,
                threads,
            )
        return states.view(bool), gap_runs, burst_runs

__all__ = ["CExtBackend", "compiler"]
