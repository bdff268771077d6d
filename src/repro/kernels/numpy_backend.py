"""Pure-numpy reference backend: lockstep bisection + chain-aware cascade.

This is the always-available backend and the behavioural reference for the
compiled ones.  The LDGM decode is the gallop+bisect prefix search of the
fast path: the peeling state of a whole batch of runs is stacked into flat
arrays, a *checkpoint* is kept at every run's highest known-undecodable
prefix, and each probe applies only its delta packets, cascading reveals
in vectorised rounds.

Two structure-aware twists keep the round count low on the staircase /
triangle codes, whose bidiagonal parity part otherwise forces one frontier
round per link of a long sequential reveal chain:

* **Chain-aware cascade** -- when the prototype detected the bidiagonal
  structure, a frontier parity that borders a run of *chain-eligible*
  check rows (rows whose only unknowns are their two staircase parities,
  recognised in O(1) from the packed count|sum word) resolves the whole
  run in one vectorised scan instead of one round per link.
* **Seen-mask dedup** -- frontier deduplication uses a reused scratch
  buffer indexed by node id instead of a sort; the cascade calls it every
  round and the sort dominated small frontiers.

The block-count decode of RSE and repetition is closed form here: order
statistics over a ``(runs, keys)`` first-arrival position table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.kernels.base import (
    COUNT_SHIFT,
    NOT_DECODED,
    SENTINEL_WORD,
    SUM_MASK,
    KernelBackend,
    ReceivedBatch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype

#: Reused empty frontier.
_EMPTY = np.zeros(0, dtype=np.int64)

#: "Never arrived" sentinel in the block-count first-arrival position
#: table; sorts after every real position, so reaching it in an order
#: statistic means the group's distinct-count goal was not met.
_NEVER = np.iinfo(np.int64).max

#: Upper bound on the elements of one first-arrival position table
#: (``runs x (key_modulus + 1)`` int64); larger batches are decoded in
#: run chunks to bound peak memory (~0.5 GB).
_MAX_TABLE_ELEMENTS = 64_000_000


class _PeelState:
    """Stacked peeling state of a batch of runs (one block per run).

    Per-row state is one ``int64`` word: ``unknown_count << 40 | id_sum``,
    where ``id_sum`` is the *sum* of the row's still-unknown column ids.
    Like the incremental decoder's XOR accumulator, the sum of a single
    remaining element identifies it -- but a sum also updates by plain
    subtraction, so removing a known node from a row is a single fused
    ``packed -= (1 << 40) + node`` and cannot borrow across the fields
    (the id sum of the remaining unknowns never goes negative).
    """

    __slots__ = ("packed", "known", "source_counts")

    def __init__(self, packed: np.ndarray, known: np.ndarray, source_counts: np.ndarray):
        self.packed = packed
        self.known = known
        self.source_counts = source_counts

    def copy(self) -> "_PeelState":
        return _PeelState(
            self.packed.copy(), self.known.copy(), self.source_counts.copy()
        )

    def adopt(
        self, other: "_PeelState", runs: np.ndarray, num_checks: int, n: int
    ) -> None:
        """Overwrite the state blocks of ``runs`` with ``other``'s."""
        self.packed.reshape(-1, num_checks)[runs] = other.packed.reshape(
            -1, num_checks
        )[runs]
        self.known.reshape(-1, n)[runs] = other.known.reshape(-1, n)[runs]
        self.source_counts[runs] = other.source_counts[runs]


def _dedup(nodes: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Deduplicate node ids with a reused seen-mask scratch buffer.

    ``scratch`` is an int64 array of -1 covering the flat node space; each
    distinct value keeps its latest occurrence, preserving arrival order
    of the survivors.  Replaces the historical sort-based unique: the
    cascade calls this once per round and the O(m log m) sort dominated
    the typically tiny frontiers.  Touched entries are reset to -1 before
    returning, so the buffer is clean for the next round.
    """
    if nodes.size <= 1:
        return nodes
    order = np.arange(nodes.size, dtype=np.int64)
    scratch[nodes] = order
    keep = scratch[nodes] == order
    out = nodes[keep]
    scratch[out] = -1
    return out


class NumpyBackend(KernelBackend):
    """Vectorised reference backend (always available)."""

    name = "numpy"
    stacks_batches = True

    def __init__(self) -> None:
        #: Diagnostics of the most recent :meth:`ldgm_decode_batch` call:
        #: total cascade rounds and chain scans (read by tests/benchmarks).
        self.last_rounds = 0
        self.last_chain_scans = 0

    # ------------------------------------------------------------------
    # LDGM decode: gallop+bisect prefix search over stacked peeling state.
    # ------------------------------------------------------------------

    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.last_rounds = 0
        self.last_chain_scans = 0
        k = prototype.k
        n = prototype.n
        lengths = batch.lengths
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=bool)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)

        # Fewer than k packets can never decode (each packet contributes one
        # equation; recovering k independent sources needs at least k), so
        # the checkpoint starts at prefix k - 1 and runs shorter than k are
        # failures outright.
        candidates = np.nonzero(lengths >= k)[0]
        if candidates.size == 0:
            return decoded, n_necessary

        # Stack the candidate runs' sequences into one flat node-id space
        # (node + run * n) with a single gather over the batch's flat
        # array -- the batch itself was flattened once per work unit, so
        # probes and checkpoints only ever index, never copy, per probe.
        cand_lengths = lengths[candidates]
        num = candidates.size
        seq_offsets = np.zeros(num, dtype=np.int64)
        np.cumsum(cand_lengths[:-1], out=seq_offsets[1:])
        total = int(cand_lengths.sum())
        ends = np.cumsum(cand_lengths)
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            batch.offsets[candidates] - (ends - cand_lengths), cand_lengths
        )
        seq_flat = batch.flat[positions]
        seq_flat += np.repeat(np.arange(num, dtype=np.int64) * n, cand_lengths)

        #: Seen-mask scratch over the stacked node space, kept at -1
        #: between dedup calls.
        scratch = np.full(num * n, -1, dtype=np.int64)

        # Unified gallop-then-bisect search, lockstep across runs, with a
        # checkpoint at every run's lo prefix (always undecodable).  The
        # typical decode point sits a few percent above k, so doubling
        # steps from k touch far fewer packets than a wide bisection --
        # and a failed probe *becomes* the checkpoint, so its packet
        # applications and cascades are never repeated.  ``hi = -1`` marks
        # runs still galloping (no decodable prefix seen yet).
        chain_flat = (
            np.tile(prototype.chain_expected, num)
            if prototype.chain_expected is not None
            else None
        )
        lo = np.full(num, k - 1, dtype=np.int64)
        hi = np.full(num, -1, dtype=np.int64)
        step = np.full(num, max(8, k >> 5), dtype=np.int64)
        checkpoint = self._fresh_state(prototype, num)
        everyone = np.arange(num, dtype=np.int64)
        self._advance(
            prototype,
            checkpoint,
            seq_flat,
            seq_offsets,
            everyone,
            np.zeros(num, dtype=np.int64),
            lo,
            scratch,
            chain_flat,
        )
        probe: Optional[_PeelState] = None
        while True:
            galloping = hi < 0
            active = np.nonzero(
                (galloping & (lo < cand_lengths)) | (~galloping & (hi - lo > 1))
            )[0]
            if active.size == 0:
                break
            target = np.where(
                galloping[active],
                np.minimum(lo[active] + step[active], cand_lengths[active]),
                (lo[active] + hi[active]) // 2,
            )
            # One probe buffer, reused across iterations: only the blocks of
            # the runs probing this iteration are refreshed from the
            # checkpoint (the advance below never reads the others -- stale
            # blocks are discarded by the selective adopt after the probe).
            if probe is None:
                probe = checkpoint.copy()
            else:
                probe.adopt(checkpoint, active, prototype.num_checks + 1, n)
            self._advance(
                prototype,
                probe,
                seq_flat,
                seq_offsets,
                active,
                lo[active],
                target,
                scratch,
                chain_flat,
            )
            ok = probe.source_counts[active] >= k
            hi[active[ok]] = target[ok]
            failed = active[~ok]
            lo[failed] = target[~ok]
            step[failed] <<= 1
            # A failed probe is the peeling state at its target prefix:
            # adopt it as the checkpoint instead of ever re-peeling.
            checkpoint.adopt(probe, failed, prototype.num_checks + 1, n)
        found = hi >= 0
        decoded[candidates[found]] = True
        n_necessary[candidates[found]] = hi[found]
        return decoded, n_necessary

    def _fresh_state(self, prototype: "LDGMPrototype", num_runs: int) -> _PeelState:
        """Stacked no-packets-yet state: the prototype replicated per run.

        Every run's block carries ``num_checks`` real rows plus the sentinel
        row that absorbs the padded adjacency's ghost updates.  Its initial
        unknown count (2**22) dwarfs any realistic number of ghost hits, so
        it can never reach one and trigger a reveal; nor can the subtracted
        id sums borrow into a range that would (the total subtracted stays
        far below the initial word).
        """
        per_run = np.concatenate([prototype.row_packed, [SENTINEL_WORD]])
        return _PeelState(
            np.tile(per_run, num_runs),
            np.zeros(num_runs * prototype.n, dtype=bool),
            np.zeros(num_runs, dtype=np.int64),
        )

    def _advance(
        self,
        prototype: "LDGMPrototype",
        state: _PeelState,
        seq_flat: np.ndarray,
        seq_offsets: np.ndarray,
        runs: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
        scratch: np.ndarray,
        chain_flat: Optional[np.ndarray],
    ) -> None:
        """Apply packets ``start[i]..stop[i]`` of each run in ``runs``.

        Equivalent to feeding the packets one at a time to the incremental
        decoder: receptions and the nodes they reveal propagate in
        vectorised rounds until the cascade dies out or a run recovers all
        ``k`` sources (completed runs stop cascading, like the incremental
        decoder's early return).
        """
        N, k = prototype.n, prototype.k
        known = state.known
        deltas = stop - start
        total = int(deltas.sum())
        if total == 0:
            return
        ends = np.cumsum(deltas)
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            seq_offsets[runs] + start - (ends - deltas), deltas
        )
        packets = seq_flat[positions]
        # Packets already known -- duplicates in the schedule or nodes the
        # cascade recovered before they arrived -- are no-ops, exactly as in
        # the incremental decoder.
        frontier = _dedup(packets[~known[packets]], scratch)
        frontier = frontier[state.source_counts[frontier // N] < k]

        #: Lazily-built membership mask of this advance's runs: the
        #: full-state trigger scan must not pick up rows of runs outside
        #: the probe (a reused probe buffer leaves stale blocks behind).
        run_mask: Optional[np.ndarray] = None
        packed = state.packed
        row_stride = prototype.num_checks + 1
        col_indptr = prototype.col_indptr
        col_degrees = prototype.col_degrees
        col_rows = prototype.col_rows
        padded = prototype.col_rows_padded
        if padded is not None:
            # Fresh sentinel words: their headroom bounds the padded
            # table's ghost hits per _advance call, not per decode.
            packed[prototype.num_checks :: row_stride] = SENTINEL_WORD
        while frontier.size:
            self.last_rounds += 1
            known[frontier] = True
            run_of, local = np.divmod(frontier, N)
            newly_sources = local < k
            if newly_sources.any():
                state.source_counts += np.bincount(
                    run_of[newly_sources], minlength=state.source_counts.size
                )
            # One fused update per (row, node) edge: decrement the unknown
            # count (high bits) and remove the node from the id sum (low
            # bits) of every touched row.  Two expansion strategies: the
            # dense padded table (one 2-D gather; ghost slots land on the
            # sentinels) when padding is tight, exact CSR edge lists
            # (repeat/arange gather) when padding would be mostly ghost
            # traffic -- triangle parities can sit in many below-diagonal
            # rows.
            if padded is not None:
                rows = padded[local] + (run_of * row_stride)[:, None]
                np.subtract.at(
                    packed, rows, local[:, None] + (np.int64(1) << COUNT_SHIFT)
                )
                edge_total = rows.size
            else:
                degrees = col_degrees[local]
                edge_total = int(degrees.sum())
                if edge_total == 0:
                    frontier = _EMPTY
                    continue
                edge_ends = np.cumsum(degrees)
                edge_pos = np.arange(edge_total, dtype=np.int64) + np.repeat(
                    col_indptr[local] - (edge_ends - degrees), degrees
                )
                edge_runs = np.repeat(run_of, degrees)
                rows = col_rows[edge_pos] + edge_runs * row_stride
                np.subtract.at(
                    packed,
                    rows,
                    np.repeat(local, degrees) + (np.int64(1) << COUNT_SHIFT),
                )
            # A row at one unknown reveals it: the id sum *is* the node.
            # Small rounds gather the touched rows' words (a row may appear
            # several times; the dedup below collapses the repeats); bulk
            # rounds scan the whole state instead, which is cheaper than
            # gathering more edge words than there are rows.  The scan may
            # also pick up rows of completed runs parked at one unknown --
            # the completion filter drops them, exactly like the
            # incremental decoder's early return (completion cannot be
            # undone, so the extra peeling could only waste time).
            if edge_total > packed.size // 2:
                trig_rows = np.nonzero((packed >> COUNT_SHIFT) == 1)[0]
                trigger_runs = trig_rows // row_stride
                if run_mask is None:
                    run_mask = np.zeros(state.source_counts.size, dtype=bool)
                    run_mask[runs] = True
                member = run_mask[trigger_runs]
                trig_rows = trig_rows[member]
                trigger_runs = trigger_runs[member]
                if prototype.has_unit_rows and trig_rows.size:
                    # Rows whose INITIAL count is 1 are never peeled by
                    # the incremental decoder until something decrements
                    # them; the scan must not reveal them while they still
                    # hold their pristine word.
                    touched = (
                        packed[trig_rows]
                        != prototype.row_packed[trig_rows % row_stride]
                    )
                    trig_rows = trig_rows[touched]
                    trigger_runs = trigger_runs[touched]
                if trig_rows.size == 0:
                    frontier = _EMPTY
                    continue
                words = packed[trig_rows]
                nodes = (words & SUM_MASK) + trigger_runs * np.int64(N)
            else:
                words = packed[rows]
                trigger = (words >> COUNT_SHIFT) == 1
                if not trigger.any():
                    frontier = _EMPTY
                    continue
                trigger_runs = (
                    rows[trigger] // row_stride
                    if padded is not None
                    else edge_runs[trigger]
                )
                nodes = (words[trigger] & SUM_MASK) + trigger_runs * np.int64(N)
            nodes = nodes[(~known[nodes]) & (state.source_counts[trigger_runs] < k)]
            nodes = _dedup(nodes, scratch)
            if chain_flat is not None and nodes.size:
                nodes = _dedup(
                    self._extend_chain(
                        prototype, state, nodes, chain_flat, row_stride
                    ),
                    scratch,
                )
            frontier = nodes

    #: First/largest window of the chain walk.  The walk starts small --
    #: most bordering stretches are a handful of links, and a wide gather
    #: for every walk would dwarf the rounds it saves -- and grows
    #: geometrically for the long chains that actually matter, so a chain
    #: of length L costs O(log L) dispatches over O(L) gathered rows.
    _CHAIN_WINDOW_FIRST = 8
    _CHAIN_WINDOW_MAX = 64

    def _extend_chain(
        self,
        prototype: "LDGMPrototype",
        state: _PeelState,
        nodes: np.ndarray,
        chain_flat: np.ndarray,
        row_stride: int,
    ) -> np.ndarray:
        """Resolve staircase reveal chains bordering the frontier at once.

        ``nodes`` are about to become known.  A check row is *chain
        eligible* when its only unknowns are its two bidiagonal parities --
        recognised by comparing its packed word against the precomputed
        ``chain_expected`` word (count 2, id sum ``(k+j-1) + (k+j)``; the
        prototype proved at compile time that no other pair of the row's
        columns can produce that word).  A frontier parity ``k+j`` bordered
        by eligible rows therefore resolves the whole consecutive run of
        them -- entering at row ``j`` cascades upstream, at row ``j+1``
        downstream, and every parity of the maximal eligible run is
        revealed.  The round-synchronous loop would take one round per
        link; this walks all bordering chains together in windowed gathers
        (:attr:`_CHAIN_WINDOW_FIRST` links per numpy dispatch, growing
        geometrically) and applies the resolved stretches to the peeling
        state directly.
        """
        N, k = prototype.n, prototype.k
        packed = state.packed
        local = nodes % N
        is_parity = local >= k
        if not is_parity.any():
            return nodes
        parities = nodes[is_parity]
        run_of = parities // N
        row = parities - run_of * N - k  # check row owning the parity
        base = run_of * row_stride + row
        # Quick gather check before any walk: is a bordering row eligible?
        # (Row ``j`` upstream, ``j+1`` downstream; ``chain_expected`` is -1
        # at row 0 and the sentinel slot, so boundaries disqualify freely.)
        up = packed[base] == chain_flat[base]
        down = packed[base + 1] == chain_flat[base + 1]
        hit = up | down
        if not hit.any():
            return nodes
        self.last_chain_scans += 1
        # Anchor rows: the eligible rows bordering the entries.  An
        # avalanche reveals many *consecutive* parities of a run, whose
        # anchors all sit in the same eligible stretch -- collapse each
        # consecutive anchor group so the stretch is walked once from each
        # end, not once per entry.
        anchors = np.unique(np.concatenate([base[up], base[down] + 1]))
        group_start = np.empty(anchors.size, dtype=bool)
        group_start[0] = True
        np.greater(np.diff(anchors), 1, out=group_start[1:])
        g_first = anchors[group_start]
        g_last = anchors[np.concatenate([group_start[1:], [True]])]
        groups = g_first.size
        walk_pos = np.concatenate([g_first - 1, g_last + 1])
        walk_sign = np.concatenate(
            [
                np.full(groups, -1, dtype=np.int64),
                np.full(groups, 1, dtype=np.int64),
            ]
        )
        lengths = self._chain_run_length(packed, chain_flat, walk_pos, walk_sign)
        # Maximal eligible stretches [a, b): rows a..b-1 eligible, so
        # parities k+(a-1) .. k+(b-1) of the stretch all reveal.  Distinct
        # anchor groups may share a stretch; resolve each start once.
        a, first_of = np.unique(g_first - lengths[:groups], return_index=True)
        b = (g_last + 1 + lengths[groups:])[first_of]
        kept = np.ones(nodes.size, dtype=bool)
        kept[np.nonzero(is_parity)[0][hit]] = False
        return self._resolve_stretches(
            prototype, state, nodes[kept], a, b, row_stride
        )

    def _resolve_stretches(
        self,
        prototype: "LDGMPrototype",
        state: _PeelState,
        survivors: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        row_stride: int,
    ) -> np.ndarray:
        """Apply resolved chain stretches directly to the peeling state.

        Every bidiagonal edge of a stretch parity lands inside the stretch
        -- rows there lose both their parities, so their packed words
        become exactly zero -- or on one of the stretch's two boundary
        rows; the triangle's extra below-diagonal edges are routed through
        the prototype's parity-extra CSR (an extra edge can never point
        into a stretch: a chain-eligible row's extra parity is already
        known).  The stretch parities are marked known here and never
        enter the frontier, which removes the bulk of the bidiagonal
        codes' scatter-update traffic; the entries that led into the
        stretches were already dropped from ``survivors`` (their
        application is part of the stretch updates), and whatever the
        boundary/extra decrements reveal joins the next frontier.
        """
        N, k = prototype.n, prototype.k
        num_checks = prototype.num_checks
        packed = state.packed
        known = state.known
        a_run = a // row_stride
        a_loc = a - a_run * row_stride
        counts_rows = b - a
        # Stretch rows lose both their parities: count 2 -> 0, sum -> 0.
        row_total = int(counts_rows.sum())
        row_ends = np.cumsum(counts_rows)
        stretch_rows = np.arange(row_total, dtype=np.int64) + np.repeat(
            a - (row_ends - counts_rows), counts_rows
        )
        packed[stretch_rows] = 0
        # Stretch parities k+(a-1) .. k+(b-1) become known without ever
        # entering the frontier.
        counts_par = counts_rows + 1
        par_total = int(counts_par.sum())
        par_ends = np.cumsum(counts_par)
        par_t = np.arange(par_total, dtype=np.int64) + np.repeat(
            a_loc - 1 - (par_ends - counts_par), counts_par
        )
        par_runs = np.repeat(a_run, counts_par)
        par_nodes = par_runs * np.int64(N) + k + par_t
        known[par_nodes] = True
        # Boundary rows: row a-1 loses the stretch's first parity (its own),
        # row b its last (its previous) -- unless the stretch ends at the
        # final check row.  Batched through subtract.at: one row can be the
        # boundary of two stretches, exactly like repeated rows in the
        # cascade's scatter update.
        has_down = (b - a_run * row_stride) < num_checks
        update_rows = np.concatenate([a - 1, b[has_down]])
        update_locals = np.concatenate(
            [k + a_loc - 1, k + (b - a_run * row_stride)[has_down] - 1]
        )
        update_runs = np.concatenate([a_run, a_run[has_down]])
        # Extra below-diagonal edges of the stretch parities (triangle).
        extra_degrees = prototype.parity_extra_degrees[par_t]
        extra_total = int(extra_degrees.sum())
        if extra_total:
            extra_ends = np.cumsum(extra_degrees)
            extra_pos = np.arange(extra_total, dtype=np.int64) + np.repeat(
                prototype.parity_extra_indptr[par_t]
                - (extra_ends - extra_degrees),
                extra_degrees,
            )
            extra_runs = np.repeat(par_runs, extra_degrees)
            update_rows = np.concatenate(
                [
                    update_rows,
                    prototype.parity_extra_rows[extra_pos]
                    + extra_runs * row_stride,
                ]
            )
            update_locals = np.concatenate(
                [update_locals, np.repeat(k + par_t, extra_degrees)]
            )
            update_runs = np.concatenate([update_runs, extra_runs])
        np.subtract.at(
            packed, update_rows, update_locals + (np.int64(1) << COUNT_SHIFT)
        )
        words = packed[update_rows]
        trigger = (words >> COUNT_SHIFT) == 1
        if not trigger.any():
            return survivors
        trigger_runs = update_runs[trigger]
        candidates = (words[trigger] & SUM_MASK) + trigger_runs * np.int64(N)
        candidates = candidates[
            (~known[candidates]) & (state.source_counts[trigger_runs] < k)
        ]
        return np.concatenate([survivors, candidates])

    def _chain_run_length(
        self,
        packed: np.ndarray,
        chain_flat: np.ndarray,
        pos: np.ndarray,
        sign: np.ndarray,
    ) -> np.ndarray:
        """Consecutive chain-eligible rows from each ``pos``, walking ``sign``.

        Windowed with geometric growth: each iteration gathers the next
        ``window`` rows per still-walking chain (``sign`` gives each walk's
        direction) and finds the first non-eligible one, so short chains
        (the common case) cost one tiny gather and a length-L chain costs
        O(log L) dispatches.  Walks never escape their run block: row 0 and
        the sentinel slot carry the impossible expected word, and the index
        clip at the array edges lands on one of them.
        """
        window = self._CHAIN_WINDOW_FIRST
        total = np.zeros(pos.size, dtype=np.int64)
        alive = np.arange(pos.size, dtype=np.int64)
        cur = pos.copy()
        limit = packed.size - 1
        while alive.size:
            offsets = np.arange(window, dtype=np.int64)
            index = cur[alive, None] + offsets[None, :] * sign[alive, None]
            index.clip(0, limit, out=index)
            # A sentinel True column makes argmax itself the run length
            # (a full-window run yields ``window``, marking the walk alive).
            blocked = np.ones((index.shape[0], window + 1), dtype=bool)
            np.not_equal(packed[index], chain_flat[index], out=blocked[:, :window])
            lengths = blocked.argmax(axis=1)
            total[alive] += lengths
            alive = alive[lengths == window]
            cur[alive] += window * sign[alive]
            window = min(window * 4, self._CHAIN_WINDOW_MAX)
        return total

    # ------------------------------------------------------------------
    # Block-count decode: order statistics over first-arrival positions.
    # ------------------------------------------------------------------

    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The whole batch as order statistics, without a single sort.

        1. one reversed scatter builds the ``(runs, keys)`` table of each
           key's first arrival position (later stores win a fancy-indexing
           scatter, so storing in reverse arrival order keeps the first),
        2. the prototype's precompiled gather regroups the table's columns
           by group (groups padded to a common width with a sentinel key
           that never arrives),
        3. ``np.partition`` selects each group's ``needed``-th smallest
           position.
        """
        batch.check_index_range(prototype.n)
        num_runs = batch.num_runs
        chunk = max(1, _MAX_TABLE_ELEMENTS // (prototype.key_modulus + 1))
        if num_runs > chunk:
            decoded = np.zeros(num_runs, dtype=bool)
            n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
            for start in range(0, num_runs, chunk):
                stop = min(start + chunk, num_runs)
                decoded[start:stop], n_necessary[start:stop] = (
                    self._block_count_chunk(prototype, batch.slice(start, stop))
                )
            return decoded, n_necessary
        return self._block_count_chunk(prototype, batch)

    @staticmethod
    def _block_count_chunk(
        prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_runs = batch.num_runs
        modulus = prototype.key_modulus
        table_width = modulus + 1
        first_position = np.full(num_runs * table_width, _NEVER, dtype=np.int64)
        if batch.flat.size:
            run_ids = np.repeat(
                np.arange(num_runs, dtype=np.int64), batch.lengths
            )
            # Indices were range-checked against n, so the modulus is the
            # identity whenever the key space is the whole code (RSE).
            keys = batch.flat if modulus == prototype.n else batch.flat % modulus
            positions = np.arange(batch.flat.size, dtype=np.int64) - np.repeat(
                batch.offsets, batch.lengths
            )
            cells = run_ids * np.int64(table_width) + keys
            # Reversed scatter: duplicate keys collapse to their *first*
            # arrival because the earliest store happens last.
            first_position[cells[::-1]] = positions[::-1]
        grouped = first_position.reshape(num_runs, table_width)[:, prototype.gather]
        threshold = np.empty((num_runs, prototype.num_groups), dtype=np.int64)
        for needed, groups in prototype.classes:
            # Clamped for malformed third-party inputs (needed beyond the
            # group width is impossible and overwritten below; zero means
            # trivially reached before any arrival).
            kth = min(needed, grouped.shape[2]) - 1
            if kth < 0:
                threshold[:, groups] = -1
                continue
            statistic = np.partition(grouped[:, groups, :], kth, axis=2)
            threshold[:, groups] = statistic[:, :, kth]
        if prototype.impossible.size:
            threshold[:, prototype.impossible] = _NEVER
        decoded = (threshold < _NEVER).all(axis=1)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        n_necessary[decoded] = threshold[decoded].max(axis=1) + 1
        return decoded, n_necessary

    # ------------------------------------------------------------------
    # Gilbert sojourn fill.
    # ------------------------------------------------------------------

    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        """Vectorised sojourn expansion (``np.repeat``; no per-packet loop).

        The serial chain consumes sojourn ``index`` from the array of its
        current state and toggles the state after every sojourn, so the
        states alternate along the batch and each array only contributes
        its even or odd positions.
        """
        count = mask.shape[0]
        even_position = np.arange(gap_runs.shape[0]) % 2 == 0
        states = np.where(even_position, in_loss_state, not in_loss_state)
        runs = np.where(states, burst_runs, gap_runs)
        remaining = count - filled
        # Cap sojourns at the remaining space, as the serial chain does
        # per sojourn; tiny p/q make rng.geometric saturate at 2**63 - 1
        # and an uncapped cumulative sum would overflow.  The cap cannot
        # change which sojourn crosses ``remaining`` or any earlier one.
        runs = np.minimum(runs, remaining)
        cumulative = np.cumsum(runs)
        if cumulative[-1] >= remaining:
            # The batch overshoots: truncate the final sojourn so the
            # expansion ends exactly at ``count`` (the serial chain caps
            # each sojourn at the remaining space the same way).
            cut = int(np.searchsorted(cumulative, remaining))
            runs = runs[: cut + 1].copy()
            runs[cut] = remaining - (cumulative[cut - 1] if cut else 0)
            mask[filled:] = np.repeat(states[: cut + 1], runs)
            return count
        segment = np.repeat(states, runs)
        mask[filled : filled + segment.size] = segment
        return filled + segment.size


__all__ = ["NumpyBackend"]
