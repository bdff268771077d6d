#!/usr/bin/env python3
"""Quickstart: encode an object, simulate a lossy broadcast, read the metrics.

This walks through the three layers of the library in ~60 lines:

1. the FEC codes themselves (encode / decode real payloads),
2. the paper's simulation pipeline (scheduler -> Gilbert channel -> decoder),
3. a small (p, q) grid sweep rendered as an appendix-style table.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import ascii_surface, format_grid_table
from repro.channel import GilbertChannel
from repro.core import SimulationConfig, simulate_grid, simulate_once
from repro.fec import make_code
from repro.runner import ExecutionOptions


def encode_decode_demo() -> None:
    """Encode 100 packets with LDGM Staircase and recover them from a subset."""
    rng = np.random.default_rng(7)
    k, ratio = 100, 1.5
    code = make_code("ldgm-staircase", k=k, expansion_ratio=ratio, seed=42)

    payloads = [bytes(rng.integers(0, 256, size=1024, dtype=np.uint8)) for _ in range(k)]
    encoded = code.new_encoder().encode(payloads)
    print(f"encoded {k} source packets into {len(encoded)} packets "
          f"(expansion ratio {code.expansion_ratio:.1f})")

    # Lose 25% of the packets, deliver the rest in random order.
    survivors = [i for i in range(code.n) if rng.random() > 0.25]
    rng.shuffle(survivors)
    decoder = code.new_decoder()
    used = 0
    for index in survivors:
        used += 1
        if decoder.add_packet(index, encoded[index]):
            break
    assert decoder.source_payloads() == payloads
    print(f"decoded after {used} received packets "
          f"(inefficiency ratio {used / k:.3f})\n")


def single_run_demo() -> None:
    """One simulated transmission over a bursty Gilbert channel."""
    config = SimulationConfig(
        code="ldgm-triangle", tx_model="tx_model_4", k=2000, expansion_ratio=2.5
    )
    result = simulate_once(config, p=0.05, q=0.3, seed=1)
    channel = GilbertChannel(0.05, 0.3)
    print(f"channel: {channel} (mean burst {channel.mean_burst_length:.1f} packets)")
    print(f"decoded: {result.decoded}, inefficiency ratio {result.inefficiency_ratio:.3f}, "
          f"received {result.n_received}/{result.n_sent} packets\n")


def grid_demo() -> None:
    """A small (p, q) sweep, like one panel of the paper's 3-D figures."""
    config = SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=1000, expansion_ratio=2.5
    )
    # How a sweep executes is one options object; here an in-memory
    # result store, so a rerun of the same sweep would simulate nothing.
    options = ExecutionOptions(store="memory:quickstart")
    grid = simulate_grid(
        config,
        p_values=[0.0, 0.01, 0.05, 0.20],
        q_values=[0.1, 0.5, 1.0],
        runs=5,
        seed=3,
        options=options,
    )
    print(format_grid_table(grid, title="LDGM Staircase, Tx_model_2, ratio 2.5 "
                                        "(mean inefficiency ratio; '-' = decoding failed)"))
    print()
    print(ascii_surface(grid))


if __name__ == "__main__":
    encode_decode_demo()
    single_run_demo()
    grid_demo()
