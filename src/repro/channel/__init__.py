"""Packet-loss channel models.

The paper models the channel as a packet erasure channel driven by the
two-state Gilbert (Markov) model of section 3.2; the Bernoulli (memoryless)
and perfect channels are its special cases.  A trace-replay channel and a
deterministic periodic-burst channel are provided for controlled tests.

:mod:`repro.channel.limits` implements the analytic decodability limits of
figure 6 (the (p, q) region in which no FEC code can possibly decode).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "LossModel",
    "bernoulli": "BernoulliChannel PerfectChannel",
    "gilbert": "GilbertChannel PAPER_GRID_PERCENT paper_grid",
    "limits": "decodable_region expected_received_fraction is_decodable minimum_q_for_decoding",
    "periodic": "PeriodicBurstChannel",
    "trace": "TraceChannel",
})

__all__ = [
    "LossModel",
    "GilbertChannel",
    "BernoulliChannel",
    "PerfectChannel",
    "TraceChannel",
    "PeriodicBurstChannel",
    "PAPER_GRID_PERCENT",
    "paper_grid",
    "minimum_q_for_decoding",
    "is_decodable",
    "decodable_region",
    "expected_received_fraction",
]
