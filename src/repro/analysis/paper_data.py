"""Reference values transcribed from the paper.

The appendix of the paper (tables 1-9) gives numeric inefficiency ratios
for the most interesting (code, tx model, ratio) combinations over the full
14 x 14 Gilbert grid.  This module stores a compact summary of each table
-- a handful of representative (p, q) points plus the value range over the
decodable region -- so the appendix-table benchmarks
(``benchmarks/bench_tables_appendix.py``) can report paper-vs-measured
numbers, and the shape-checking tests can assert that the
reproduction preserves the orderings the paper emphasises.

All (p, q) keys are probabilities (the paper's axes are in percent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

Point = Tuple[float, float]


@dataclass(frozen=True)
class PaperTableSummary:
    """Summary of one appendix table of the paper."""

    table_id: str
    code: str
    tx_model: str
    expansion_ratio: float
    description: str
    #: Representative inefficiency-ratio values at selected (p, q) points.
    reference_points: Mapping[Point, float]
    #: (min, max) of the inefficiency ratio over the decodable region
    #: (excluding the trivially perfect p = 0 row where relevant).
    value_range: Tuple[float, float]
    #: Selected (p, q) points reported as "-" (decoding failed) in the paper.
    failed_points: Tuple[Point, ...] = ()


PAPER_TABLES: Dict[str, PaperTableSummary] = {
    "table1": PaperTableSummary(
        table_id="table1",
        code="ldgm-triangle",
        tx_model="tx_model_2",
        expansion_ratio=2.5,
        description="Tx_model_2, LDGM Triangle, ratio 2.5",
        reference_points={
            (0.0, 0.5): 1.000,
            (0.01, 0.05): 1.081,
            (0.01, 1.0): 1.078,
            (0.05, 0.5): 1.100,
            (0.20, 0.5): 1.078,
            (0.50, 0.5): 1.125,
            (1.00, 1.0): 1.125,
        },
        value_range=(1.062, 1.132),
        failed_points=((0.01, 0.0), (0.10, 0.05), (0.50, 0.40)),
    ),
    "table2": PaperTableSummary(
        table_id="table2",
        code="ldgm-staircase",
        tx_model="tx_model_2",
        expansion_ratio=2.5,
        description="Tx_model_2, LDGM Staircase, ratio 2.5",
        reference_points={
            (0.01, 0.05): 1.107,
            (0.01, 1.0): 1.013,
            (0.05, 0.5): 1.068,
            (0.20, 0.5): 1.139,
            (0.50, 1.0): 1.147,
            (1.00, 1.0): 1.149,
        },
        value_range=(1.011, 1.153),
        failed_points=((0.50, 0.60), (0.50, 0.70)),
    ),
    "table3": PaperTableSummary(
        table_id="table3",
        code="ldgm-triangle",
        tx_model="tx_model_2",
        expansion_ratio=1.5,
        description="Tx_model_2, LDGM Triangle, ratio 1.5",
        reference_points={
            (0.01, 0.10): 1.025,
            (0.05, 0.5): 1.024,
            (0.10, 0.5): 1.035,
            (0.20, 1.0): 1.035,
        },
        value_range=(1.024, 1.055),
        failed_points=((0.30, 0.60), (0.50, 1.0)),
    ),
    "table4": PaperTableSummary(
        table_id="table4",
        code="ldgm-staircase",
        tx_model="tx_model_2",
        expansion_ratio=1.5,
        description="Tx_model_2, LDGM Staircase, ratio 1.5",
        reference_points={
            (0.01, 0.10): 1.053,
            (0.01, 1.0): 1.010,
            (0.05, 0.5): 1.054,
            (0.15, 1.0): 1.063,
        },
        value_range=(1.010, 1.070),
        failed_points=((0.30, 0.70), (0.40, 1.0)),
    ),
    "table5": PaperTableSummary(
        table_id="table5",
        code="ldgm-triangle",
        tx_model="tx_model_4",
        expansion_ratio=2.5,
        description="Tx_model_4, LDGM Triangle, ratio 2.5",
        reference_points={
            (0.0, 0.5): 1.115,
            (0.05, 0.5): 1.116,
            (0.20, 0.5): 1.121,
            (0.50, 0.5): 1.133,
            (1.00, 1.0): 1.132,
        },
        value_range=(1.112, 1.134),
    ),
    "table6": PaperTableSummary(
        table_id="table6",
        code="ldgm-triangle",
        tx_model="tx_model_4",
        expansion_ratio=1.5,
        description="Tx_model_4, LDGM Triangle, ratio 1.5",
        reference_points={
            (0.0, 0.5): 1.056,
            (0.05, 0.5): 1.055,
            (0.20, 1.0): 1.056,
        },
        value_range=(1.055, 1.058),
    ),
    "table7": PaperTableSummary(
        table_id="table7",
        code="rse",
        tx_model="tx_model_5",
        expansion_ratio=2.5,
        description="Tx_model_5 (interleaving), RSE, ratio 2.5",
        reference_points={
            (0.0, 0.5): 1.000,
            (0.01, 0.5): 1.042,
            (0.05, 0.5): 1.087,
            (0.20, 0.5): 1.160,
            (0.50, 0.5): 1.199,
        },
        value_range=(1.000, 1.214),
    ),
    "table8": PaperTableSummary(
        table_id="table8",
        code="rse",
        tx_model="tx_model_5",
        expansion_ratio=1.5,
        description="Tx_model_5 (interleaving), RSE, ratio 1.5",
        reference_points={
            (0.0, 0.5): 1.000,
            (0.01, 0.5): 1.029,
            (0.05, 0.5): 1.058,
            (0.10, 1.0): 1.059,
        },
        value_range=(1.000, 1.103),
        failed_points=((0.40, 1.0),),
    ),
    "table9": PaperTableSummary(
        table_id="table9",
        code="ldgm-staircase",
        tx_model="tx_model_6",
        expansion_ratio=2.5,
        description="Tx_model_6 (20% source + parity, random), LDGM Staircase, ratio 2.5",
        reference_points={
            (0.0, 0.5): 1.085,
            (0.05, 0.5): 1.086,
            (0.20, 0.8): 1.087,
            (0.40, 0.9): 1.087,
        },
        value_range=(1.085, 1.089),
    ),
}


#: Figure 15 (the Amherst -> Los Angeles use case): approximate inefficiency
#: ratios read off the bar charts, used as reference for the fig15 bench.
#: Only the bars whose values the paper's text or appendix corroborates are
#: listed; combinations the paper plots but does not quantify are omitted.
FIGURE15_CHANNEL: Point = (0.0109, 0.7915)

FIGURE15_REFERENCE: Dict[float, Dict[str, Dict[str, float]]] = {
    1.5: {
        "tx_model_2": {"rse": 1.06, "ldgm-staircase": 1.011, "ldgm-triangle": 1.03},
        "tx_model_4": {"rse": 1.07, "ldgm-staircase": 1.07, "ldgm-triangle": 1.05},
        "tx_model_5": {"rse": 1.03},
    },
    2.5: {
        "tx_model_2": {"rse": 1.09, "ldgm-staircase": 1.02, "ldgm-triangle": 1.08},
        "tx_model_4": {"rse": 1.25, "ldgm-staircase": 1.15, "ldgm-triangle": 1.12},
        "tx_model_5": {"rse": 1.05},
        "tx_model_6": {"rse": 1.3, "ldgm-staircase": 1.086, "ldgm-triangle": 1.2},
    },
}

#: Paper-reported optimum of Rx_model_1 (figure 14): receiving roughly
#: 400-1000 source packets out of k = 20000 (2-5% of k) minimises the
#: inefficiency ratio of LDGM Staircase at ratio 2.5.
FIGURE14_OPTIMAL_SOURCE_FRACTION: Tuple[float, float] = (0.02, 0.05)


def get_table_summary(table_id: str) -> PaperTableSummary:
    """Look up a paper table summary by id (e.g. ``"table5"``)."""
    key = table_id.lower()
    if key not in PAPER_TABLES:
        raise KeyError(
            f"unknown paper table {table_id!r}; available: {', '.join(sorted(PAPER_TABLES))}"
        )
    return PAPER_TABLES[key]


__all__ = [
    "PaperTableSummary",
    "PAPER_TABLES",
    "FIGURE15_CHANNEL",
    "FIGURE15_REFERENCE",
    "FIGURE14_OPTIMAL_SOURCE_FRACTION",
    "get_table_summary",
]
