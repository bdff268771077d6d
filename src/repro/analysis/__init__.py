"""Result analysis and reporting helpers.

* :mod:`repro.analysis.tables` -- render grid sweeps as the appendix-style
  (p, q) tables of the paper, with "-" marking non-decodable points.
* :mod:`repro.analysis.surfaces` -- coarse ASCII rendering of a grid (a
  text stand-in for the paper's 3-D gnuplot surfaces).
* :mod:`repro.analysis.csvio` -- CSV export/import of grid results.
* :mod:`repro.analysis.comparison` -- fixed-channel comparisons across
  (code, tx model) tuples (figure 15).
* :mod:`repro.analysis.paper_data` -- reference values transcribed from the
  paper, used by the appendix-table benchmarks and the shape-checking tests.
* :mod:`repro.analysis.report` -- plain-text reports combining the above.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "comparison": "ComparisonResult compare_at_point",
    "csvio": "grid_from_csv grid_to_csv",
    "paper_data": "PAPER_TABLES PaperTableSummary",
    "surfaces": "ascii_surface",
    "tables": "format_comparison_table format_grid_table",
    "report": "recommendation_report",
})

__all__ = [
    "format_grid_table",
    "format_comparison_table",
    "ascii_surface",
    "grid_to_csv",
    "grid_from_csv",
    "compare_at_point",
    "ComparisonResult",
    "PAPER_TABLES",
    "PaperTableSummary",
    "recommendation_report",
]
