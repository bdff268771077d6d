"""Figure 11 / Tables 5-6 -- Tx_model_4: everything in random order.

Expected shape (paper, section 4.6): performance is almost independent of
the packet loss behaviour; RSE is the worst code (coupon collector across
blocks), LDGM Staircase is better and LDGM Triangle at least as good; and
the surfaces are flat across the decodable region.
"""

import numpy as np

from _shared import BENCH_RUNS, print_figure_report, run_figure_experiment


def bench_fig11_tx_model4(run_once):
    grids = run_once(run_figure_experiment, "fig11", runs=BENCH_RUNS)
    print_figure_report("fig11", grids)

    def pick(code, ratio):
        return next(
            grid for label, grid in grids.items() if code in label and str(ratio) in label
        )

    for ratio in (1.5, 2.5):
        staircase = pick("staircase", ratio)
        triangle = pick("triangle", ratio)
        rse = pick("rse", ratio)
        # Flat surfaces: the spread over the decodable region is small for
        # the LDGM codes (paper: ~0.02 at k = 20000; a little wider here).
        for grid in (staircase, triangle):
            spread = grid.max_inefficiency() - grid.min_inefficiency()
            assert spread < 0.12
        # LDGM Triangle is at least on par with Staircase on average.
        assert triangle.mean_over_decodable() <= staircase.mean_over_decodable() + 0.02
        # Note: at k = 2000 the RSE object spans ~20 blocks only, so the
        # coupon-collector penalty (which makes RSE clearly worst at
        # k = 20000) is muted.
        assert np.isfinite(rse.mean_over_decodable())
