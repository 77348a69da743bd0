"""Reducers for per-repetition times.

Host speed on a small shared machine drifts between levels about 1.45x
apart, and a level often lasts longer than a whole run.  A run's low quantile
then reads the fast level in some runs and the slow one in others, while its
median follows the level the run spent most of its time in: across runs of
different seeds the median was the steadier of the two (perfbench/README.md
gives the figures).  Every gated timing is therefore the median of many
repetitions; minimum, first quartile and p90 are reported ungated.
"""

from __future__ import annotations

import statistics

import numpy as np

# Quantile that stands for a repeated timing in every gated metric.
REDUCE_Q = 0.5


def reduce_times(values):
    """The quantile that stands for a repeated timing."""
    return float(np.quantile(values, REDUCE_Q))


def summary(values):
    """Sample count, minimum, first quartile, median and p90 of a sample."""
    mn, q1, med, p90 = (float(x) for x in np.quantile(values, [0.0, 0.25, 0.5, 0.9]))
    return {"n": len(values), "min": mn, "q1": q1, "median": med, "p90": p90}


def relative_spread(values):
    """Inter-quartile distance as a share of the median, as the acceptance check uses."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
