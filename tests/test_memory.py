"""Peak allocation of the embeddings: the (n, 2D) output and nothing more.

Each feature is written once, into its final column, so an embedding must
not hold a second copy of its output at any point.  ``tracemalloc`` sees
numpy's data buffers, so its peak bounds what the call allocated.
"""
import tracemalloc

import numpy as np

from quadfeat.featuremaps import anova_compose, rff
from quadfeat.kernels import random_anova

PEAK_OVER_OUTPUT = 1.1


def _peak_ratio(fm, X) -> float:
    fm.embed_batch(X[:1])  # frequencies and weight roots are cached on first use
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        Z = fm.embed_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / Z.nbytes


def test_feature_map_peak_is_the_output():
    fm = rff(25, 1351, 0.5, seed=0)
    X = np.random.default_rng(0).standard_normal((1000, 25))
    assert _peak_ratio(fm, X) <= PEAK_OVER_OUTPUT


def test_anova_feature_map_peak_is_the_output():
    kernel = random_anova(d=40, m=10, subset_size=5, gamma=0.1, seed=0)
    fm = anova_compose(kernel, lambda dim, D: rff(dim, D, 0.1, seed=dim), 40)
    X = np.random.default_rng(1).standard_normal((5000, 40))
    assert _peak_ratio(fm, X) <= PEAK_OVER_OUTPUT
