"""Peak allocation of the embeddings and of ``quadfeat embed``'s writer.

Each feature is written once, into its final column, so an embedding must
not hold a second copy of its output at any point.  The writer formats a
fixed number of values at a time, so its peak is a constant, however many
rows a block has.  ``tracemalloc`` sees numpy's data buffers, so its peak
bounds what the call allocated.
"""
import tracemalloc

import numpy as np
import pytest

from quadfeat import cli
from quadfeat.featuremaps import PHASE_BUFFER, anova_compose, rff
from quadfeat.kernels import random_anova

PEAK_OVER_OUTPUT = 1.1
WRITER_PEAK_BYTES = 4 * 2**20


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


class _Discard:
    def write(self, data):
        pass


@pytest.mark.parametrize("rows", [2**6, 2**10, 2**14])
def test_writer_peak_is_a_constant(rows):
    # one full block of the embed command; its text would take 26 MB
    Z = np.random.default_rng(2).standard_normal((rows, PHASE_BUFFER // rows))
    cli._write_csv(_Discard(), Z[:1])  # the formatting tables are made on first use
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._write_csv(_Discard(), Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITER_PEAK_BYTES
