"""Peak allocation of the embeddings and of ``quadfeat embed``'s writer.

Each feature is written once, into its final column, so an embedding must
not hold a second copy of its output at any point; beyond the output it
holds only its two scratch arrays of at most ``BLOCK`` phase entries.  The
writer formats a fixed number of values at a time, so its peak is a
constant, however many rows a block has.  ``tracemalloc`` sees numpy's data buffers, so its peak
bounds what the call allocated.
"""
import tracemalloc

import numpy as np
import pytest

from quadfeat import cli
from quadfeat.featuremaps import BLOCK, anova_compose, rff
from quadfeat.kernels import random_anova

PEAK_OVER_OUTPUT = 1.1
# the two scratch arrays, plus numpy's 64 KiB ufunc buffer (the broadcast
# scaling by sqrt(a) takes one) and the concatenated weight roots
SCRATCH_BYTES = 2 * BLOCK * 8 + 2**17
WRITER_PEAK_BYTES = 4 * 2**20


def _embedding_peak(fm, X) -> tuple[int, int]:
    """The peak bytes allocated while embedding X, and the output's bytes."""
    fm.embed_batch(X[:1])  # frequencies and weight roots are cached on first use
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        Z = fm.embed_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, Z.nbytes


def _peak_ratio(fm, X) -> float:
    peak, output = _embedding_peak(fm, X)
    return peak / output


def _plain_map():
    return rff(25, 1351, 0.5, seed=0)


def _anova_map():
    kernel = random_anova(d=40, m=10, subset_size=5, gamma=0.1, seed=0)
    return anova_compose(kernel, lambda dim, D: rff(dim, D, 0.1, seed=dim), 40)


def test_feature_map_peak_is_the_output():
    X = np.random.default_rng(0).standard_normal((1000, 25))
    assert _peak_ratio(_plain_map(), X) <= PEAK_OVER_OUTPUT


def test_anova_feature_map_peak_is_the_output():
    X = np.random.default_rng(1).standard_normal((5000, 40))
    assert _peak_ratio(_anova_map(), X) <= PEAK_OVER_OUTPUT


@pytest.mark.parametrize("make", [_plain_map, _anova_map], ids=["plain", "anova"])
@pytest.mark.parametrize("rows", [1, 10, 1000, 5000])
def test_peak_beyond_the_output_is_a_fixed_scratch(make, rows):
    fm = make()
    X = np.random.default_rng(rows).standard_normal((rows, fm.d))
    peak, output = _embedding_peak(fm, X)
    assert peak - output <= SCRATCH_BYTES


class _Discard:
    def write(self, data):
        pass


@pytest.mark.parametrize("rows", [2**6, 2**10, 2**14])
def test_writer_peak_is_a_constant(rows):
    # one full block of the embed command; its text would take 26 MB
    Z = np.random.default_rng(2).standard_normal((rows, cli.EMBED_BLOCK // rows))
    cli._write_csv(_Discard(), Z[:1])  # the formatting tables are made on first use
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._write_csv(_Discard(), Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITER_PEAK_BYTES
