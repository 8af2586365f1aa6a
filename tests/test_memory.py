"""Peak allocation of the embeddings, of ``quadfeat embed``'s writer and of
the error measurement.

Each feature is written once, into its final column, so an embedding must
not hold a second copy of its output at any point; beyond the output it
holds only its two scratch arrays of at most ``BLOCK`` phase entries (one
row each for a part of more than ``BLOCK`` cosine terms).  The
writer formats a fixed number of values at a time, so its peak is a
constant, however many rows a block has.  The error measurement holds the
displacement sample, at most one scaled copy of it and the kernel's
temporaries, and no (n, D) array.  ``tracemalloc`` sees numpy's data buffers, so its peak
bounds what the call allocated.
"""
import tracemalloc

import numpy as np
import pytest

from quadfeat import cli
from quadfeat.featuremaps import BLOCK, AnovaFeatureMap, anova_compose, rff
from quadfeat.harness import error_curve
from quadfeat.kernels import GaussianKernel, random_anova

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


WIDE = BLOCK + 1000  # cosine terms of a part wider than one block


def _wide_plain_map():
    return rff(3, WIDE, 0.5, seed=3)


def _wide_anova_map():
    # the wide part, then a narrow one gathered from the other input column
    return AnovaFeatureMap((((1, 3), rff(2, WIDE, 0.5, seed=4)),
                            ((2,), rff(1, 40, 0.5, seed=5))), 3)


@pytest.mark.parametrize("make", [_wide_plain_map, _wide_anova_map],
                         ids=["plain", "anova"])
@pytest.mark.parametrize("rows", [1, 10, 100])
def test_a_part_wider_than_a_block_takes_one_row_of_scratch(make, rows):
    # such a part is embedded a row at a time, so each of the two scratch
    # arrays holds its one row
    fm = make()
    X = np.random.default_rng(rows).standard_normal((rows, fm.d))
    peak, output = _embedding_peak(fm, X)
    assert peak - output <= 2 * WIDE * 8 + 2**17


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


@pytest.mark.parametrize("Ms", [[0.5], [0.1, 0.25, 0.5, 1.0, 2.0]],
                         ids=["one", "five"])
def test_error_curve_holds_no_per_diameter_phases(Ms):
    # one (n, D) array would be 54 MB here; the sample is 1 MB
    fm, kernel, n = _plain_map(), GaussianKernel(0.5), 5000
    error_curve(fm, kernel, Ms, 10, seed=0)  # the frequencies are cached
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        error_curve(fm, kernel, Ms, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample = n * fm.d * 8
    # the sample, the kernel's squares and, for more than one diameter, one
    # scaled copy; one estimate per diameter and one difference; the phase
    # buffer and a block of scaled rows
    copies = 2 if len(Ms) == 1 else 3
    assert peak <= (copies * sample + (len(Ms) + 1) * n * 8
                    + BLOCK * 8 + BLOCK // fm.count * fm.d * 8 + 2**17)
