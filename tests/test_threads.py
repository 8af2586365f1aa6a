"""Results do not depend on the number of BLAS threads."""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# a d = 25 sweep over the paper's diameters (chains of one to three cosine
# doublings) without its timing columns, a five-block rff embedding and a
# four-block ANOVA embedding, hashed together
SCRIPT = """
import hashlib
import numpy as np
from quadfeat import featuremaps, harness, kernels

digest = hashlib.sha1()
reports = harness.sweep({"methods": ["rff", "qmc", "subsampled", "poly-exact"],
                         "d": 25, "gamma": 0.5, "D": [1351],
                         "M": [0.1, 0.25, 0.5, 1.0, 2.0],
                         "seeds": [0], "n_eval": 2000})
digest.update(harness.strip_timing_columns(harness.reports_to_csv(reports)).encode())
rng = np.random.default_rng(7)
fm = featuremaps.rff(25, 1351, 0.5, seed=0)
assert 100 > 4 * featuremaps._block_rows(fm.count)
digest.update(fm.embed_batch(rng.standard_normal((100, 25))).tobytes())
kernel = kernels.random_anova(d=40, m=10, subset_size=5, gamma=0.1, seed=0)
anova = harness.build_anova_map(kernel, "rff", 400, seed=0)
assert 300 > 3 * featuremaps._block_rows(400)
digest.update(anova.embed_batch(rng.standard_normal((300, 40))).tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_one_and_two_blas_threads_give_the_same_bytes():
    assert _digest(2) == _digest(1)
