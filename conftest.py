"""Test-session setup that must run before numpy loads.

BLAS splits sums across its threads, so the last digits of a logistic or
PCA fit, and so the bytes of a saved model, depend on the thread count.
One thread, as ``perfbench/run.py`` sets, makes the pinned digests hold on
any host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
