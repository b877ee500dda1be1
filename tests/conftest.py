"""Pin the BLAS under numpy to one thread before numpy loads.

Float certificates go through numpy least squares and SVD, whose last bits
follow the BLAS thread count, and `test_certificate_bytes` pins float
quartic and ternary certificates.  `perfbench/run.py` pins one thread too.
pytest loads this file at startup, before it collects any test module
(those under `perfbench/` included), so numpy starts single-threaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
