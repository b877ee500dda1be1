"""The `waring` console command: `waring.cli.main` on one BLAS thread.

Float certificates go through numpy least squares and SVD, whose last
bits follow the BLAS thread count.  So before `waring` imports numpy, the
command sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to
1 wherever the caller has not set them; a value the caller set is kept.
This module sits outside the package because importing `waring` loads
numpy; the library itself sets no thread count.

    python -m waring_launcher rank "x0^3 + x1^3"
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from waring.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
