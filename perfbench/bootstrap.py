"""Process set-up shared by the benchmark and its set-up probes.

Importing this module pins the BLAS pools to one thread (before numpy is
loaded) and puts the checkout's ``src`` on the import path, so the
benchmark always measures the source tree it sits in.
"""

import os
import sys
from pathlib import Path

#: Thread settings applied to this process and inherited by its children.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

os.environ.update(BLAS_ENV)
if not (SRC / "slicemean" / "__init__.py").is_file():
    sys.exit(f"error: no slicemean sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
