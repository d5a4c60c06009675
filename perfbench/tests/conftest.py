import os
import sys
from pathlib import Path

# Same pinning as the runner, before anything imports numpy.
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HPSS_THREADS"):
    os.environ[name] = "1"

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
