"""Run one workload of the hpss benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload strip16k-gmres --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the environment record.  A detail record (every pass,
check and failure, and with ``--trace 1`` the spans of the last traced
pass) is written to ``perfbench/out/``.

hpss is imported from ``src/`` of the same checkout and nowhere else.  BLAS
and hpss thread counts are pinned to one before numpy is imported.
"""

import os

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "HPSS_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_hpss() -> Any:
    """Import hpss from this checkout's ``src/``; exit if it is not there."""
    package = ROOT / "src" / "hpss"
    if not (package / "__init__.py").is_file():
        sys.exit(f"hpss sources not found at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(package.parent))
    import hpss

    if Path(hpss.__file__).resolve().parent != package:
        sys.exit(f"imported hpss from {hpss.__file__}, not from this checkout")
    return hpss


def git_commit(root: Path) -> Optional[str]:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "git_commit": git_commit(ROOT),
    }


def main(argv: Optional[list] = None) -> int:
    import_hpss()
    from workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    detail["environment"] = env
    detail["result"] = result
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail))
    print("environment " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
