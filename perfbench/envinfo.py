"""Print the machine and numeric-library configuration as one JSON line.

Run as a child process with the same environment as the pipeline, so it
reports the BLAS build and thread settings the pipeline actually sees.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    info = deps.get("blas", {})
    return {"name": info.get("name"), "version": info.get("version"),
            "configuration": info.get("openblas configuration")}


def main() -> int:
    print(json.dumps({
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
