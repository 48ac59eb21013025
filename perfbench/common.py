"""Locating the package under test, and the facts of the machine and build.

The benchmark imports ``tsclab`` from the ``src`` directory of the checkout
it sits in, never from an installed copy, so that it measures the code next
to it. A checkout without ``src/tsclab`` or ``configs`` is an error.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_tsclab():
    """Import ``tsclab`` from this checkout's ``src``; raise SetupError if absent."""
    if not (SRC / "tsclab" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'tsclab'}")
    if not CONFIGS.is_dir():
        raise SetupError(f"no config directory at {CONFIGS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tsclab

    if not Path(tsclab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"tsclab imported from {tsclab.__file__}, not from {SRC}")
    return tsclab


def _process_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def machine_facts(tsclab) -> dict:
    """What a result depends on besides the code: cores, BLAS and versions.

    ``process_threads`` is read after numpy has loaded its BLAS, so it
    counts the BLAS worker threads the process started with. The thread
    variables are reported as inherited; the benchmark sets none.
    """
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "process_threads": _process_threads(),
        "tsclab_backend": tsclab.BACKEND,
        "tsclab_compiled": tsclab.COMPILED,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
