"""Importing tsclab sets the OpenBLAS that numpy loaded to one thread.

The setter acts once, at import, and this test process imported the package
long ago, so each case runs in a fresh interpreter with a controlled
environment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports numpy before tsclab, as a host may, then prints the thread count of
# the mapped OpenBLAS through its own getter, or "none" without one.
READ_BACK = """
import ctypes
import numpy
import tsclab
libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.split()[-1]})
names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
getters = [getattr(ctypes.CDLL(p), n, None) for p in libs for n in names]
getters = [g for g in getters if g is not None]
if getters:
    getters[0].restype = ctypes.c_int
    print(getters[0]())
else:
    print("none")
"""


def _run(code: str, **env) -> str:
    clean = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    clean.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code], env=clean, capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.strip()


def _threads(**env) -> int:
    out = _run(READ_BACK, **env)
    if out == "none":
        pytest.skip("numpy here is not built on OpenBLAS")
    return int(out)


def test_import_sets_one_thread():
    assert _threads() == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the core count")
def test_explicit_thread_count_wins():
    assert _threads(OPENBLAS_NUM_THREADS="2") == 2


def test_no_openblas_mapped_is_a_no_op(tmp_path):
    other = tmp_path / "other_maps"
    other.write_text("7f0000000000-7f0000001000 r-xp 00000000 fe:00 1 /usr/lib/libm.so.6\n")
    missing_lib = tmp_path / "missing_maps"
    missing_lib.write_text(f"7f0000000000-7f0000001000 r-xp 00000000 fe:00 1 {tmp_path}/libopenblas.so\n")
    calls = "; ".join(
        f"tsclab._use_one_blas_thread({str(p)!r})" for p in (other, missing_lib, tmp_path / "no_such_file")
    )
    assert _run(f"import tsclab; {calls}; print('ok')") == "ok"
