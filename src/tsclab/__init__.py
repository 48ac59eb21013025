"""Desk-scale traffic signal control with a token-level learned policy.

A deterministic single-intersection queue simulator, a tiny
token-emitting policy trained with clipped policy gradients and a KL
penalty toward its frozen initial weights, entropy-gated reward shaping
over repeated sampled responses, and classic fixed-time / max-pressure
baselines, all driven from seeded YAML configs.
"""

import ctypes
import os

from ._kernels import BACKEND, COMPILED
from .baselines import FixedTimeController, MaxPressureController, RandomController
from .experiment import ExperimentConfig, ExperimentRunner, compare, reward_histogram, run_config
from .phases import Vocabulary, extract_phase, verbalize
from .policy import TokenPolicy, ValueHead
from .rewards import RewardConfig
from .sim import DemandProfile, Intersection, Topology, build_topology
from .trainer import PPOTrainer, TrainerConfig, gae, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _use_one_blas_thread(maps: str = "/proc/self/maps") -> None:
    """Set the OpenBLAS that numpy has loaded to one thread.

    The matrices here are small: a second OpenBLAS thread saves no wall
    time and spins a core between calls. OpenBLAS reads its thread
    variables once, when it loads, and a host may load numpy before this
    package, so the count is set through the library itself. An explicit
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` wins. Nothing happens
    where ``maps`` (the process's memory map) cannot be read or lists no
    OpenBLAS, as with Accelerate, MKL or a host without ``/proc``.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open(maps, encoding="utf-8", errors="replace") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


_use_one_blas_thread()

__all__ = [
    "BACKEND",
    "COMPILED",
    "DemandProfile",
    "ExperimentConfig",
    "ExperimentRunner",
    "FixedTimeController",
    "Intersection",
    "MaxPressureController",
    "PPOTrainer",
    "RandomController",
    "RewardConfig",
    "TokenPolicy",
    "Topology",
    "TrainerConfig",
    "ValueHead",
    "Vocabulary",
    "build_topology",
    "compare",
    "extract_phase",
    "gae",
    "load_checkpoint",
    "reward_histogram",
    "run_config",
    "save_checkpoint",
    "verbalize",
    "__version__",
]
