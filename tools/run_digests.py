"""Record sha256 digests of every file of a fixed set of short tsclab runs.

Usage: python3 tools/run_digests.py SRC OUT

SRC is the ``src`` directory of the checkout to run and OUT a new directory.
The runs go under OUT, and OUT/digests.txt gets one ``sha256  path`` line
per file, sorted by path, and each ``.npz`` also gets one
``sha256  path::member`` line per zip member, so a change that alters only
checkpoint meta shows as ``meta.npy`` lines alone. Every library run has 2
episodes of 720 steps and an update interval of 360, and reads the configs
next to this tool, so two checkouts get the same inputs. One
fixed-time run sends 2 vehicles/s into E_T, more than the lane holds, so
its vehicles stack at the lane's entry.
One toy8 training run has ``policy.max_len`` 1, so every update batch
holds one-token responses. Two toy8 eval runs sample at temperatures 0.5
and 1e-310, the second greedy, and one starts from the toy8 run's final
snapshot. Two runs train on from the snapshot that starts the toy8 run's
episode 1: one into a fresh directory, and one in place in a copy of the
toy8 run's directory, which must equal the toy8 run's file for file (the
tool exits with an error otherwise).
Three runs go through the command line (a baseline, and ``reward-hist``
with the default hurdle and with a config's); what each prints goes to a
``*_stdout.txt`` file, so the printed reports are digested too. Diff the
digests.txt of a parent checkout against a change's: a change that keeps
same-config, same-seed runs byte-identical shows no difference.

digests.txt starts with one ``#`` line naming the numpy version and the
OpenBLAS that numpy loaded: its config string and the name of the kernel it
picked (``OPENBLAS_CORETYPE`` overrides the pick). The training logs and
checkpoints depend on that kernel, so a diff of digests from two machines
shows on its first line whether their kernels differ.
"""

import contextlib
import ctypes
import hashlib
import os
import shutil
import sys
import zipfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def blas_facts(maps: str = "/proc/self/maps") -> str:
    """The OpenBLAS mapped into this process: its config string and kernel name.

    Found as ``tsclab._use_one_blas_thread`` finds it, by the library's path
    in the memory map, then asked through ``ctypes``; the getters carry the
    ``scipy_`` prefix and ``64_`` suffix in numpy's wheels.
    """
    try:
        with open(maps, encoding="utf-8", errors="replace") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return "OpenBLAS unknown (no memory map)"
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        facts = []
        for what in ("config", "corename"):
            for name in (f"scipy_openblas_get_{what}64_", f"scipy_openblas_get_{what}",
                         f"openblas_get_{what}64_", f"openblas_get_{what}"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_char_p
                    facts.append(getter().decode(errors="replace").strip())
                    break
        if len(facts) == 2:
            return f"{facts[0]}; core {facts[1]}"
    return "OpenBLAS not loaded"


def main(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src))
    import numpy as np
    import tsclab
    from tsclab import cli
    from tsclab.experiment import ExperimentConfig, ExperimentRunner, compare, run_config

    if not Path(tsclab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tsclab imported from {tsclab.__file__}, not from {src}")

    def config(name, out_name, **changes):
        cfg = ExperimentConfig.from_yaml(CONFIGS / f"{name}.yaml")
        cfg.episodes, cfg.out = 2, out_name
        cfg.trainer.episode_length, cfg.trainer.update_interval = 720, 360
        for key, value in changes.items():
            setattr(cfg, key, value)
        return cfg

    out.mkdir(parents=True)
    os.chdir(out)  # run directories are relative, so config_resolved.yaml names no absolute path
    for name in ("toy8", "toy4", "toy8_fixed", "toy8_maxpressure"):
        run_config(config(name, name))
    run_config(config("toy8", "toy8_random", controller="random"))
    run_config(config("toy8_maxpressure", "toy8_maxpressure_geometry",
                      topology_overrides={"road_length": 200.0, "yellow_duration": 3.0}))
    scripted = [{"time": t, "lane": lane} for t, lane in
                ((0, "N_T"), (0, "S_T"), (4, "E_L"), (30, "W_T"), (31, "W_T"), (200, "N_L"), (650, "S_L"))]
    run_config(config("toy8_fixed", "toy8_fixed_schedule", demand={"kind": "schedule", "spawns": scripted}))
    per_lane = {"kind": "poisson", "base_rate": 0.02, "rates": {"E_T": 0.15, "W_T": 0.15},
                "surges": [{"start": 100, "end": 400, "rates": {"N_T": 0.2, "E_T": 0.0}}]}
    run_config(config("toy4", "toy4_maxpressure_rates", controller="maxpressure", demand=per_lane))
    # E_T gets more arrivals than it can hold, so its vehicles stack at the entry (road_length)
    pile = config("toy8_fixed", "toy8_fixed_entry_pile")
    pile.demand = {**pile.demand, "rates": {"E_T": 2.0}}
    run_config(pile)

    reinforce = config("toy8", "toy8_reinforce")
    reinforce.trainer.use_critic, reinforce.trainer.gamma, reinforce.trainer.lam = False, 1.0, 1.0
    reinforce.reward.w_e, reinforce.reward.h_r, reinforce.reward.beta = 0.0, 0.5, 0.1
    run_config(reinforce)

    # every response is one token, so each update trains on length-1 batches
    one_token = config("toy8", "toy8_one_token")
    one_token.policy.max_len = 1
    run_config(one_token)

    ExperimentRunner(config("toy8", "toy8_eval_restored"), checkpoint="toy8/ckpt_final.npz").evaluate()
    ExperimentRunner(config("toy8", "toy8_eval_t05")).evaluate(temperature=0.5)
    # every logit but the largest scales below the float range, so each draw is the argmax
    ExperimentRunner(config("toy8", "toy8_eval_greedy")).evaluate(temperature=1e-310)
    ExperimentRunner(config("toy8", "toy8_resumed"), checkpoint="toy8/ckpt_ep001_t00000.npz").train()
    # toy8's own config, as after a crash that followed the snapshot: each run log is cut back to its length then
    shutil.copytree("toy8", "toy8_resumed_in_place")
    ExperimentRunner(config("toy8", "toy8"), out_dir="toy8_resumed_in_place",
                     checkpoint="toy8_resumed_in_place/ckpt_ep001_t00000.npz").train()
    toy8, in_place = ({p.name: p.read_bytes() for p in Path(d).iterdir()} for d in ("toy8", "toy8_resumed_in_place"))
    differ = sorted(name for name in toy8.keys() | in_place.keys() if toy8.get(name) != in_place.get(name))
    if differ:
        raise SystemExit(f"toy8_resumed_in_place differs from toy8 in {differ}")
    baselines = [config("toy8_fixed", "compare"), config("toy8_maxpressure", "compare")]
    compare(baselines, [3, 4], "compare", labels=["fixed", "maxpressure"])

    log = "toy8/ep000_decisions.jsonl"
    for name, argv in (
        ("cli_baseline", ["baseline", "--config", str(CONFIGS / "toy8_maxpressure.yaml"), "--episodes", "1"]),
        ("cli_hist_default", ["reward-hist", log]),
        ("cli_hist_config", ["reward-hist", log, "--config", str(CONFIGS / "toy8.yaml")]),
    ):
        with open(f"{name}_stdout.txt", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = cli.main([*argv, "--out", name])
        if code != 0:
            raise SystemExit(f"{name}: tsclab exited with {code}")

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    files = sorted(p for p in Path(".").rglob("*") if p.is_file())
    lines = [f"# numpy {np.__version__}; {blas_facts()}"]
    for p in files:
        lines.append(f"{sha(p.read_bytes())}  {p.as_posix()}")
        if p.suffix == ".npz":
            with zipfile.ZipFile(p) as archive:
                for member in sorted(archive.namelist()):
                    lines.append(f"{sha(archive.read(member))}  {p.as_posix()}::{member}")
    Path("digests.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(files)} files ({len(lines) - 1} digests) into {out / 'digests.txt'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
