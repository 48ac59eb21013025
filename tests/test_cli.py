import json
from pathlib import Path

import pytest
import yaml

from tsclab.cli import main

TINY_TRAINER = {
    "episode_length": 200,
    "update_interval": 100,
    "checkpoint_interval": 100,
    "decision_interval": 10,
    "buffer_window": 120,
    "g_responses": 8,
    "batch_size": 6,
    "batches_per_update": 1,
}


def write_config(path, **over):
    base = {
        "topology": "toy8",
        "demand": {"kind": "poisson", "base_rate": 0.03},
        "controller": "policy",
        "episodes": 1,
        "seed": 0,
        "holdout_eval": False,
        "trainer": dict(TINY_TRAINER),
        "policy": {"d_embed": 4, "d_hidden": 8, "max_len": 8},
    }
    base.update(over)
    Path(path).write_text(yaml.safe_dump(base))
    return str(path)


class TestValidationFailures:
    def test_train_without_config(self, capsys):
        assert main(["train"]) == 2
        assert "config" in capsys.readouterr().err

    def test_train_with_baseline_controller(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        assert main(["train", "--config", cfg]) == 2
        assert "policy" in capsys.readouterr().err

    def test_baseline_with_policy_controller(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["baseline", "--config", cfg]) == 2
        assert "controller" in capsys.readouterr().err

    def test_bad_episode_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        assert main(["baseline", "--config", cfg, "--episodes", "0"]) == 2
        assert "episodes" in capsys.readouterr().err

    def test_negative_arrival_rate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="fixed", demand={"kind": "poisson", "base_rate": -0.5}
        )
        out = tmp_path / "out"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == 2
        assert "base_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_rejects_a_config_before_making_its_output(self, tmp_path, capsys):
        bad = {"kind": "poisson", "base_rate": -0.5}
        a = write_config(tmp_path / "a.yaml", controller="fixed", demand=bad)
        b = write_config(tmp_path / "b.yaml", controller="maxpressure", demand=bad)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", a, "--config", b, "--seed", "0", "--out", str(out)]) == 2
        assert "base_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_needs_two_configs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        assert main(["compare", "--config", cfg, "--seed", "0"]) == 2
        assert "two" in capsys.readouterr().err

    def test_reward_hist_missing_file(self, tmp_path, capsys):
        assert main(["reward-hist", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_eval_truncated_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        data = (tmp_path / "train" / "ckpt_final.npz").read_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        rc = main(["eval", "--config", cfg, "--out", str(tmp_path / "eval"), "--checkpoint", str(cut)])
        assert rc == 2
        assert "error: unreadable checkpoint" in capsys.readouterr().err

    def test_baseline_zero_decision_interval(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="random", trainer={**TINY_TRAINER, "decision_interval": 0}
        )
        assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: decision_interval must be >= 1" in capsys.readouterr().err

    def test_train_zero_update_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", trainer={**TINY_TRAINER, "update_interval": 0})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: update_interval must be >= 1" in capsys.readouterr().err

    def test_decision_interval_shorter_than_yellow(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="random", trainer={**TINY_TRAINER, "decision_interval": 3}
        )
        assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: decision_interval 3 is shorter than the yellow interval 5")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, low", [("max_len", 0, 1), ("k_history", -1, 0), ("d_embed", 0, 1), ("d_hidden", 0, 1)]
    )
    def test_policy_shape_out_of_range(self, tmp_path, capsys, field, value, low):
        policy = {"d_embed": 4, "d_hidden": 8, "max_len": 8, field: value}
        cfg = write_config(tmp_path / "c.yaml", policy=policy)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: policy.{field} must be >= {low}")
        assert not (tmp_path / "out").exists()


class TestHappyPaths:
    def test_baseline_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="maxpressure")
        out = tmp_path / "out"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ep000_steps.csv").exists()
        assert (out / "metrics.csv").exists()
        assert "episode 0" in capsys.readouterr().out

    def test_controller_override_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        out = tmp_path / "out"
        assert main(
            ["baseline", "--config", cfg, "--controller", "random", "--out", str(out)]
        ) == 0
        info = json.loads((out / "run_info.json").read_text())
        assert info["controller"] == "random"

    def test_train_then_eval_from_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "train"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ckpt = out / "ckpt_final.npz"
        assert ckpt.exists()
        eval_out = tmp_path / "eval"
        rc = main(
            [
                "eval", "--config", cfg, "--out", str(eval_out),
                "--checkpoint", str(ckpt), "--temperature", "1e-6",
            ]
        )
        assert rc == 0
        assert (eval_out / "metrics.csv").exists()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main(["baseline", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
            outs.append((out / "ep000_steps.csv").read_text())
        assert outs[0] != outs[1]

    def test_compare_and_reward_hist(self, tmp_path, capsys):
        a = write_config(tmp_path / "fixed.yaml", controller="fixed")
        b = write_config(tmp_path / "mp.yaml", controller="maxpressure")
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--config", a, "--config", b, "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "comparison.csv").exists()
        captured = capsys.readouterr().out
        assert "fixed:" in captured and "mp:" in captured

        jsonl = next(out.glob("fixed_seed0/ep000_decisions.jsonl"))
        hist_out = tmp_path / "hist"
        rc = main(
            ["reward-hist", str(jsonl), "--hurdle", "0.0", "--out", str(hist_out)]
        )
        assert rc == 0
        data = json.loads((hist_out / "reward_hist.json").read_text())
        assert data["n"] == 20
