import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from tsclab.cli import main
from tsclab.experiment import RUNNER_META
from tsclab.policy import META_FIELDS
from tsclab.trainer import CHECKPOINT_VERSION, TRAINER_META

TINY_TRAINER = {
    "episode_length": 200,
    "update_interval": 100,
    "decision_interval": 10,
    "buffer_window": 120,
    "g_responses": 8,
    "batch_size": 6,
    "batches_per_update": 1,
}

NAN, INF = float("nan"), float("inf")
# float knobs with a value each one's check must refuse
BAD_TRAINER_FLOATS = [
    ("eps_low", NAN), ("eps_high", NAN), ("eps_value", NAN),
    ("alpha", NAN), ("actor_lr", NAN), ("actor_lr", -1.0), ("value_lr", INF),
    ("actor_weight_decay", NAN), ("value_weight_decay", -1.0),
    ("grad_clip_policy", -1.0), ("grad_clip_value", NAN),
]
BAD_REWARD_FLOATS = [("tau", NAN), ("beta", NAN), ("w_e", NAN), ("h_r", NAN), ("h_r", INF)]
# integer and boolean knobs with a value of the wrong type, or a bool taken for a number
BAD_TRAINER_TYPES = [
    ("episode_length", 100.5), ("g_responses", 2.5), ("decision_interval", 10.5), ("update_interval", True),
    ("buffer_window", 120.0), ("batch_size", 6.5), ("batches_per_update", 1.5),
    ("eps_low", True), ("use_critic", 0.5), ("use_critic", 1), ("gamma", True), ("lam", False),
]
# topology geometry must lie in (0, inf) and yellow_duration in [0, inf), neither a bool
BAD_GEOMETRY = [
    ("yellow_duration", NAN), ("road_length", NAN), ("road_length", INF), ("free_flow_speed", NAN),
    ("road_length", True), ("saturation_headway", NAN),
]
SURGE = {"end": 100, "rate": 0.5, "lanes": ["N_T"]}
# demand whose surge windows or spawn times a run would silently skip
BAD_DEMANDS = [
    ("surge_start_nan", {"kind": "poisson", "base_rate": 0.03, "surges": [{**SURGE, "start": NAN}]}, "surges[0]"),
    ("surge_end_before_start", {"kind": "poisson", "base_rate": 0.03, "surges": [{**SURGE, "start": 150, "end": 50}]},
     "surges[0]"),
    ("spawn_time_-5", {"kind": "schedule", "spawns": [{"time": 0, "lane": "N_T"}, {"time": -5, "lane": "S_T"}]},
     "spawns[1].time"),
    ("spawn_time_nan", {"kind": "schedule", "spawns": [{"time": 0, "lane": "N_T"}, {"time": NAN, "lane": "S_T"}]},
     "spawns[1].time"),
]
# demand specs a run would misread or drop a part of without a word: unknown and missing keys,
# bools and strings taken for numbers, and a string taken for a list of lanes
BAD_DEMAND_SPECS = [
    ({"kind": "poisson", "base_rat": 0.05}, "demand.base_rat"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": 100, "rate": 0.5, "lane": ["N_T"]}]}, "surges[0].lane"),
    ({"kind": "schedule", "spawn": [{"time": 0, "lane": "N_T"}]}, "demand.spawn"),
    ({"kind": "schedule", "spawns": [{"time": 0, "lane": "N_T", "speed": 3.0}]}, "spawns[0].speed"),
    ({"kind": "poisson", "surges": [{"start": 0, "rate": 0.5, "lanes": ["N_T"]}]}, "surges[0].end"),
    ({"kind": "poisson", "surges": [{"end": 100, "rate": 0.5, "lanes": ["N_T"]}]}, "surges[0].start"),
    ({"kind": "schedule", "spawns": [{"lane": "N_T"}]}, "spawns[0].time"),
    ({"kind": "schedule", "spawns": [{"time": 3}]}, "spawns[0].lane"),
    ({"kind": "poisson", "rates": {"N_T": True}}, "rates['N_T']"),
    ({"kind": "poisson", "rates": {"N_T": "0.5"}}, "rates['N_T']"),
    ({"kind": "poisson", "base_rate": True}, "base_rate"),
    ({"kind": "poisson", "surges": [{"start": True, "end": 100, "rate": 0.5, "lanes": ["N_T"]}]}, "surges[0].start"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": "100", "rate": 0.5, "lanes": ["N_T"]}]}, "surges[0].end"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": 100, "rate": 0.5, "lanes": "N_T"}]}, "surges[0].lanes"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": 100, "lanes": ["N_T"]}]}, "surges[0]: rate and lanes"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": 100, "rate": 0.5}]}, "surges[0]: rate and lanes"),
    # a value of the wrong shape: a mapping or a list where the other, or a scalar, belongs
    ([0.1], "'demand' must be a mapping"),
    (5, "'demand' must be a mapping"),
    ({"kind": ["poisson"]}, "demand kind"),
    ({"kind": "poisson", "rates": [0.1]}, "'demand.rates' must be a mapping"),
    ({"kind": "poisson", "surges": [{"start": 0, "end": 100, "rates": [0.1]}]}, "'demand.surges[0].rates' must be"),
    ({"kind": "poisson", "surges": 5}, "'demand.surges' must be a list"),
    ({"kind": "poisson", "surges": {"a": 1}}, "'demand.surges' must be a list"),
    ({"kind": "schedule", "spawns": 5}, "'demand.spawns' must be a list"),
]
# an inline two-lane topology, and changes to it that a run would misread or ignore
PAIR = {
    "name": "pair",
    "lanes": [{"lane_id": "A"}, {"lane_id": "B"}],
    "phases": [{"mnemonic": "AX", "allowed_lanes": ["A"]}, {"mnemonic": "BX", "allowed_lanes": ["B"]}],
}


def pair(lanes=({}, {}), phases=({}, {}), **top):
    """PAIR with ``top`` merged at its top level, and each dict of ``lanes`` and ``phases`` into that entry."""
    return {
        **PAIR,
        **top,
        "lanes": [{**entry, **change} for entry, change in zip(PAIR["lanes"], lanes)],
        "phases": [{**entry, **change} for entry, change in zip(PAIR["phases"], phases)],
    }


BAD_TOPOLOGIES = [
    (pair(yellow=3.0), "topology.yellow"),
    (pair(lanes=({"road_lenght": 50}, {})), "lanes[0].road_lenght"),
    (pair(phases=({"desc": "A only"}, {})), "phases[0].desc"),
    (pair(phases=({"index": 0.7}, {})), "phases[0].index"),
    (pair(phases=({}, {"index": True})), "phases[1].index"),
    (pair(phases=({"allowed_lanes": "AB"}, {})), "phases[0].allowed_lanes"),
    ({**PAIR, "lanes": 5}, "'topology.lanes' must be a list"),
    ({**PAIR, "phases": 5}, "'topology.phases' must be a list"),
    (["toy8"], "unknown topology preset"),
    ({"lanes": [], "phases": []}, "at least one lane and one phase"),
]
BAD_TOP_TYPES = [
    ("episodes", 1.5), ("seed", 1.5), ("seed", -1), ("default_phase", 1.5), ("default_phase", True),
    ("t_fixed", True), ("topology_overrides", [1]), ("out", 5),
]
# config keys and values that no longer exist, each set to what was once valid: (config change, key)
REMOVED = [
    ({"action_from_extra_sample": False}, "action_from_extra_sample"),
    ({"holdout_eval": True}, "holdout_eval"),
    ({"reward": {"env_mode": "queue_difference"}}, "reward.env_mode"),
    ({"reward": {"entropy_mode": "softmax_dse"}}, "reward.entropy_mode"),
    ({"trainer": {**TINY_TRAINER, "value_clip_mode": "standard"}}, "trainer.value_clip_mode"),
    ({"trainer": {**TINY_TRAINER, "temperature": 1.0}}, "trainer.temperature"),
    ({"trainer": {**TINY_TRAINER, "checkpoint_interval": 720}}, "trainer.checkpoint_interval"),
]

# a config or decision log that is not a readable file: (id, command, YAML text of the file, or None for a directory)
BAD_FILES = [
    ("unclosed_brace", "eval", "demand: {kind: poisson\ncontroller: fixed\n"),
    ("config_dir", "eval", None),
    ("log_dir", "reward-hist", None),
]


def meta(**sections):
    """The path kind ``meta <JSON>`` of a meta holding every key, with ``sections`` in place of its own."""
    whole = {
        "version": CHECKPOINT_VERSION,
        "config_hash": "0" * 64,
        "policy_meta": dict.fromkeys(META_FIELDS, 1),
        "trainer_meta": dict.fromkeys(TRAINER_META, 0),
        "runner_meta": dict.fromkeys(RUNNER_META, 0),
    }
    return "meta " + json.dumps({**whole, **sections})


# a checkpoint the command must refuse: (id, command, flag, controller, what the path is, a word of the error)
BAD_CHECKPOINTS = [
    ("resume_missing", "train", "--resume", "policy", "missing", "not found"),
    ("checkpoint_dir", "eval", "--checkpoint", "policy", "dir", "is not a file"),
    ("checkpoint_with_baseline", "eval", "--checkpoint", "fixed", "file", "requires controller 'policy'"),
    ("resume_unreadable", "train", "--resume", "policy", "file", "unreadable checkpoint"),
    ("checkpoint_npy", "eval", "--checkpoint", "policy", "npy", "not an .npz archive"),
    ("checkpoint_meta_list", "eval", "--checkpoint", "policy", "meta [1]", "meta holds a list, not a JSON object"),
    ("checkpoint_meta_version_only", "eval", "--checkpoint", "policy", 'meta {"version": 2}',
     "meta lacks config_hash, policy_meta, runner_meta, trainer_meta"),
    ("checkpoint_policy_meta_list", "eval", "--checkpoint", "policy", meta(policy_meta=[]),
     "ckpt.npz: policy_meta holds a list, not a JSON object"),
    ("checkpoint_policy_meta_without_vocab_size", "eval", "--checkpoint", "policy",
     meta(policy_meta={key: 1 for key in META_FIELDS if key != "vocab_size"}), "policy_meta lacks vocab_size"),
    ("resume_runner_meta_without_log_sizes", "train", "--resume", "policy",
     meta(runner_meta={key: 0 for key in RUNNER_META if key != "log_sizes"}), "runner_meta lacks log_sizes"),
    ("resume_other_config", "train", "--resume", "policy", "other_config", "config hash does not match"),
    ("checkpoint_other_config", "eval", "--checkpoint", "policy", "other_config", "config hash does not match"),
]


def write_config(path, **over):
    base = {
        "topology": "toy8",
        "demand": {"kind": "poisson", "base_rate": 0.03},
        "controller": "policy",
        "episodes": 1,
        "seed": 0,
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

    def test_bad_episode_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        assert main(["eval", "--config", cfg, "--episodes", "0"]) == 2
        assert "episodes" in capsys.readouterr().err

    def test_negative_arrival_rate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="fixed", demand={"kind": "poisson", "base_rate": -0.5}
        )
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 2
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

    def test_compare_rejects_a_negative_seed_before_making_its_output(self, tmp_path, capsys):
        a = write_config(tmp_path / "a.yaml", controller="fixed")
        b = write_config(tmp_path / "b.yaml", controller="maxpressure")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", a, "--config", b, "--seed", "0", "--seed", "-1", "--out", str(out)]) == 2
        assert "compare seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_in_a_config_section(self, tmp_path, capsys):
        trainer = {**TINY_TRAINER, "episode_lenght": 720}
        cfg = write_config(tmp_path / "c.yaml", trainer=trainer)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert "trainer.episode_lenght" in capsys.readouterr().err
        assert not out.exists()

    def test_config_section_that_is_not_a_mapping(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", reward=3)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert "'reward' must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_a_mapping(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(["toy8"]))
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: the config must be a mapping, got ['toy8']")
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [(c, t) for _, c, t in BAD_FILES], ids=[i for i, _, _ in BAD_FILES])
    def test_bad_file_rejected_before_any_output(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad"
        if text is None:
            bad.mkdir()
        else:
            bad.write_text(text)
        out = tmp_path / "out"
        args = [str(bad)] if command == "reward-hist" else ["--config", str(bad)]
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, controller, kind, message",
        [case[1:] for case in BAD_CHECKPOINTS],
        ids=[case[0] for case in BAD_CHECKPOINTS],
    )
    def test_bad_checkpoint_rejected_before_any_output(self, tmp_path, capsys, command, flag, controller, kind, message):
        cfg = write_config(tmp_path / "c.yaml", controller=controller)
        ckpt = tmp_path / "ckpt.npz"
        if kind == "dir":
            ckpt.mkdir()
        elif kind == "file":
            ckpt.write_bytes(b"")
        elif kind == "npy":  # np.load reads it as one array, not as an archive
            ckpt = tmp_path / "x.npy"
            np.save(ckpt, np.arange(3))
        elif kind.startswith("meta "):  # an archive whose meta is this JSON text
            np.savez(ckpt, meta=np.array(kind[len("meta "):]))
        elif kind == "other_config":  # a checkpoint of a run whose config has another hurdle
            other = write_config(tmp_path / "other.yaml", reward={"h_r": 2.0})
            assert main(["train", "--config", other, "--out", str(tmp_path / "other")]) == 0
            ckpt = tmp_path / "other" / "ckpt_final.npz"
        out = tmp_path / "out"
        assert main([command, "--config", cfg, flag, str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_compare_rejects_a_repeated_vocabulary_token_before_making_its_output(self, tmp_path, capsys):
        """A phase mnemonic equal to a filler word repeats a vocabulary token."""
        topology = pair(phases=({"mnemonic": "the"}, {}))
        a = write_config(tmp_path / "a.yaml", controller="fixed", topology=topology)
        b = write_config(tmp_path / "b.yaml", controller="maxpressure", topology=topology)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", a, "--config", b, "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: vocabulary tokens must be unique; repeated: ['the']\n"
        assert not out.exists()

    @pytest.mark.parametrize("mnemonic, token", [("THE", "the"), ("LOW", "flow"), ("SIG", "<signal>")])
    def test_phase_name_inside_a_vocabulary_token_rejected_before_any_output(self, tmp_path, capsys, mnemonic, token):
        """A mnemonic that a filler or structural token holds in another case
        passes the uniqueness check, yet the extractor would read that token
        as naming the phase."""
        cfg = write_config(tmp_path / "c.yaml", topology=pair(phases=({}, {"mnemonic": mnemonic})))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: phase '{mnemonic}': '{mnemonic}' occurs in the vocabulary token '{token}', "
            "so a response holding that token would name the phase\n"
        )
        assert not out.exists()

    def test_compare_rejects_configs_sharing_a_file_stem(self, tmp_path, capsys):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        a = write_config(tmp_path / "x" / "c.yaml", controller="fixed")
        b = write_config(tmp_path / "y" / "c.yaml", controller="maxpressure")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", a, "--config", b, "--seed", "0", "--out", str(out)]) == 2
        assert "unique" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, over, extra, key",
        [
            ("eval", {"controller": "fixed", "t_fixed": 0}, [], "t_fixed"),
            ("train", {"policy": {"max_len": 8, "n_filler": 17}}, [], "policy.n_filler"),
            ("train", {"policy": {"max_len": 8, "n_filler": -3}}, [], "policy.n_filler"),
            ("train", {"trainer": {**TINY_TRAINER, "batch_size": 0}}, [], "batch_size"),
            ("train", {"trainer": {**TINY_TRAINER, "batches_per_update": 0}}, [], "batches_per_update"),
            ("train", {"trainer": {**TINY_TRAINER, "buffer_window": 0}}, [], "buffer_window"),
            ("train", {"trainer": {**TINY_TRAINER, "buffer_window": -5}}, [], "buffer_window"),
            ("eval", {}, ["--temperature", "0"], "--temperature"),
            ("eval", {}, ["--temperature", "inf"], "--temperature"),
            ("eval", {}, ["--temperature", "nan"], "--temperature"),
            ("eval", {"controller": "fixed", "t_fixed": INF}, [], "t_fixed"),
        ]
        + [("train", {"trainer": {**TINY_TRAINER, k: v}}, [], f"trainer.{k}") for k, v in BAD_TRAINER_FLOATS]
        + [("train", {"reward": {k: v}}, [], f"reward.{k}") for k, v in BAD_REWARD_FLOATS]
        + [("train", {"trainer": {**TINY_TRAINER, k: v}}, [], f"trainer.{k}") for k, v in BAD_TRAINER_TYPES]
        + [("train", {k: v}, [], k) for k, v in BAD_TOP_TYPES]
        + [("train", over, [], key) for over, key in REMOVED]
        + [("train", {"policy": {"max_len": 2.5}}, [], "policy.max_len"),
           ("train", {"policy": {"max_len": 8, "d_hidden": True}}, [], "policy.d_hidden"),
           ("train", {}, ["--seed", "-2"], "--seed")]
        + [("eval", {"controller": "maxpressure", "topology_overrides": {k: v}}, [], k) for k, v in BAD_GEOMETRY]
        + [("eval", {"controller": "fixed", "demand": demand}, [], key) for _, demand, key in BAD_DEMANDS]
        + [("reward-hist", {}, ["--hurdle", "nan"], "--hurdle")]
        + [("eval", {"controller": "fixed", "demand": demand}, [], key) for demand, key in BAD_DEMAND_SPECS]
        + [("eval", {"controller": "fixed", "topology": topo}, [], key) for topo, key in BAD_TOPOLOGIES],
        ids=["t_fixed", "n_filler_17", "n_filler_-3", "batch_size", "batches_per_update",
             "buffer_window_0", "buffer_window_-5", "temperature", "temperature_inf", "temperature_nan",
             "t_fixed_inf"]
        + [f"trainer.{k}_{v}" for k, v in BAD_TRAINER_FLOATS]
        + [f"reward.{k}_{v}" for k, v in BAD_REWARD_FLOATS]
        + [f"trainer.{k}_{v!r}" for k, v in BAD_TRAINER_TYPES]
        + [f"{k}_{v!r}" for k, v in BAD_TOP_TYPES]
        + [f"removed:{key}" for _, key in REMOVED]
        + ["policy.max_len_2.5", "policy.d_hidden_True", "--seed_-2"]
        + [f"topology.{k}_{v!r}" for k, v in BAD_GEOMETRY]
        + [name for name, _, _ in BAD_DEMANDS]
        + ["--hurdle_nan"]
        + [f"demand:{key}_{i}" for i, (_, key) in enumerate(BAD_DEMAND_SPECS)]
        + [f"topology:{key}" for _, key in BAD_TOPOLOGIES],
    )
    def test_bad_value_rejected_before_any_output(self, tmp_path, capsys, command, over, extra, key):
        cfg = write_config(tmp_path / "c.yaml", **over)
        out = tmp_path / "out"
        if command == "reward-hist":  # its one positional argument, a decision log
            log = tmp_path / "decisions.jsonl"
            log.write_text('{"R_env": 1.0}\n')
            extra = [str(log), *extra]
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_reward_hist_non_finite_reward(self, tmp_path, capsys):
        log = tmp_path / "decisions.jsonl"
        log.write_text('{"R_env": 1.0}\n{"R_env": Infinity}\n')
        assert main(["reward-hist", str(log), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: decision log {log} line 2: R_env must be finite, got inf\n"
        assert not (tmp_path / "out").exists()

    def test_compare_needs_two_configs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        assert main(["compare", "--config", cfg, "--seed", "0"]) == 2
        assert "two" in capsys.readouterr().err

    def test_reward_hist_bin_count_above_the_cap(self, tmp_path, capsys):
        """Two rewards 2 apart at a width of 1e-12 would take 2e12 bins; the
        count is refused before any bin is allocated."""
        log = tmp_path / "decisions.jsonl"
        log.write_text('{"R_env": -1.0}\n{"R_env": 1.0}\n')
        assert main(["reward-hist", str(log), "--bin-width", "1e-12", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: decision log {log}: rewards from -1.0 (line 1) to 1.0 (line 2) span "
            "2000000000000 bins of width 1e-12, more than the cap of 100000\n"
        )
        assert not (tmp_path / "out").exists()

    def test_compare_into_a_used_run_directory_rejected_before_any_output(self, tmp_path, capsys):
        a = write_config(tmp_path / "a.yaml", controller="fixed")
        b = write_config(tmp_path / "b.yaml", controller="maxpressure")
        out = tmp_path / "cmp"
        (out / "b_seed1").mkdir(parents=True)
        (out / "b_seed1" / "metrics.csv").write_text("kept\n")
        args = ["compare", "--config", a, "--config", b, "--seed", "0", "--seed", "1", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: validation failed: output directory {out / 'b_seed1'} is in use (it holds metrics.csv); "
            "a fresh run needs a new or empty one\n"
        )
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["b_seed1", "b_seed1/metrics.csv"]
        assert (out / "b_seed1" / "metrics.csv").read_text() == "kept\n"

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
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command, flag", [("train", "--resume"), ("eval", "--checkpoint")])
    def test_out_naming_a_file_is_refused_from_a_snapshot(self, tmp_path, capsys, command, flag):
        """From a snapshot, an ``--out`` that names a file exits 2 with the
        message of any run and leaves the file as it was."""
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "out"
        out.write_text("kept\n")
        capsys.readouterr()
        ckpt = tmp_path / "run" / "ckpt_ep001_t00000.npz"
        assert main([command, "--config", cfg, flag, str(ckpt), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: validation failed: output directory {out} is not a directory\n"
        assert out.read_text() == "kept\n"

    def test_eval_from_a_snapshot_into_its_training_run_is_refused(self, tmp_path, capsys):
        """Only train from a snapshot may reopen a used directory: an eval of
        a run's final snapshot into that run's own directory, the config's
        ``out``, exits 2 and every file there keeps its bytes."""
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.yaml", out=str(run), episodes=2)
        assert main(["train", "--config", cfg]) == 0
        files = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(run / "ckpt_final.npz")]) == 2
        assert capsys.readouterr().err == (
            f"error: validation failed: output directory {run} is in use (it holds {min(files)}); "
            "a fresh run needs a new or empty one\n"
        )
        assert {p.name: p.read_bytes() for p in run.iterdir()} == files

    @pytest.mark.parametrize("seed", [None, "0"], ids=["under_the_runs_seed", "under_the_snapshots_seed"])
    def test_resume_into_another_runs_directory_is_refused(self, tmp_path, capsys, seed):
        """Runs A (seed 0) and B (seed 1) train 2 episodes of 720 steps each.
        Training on from A's first snapshot into B's directory exits 2 and
        leaves B's files as they were: under B's seed the seed is not the
        snapshot's, and under A's B's run logs do not begin as A's did."""
        trainer = {**TINY_TRAINER, "episode_length": 720, "update_interval": 360}
        a = write_config(tmp_path / "a.yaml", episodes=2, seed=0, trainer=trainer, out=str(tmp_path / "A"))
        b = write_config(tmp_path / "b.yaml", episodes=2, seed=1, trainer=trainer, out=str(tmp_path / "B"))
        assert main(["train", "--config", a]) == 0 and main(["train", "--config", b]) == 0
        run_b = tmp_path / "B"
        files = {p.name: p.read_bytes() for p in run_b.iterdir()}
        capsys.readouterr()
        argv = ["train", "--config", b, "--resume", str(tmp_path / "A" / "ckpt_ep001_t00000.npz")]
        assert main(argv + (["--seed", seed] if seed else [])) == 2
        # A's metrics.csv at the snapshot: its header and episode 0's row
        size = len(b"".join((tmp_path / "A" / "metrics.csv").read_bytes().splitlines(keepends=True)[:2]))
        assert capsys.readouterr().err == (
            "error: validation failed: the snapshot continues a run of seed 0, not of seed 1\n" if seed is None else
            f"error: validation failed: output directory {run_b} holds another run: {run_b / 'metrics.csv'} "
            f"does not begin with the {size} bytes it held at the snapshot\n"
        )
        assert {p.name: p.read_bytes() for p in run_b.iterdir()} == files

    def test_resume_under_another_seed_is_refused_and_eval_is_not(self, tmp_path, capsys):
        """train from a snapshot continues its run, so it needs the run's
        seed even in a fresh directory; eval judges the policy on any seed's
        demand."""
        cfg = write_config(tmp_path / "c.yaml", episodes=2)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        ckpt = str(tmp_path / "run" / "ckpt_ep001_t00000.npz")
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert main(["train", "--config", cfg, "--seed", "1", "--resume", ckpt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: validation failed: the snapshot continues a run of seed 0, not of seed 1\n"
        assert not out.exists()
        assert main(["eval", "--config", cfg, "--seed", "1", "--checkpoint", ckpt, "--out", str(tmp_path / "eval")]) == 0

    def test_baseline_zero_decision_interval(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="random", trainer={**TINY_TRAINER, "decision_interval": 0}
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: trainer.decision_interval must be >= 1" in capsys.readouterr().err

    def test_train_zero_update_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", trainer={**TINY_TRAINER, "update_interval": 0})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: trainer.update_interval must be >= 1" in capsys.readouterr().err

    def test_decision_interval_shorter_than_yellow(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", controller="random", trainer={**TINY_TRAINER, "decision_interval": 3}
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: decision_interval 3 is shorter than the yellow interval 5")
        assert not (tmp_path / "out").exists()

    def test_update_interval_not_a_multiple_of_decision_interval(self, tmp_path, capsys):
        """Updates run only at decisions, so an update interval of 15 s with a
        decision every 10 s would update every 30 s; train refuses it."""
        trainer = {**TINY_TRAINER, "episode_length": 95, "update_interval": 15}
        cfg = write_config(tmp_path / "c.yaml", trainer=trainer)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trainer.update_interval 15 is not a multiple of trainer.decision_interval 10")
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
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ep000_steps.csv").exists()
        assert (out / "metrics.csv").exists()
        assert "episode 0" in capsys.readouterr().out

    def test_controller_override_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        out = tmp_path / "out"
        assert main(
            ["eval", "--config", cfg, "--controller", "random", "--out", str(out)]
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

    def test_eval_at_a_subnormal_temperature(self, tmp_path, capsys):
        """At 1e-310 the tempered logits of all but the argmax scale below the
        float range; the run completes with the same files and line counts as
        one at temperature 1."""
        cfg = write_config(tmp_path / "c.yaml")
        runs = {}
        for temperature in ("1", "1e-310"):
            out = tmp_path / temperature
            assert main(["eval", "--config", cfg, "--out", str(out), "--temperature", temperature]) == 0
            runs[temperature] = {p.name: len(p.read_text().splitlines()) for p in out.iterdir()}
        assert capsys.readouterr().err == ""
        assert runs["1e-310"] == runs["1"]
        assert runs["1"]["ep000_steps.csv"] == TINY_TRAINER["episode_length"] + 1
        assert runs["1"]["metrics.csv"] == 2

    @pytest.mark.parametrize("command, controller", [("train", "policy"), ("eval", "fixed")])
    def test_second_run_into_a_used_directory_is_refused(self, tmp_path, capsys, command, controller):
        """A fresh run takes an empty directory but refuses one that holds
        files, so no file of the first run, say its ``ep001_*`` files after
        a longer first run, lies beside the second's; the first run's files
        keep their bytes."""
        cfg = write_config(tmp_path / "c.yaml", controller=controller, episodes=2)
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "ep001_steps.csv" in first
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out), "--episodes", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: validation failed: output directory {out} is in use (it holds {min(first)}); "
            "a fresh run needs a new or empty one\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", controller="fixed")
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main(["eval", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
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
