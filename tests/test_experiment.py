import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsclab import experiment, phases
from tsclab._kernels import derive_key
from tsclab.experiment import (
    METRIC_COLUMNS,
    TRAIN_LOG_COLUMNS,
    ExperimentConfig,
    ExperimentRunner,
    compare,
    reward_histogram,
)
from tsclab.phases import extract_phase
from tsclab.policy import TokenPolicy
from tsclab.trainer import load_checkpoint

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_TRAINER = {
    "episode_length": 300,
    "update_interval": 100,
    "decision_interval": 10,
    "buffer_window": 120,
    "g_responses": 8,
    "batch_size": 6,
    "batches_per_update": 1,
}


def tiny_config(**over):
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
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        cfg = tiny_config(seed=5)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        again = ExperimentConfig.from_yaml(path)
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"controler": "policy"})

    def test_bad_controller_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"controller": "psychic"})

    def test_hash_ignores_seed_and_out(self):
        a = tiny_config(seed=0, out="x")
        b = tiny_config(seed=99, out="y")
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_reward_settings(self):
        a = tiny_config()
        b = tiny_config(reward={"h_r": 0.25})
        assert a.config_hash() != b.config_hash()

    def test_default_phase_validated(self, tmp_path):
        cfg = tiny_config(default_phase=11)
        with pytest.raises(ValueError):
            ExperimentRunner(cfg, out_dir=tmp_path / "r")


class TestRunnerOutputs:
    def test_baseline_episode_files(self, tmp_path):
        cfg = tiny_config(controller="fixed")
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        reports = runner.evaluate()
        rep = reports[0]
        assert rep.decisions == 30
        steps = Path(rep.steps_csv).read_text().splitlines()
        assert len(steps) == 301
        assert steps[0] == "time,phase,queue,injected,completed"
        rows = [json.loads(l) for l in Path(rep.decisions_jsonl).read_text().splitlines()]
        assert len(rows) == 30
        assert set(rows[0]) == {
            "time", "chosen_phase", "counts", "p_chosen", "R_env", "R_total", "gate_open",
        }
        info = json.loads((tmp_path / "run" / "run_info.json").read_text())
        assert info["config_hash"] == cfg.config_hash()
        assert info["controller"] == "fixed"

    def test_reward_timing_matches_step_log(self, tmp_path):
        """R_env for the decision at t equals queue(t) - queue(t+10), read
        off the per-step log (row at time t holds the post-step state)."""
        cfg = tiny_config(controller="fixed", demand={"kind": "poisson", "base_rate": 0.08})
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        rep = runner.evaluate()[0]
        qs = {}
        for line in Path(rep.steps_csv).read_text().splitlines()[1:]:
            parts = line.split(",")
            qs[float(parts[0])] = float(parts[2])
        qs[0.0] = 0.0  # initial state before any step
        for line in Path(rep.decisions_jsonl).read_text().splitlines():
            row = json.loads(line)
            t = row["time"]
            expect = qs[t] - qs[min(t + 10.0, 300.0)]
            assert row["R_env"] == pytest.approx(expect, abs=1e-12)

    def test_a_fork_at_each_decision_steps_as_the_run(self, tmp_path, monkeypatch):
        """A fork of the simulator taken at each decision, set to the chosen
        phase and stepped one decision interval, gives the queues of the
        run's step log bit for bit. Arrivals do not depend on the phase, so
        forks set to other phases see the same arrivals."""
        forked = {}  # decision time -> the queues of its fork
        decide = ExperimentRunner._decide

        def forking_decide(self, sim, t, *args):
            pending = decide(self, sim, t, *args)
            fork = sim.fork()
            fork.set_phase(pending.phase)
            forked[t] = [fork.step() for _ in range(self.cfg.trainer.decision_interval)]
            return pending

        monkeypatch.setattr(ExperimentRunner, "_decide", forking_decide)
        demand = {"kind": "poisson", "base_rate": 0.1, "surges": [{"start": 95, "end": 205, "rate": 0.4, "lanes": ["E_L"]}]}
        rep = ExperimentRunner(tiny_config(controller="maxpressure", demand=demand), out_dir=tmp_path / "run").evaluate()[0]
        queues = [float(line.split(",")[2]) for line in Path(rep.steps_csv).read_text().splitlines()[1:]]
        assert list(forked) == list(range(0, 300, 10))
        assert [q for qs in forked.values() for q in qs] == queues
        chosen = {json.loads(line)["chosen_phase"] for line in Path(rep.decisions_jsonl).read_text().splitlines()}
        assert len(chosen) > 2 and max(queues) > 1.0

    def test_policy_training_writes_logs_and_checkpoints(self, tmp_path):
        cfg = tiny_config()
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        reports = runner.train()
        assert len(reports) == 1
        log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("step,mean_ratio")
        assert len(log) == 4  # updates at 100, 200, 300
        cks = sorted(p.name for p in (tmp_path / "run").glob("ckpt_*.npz"))
        assert cks == ["ckpt_ep001_t00000.npz", "ckpt_final.npz"]
        rows = [json.loads(l) for l in (tmp_path / "run" / "ep000_decisions.jsonl").read_text().splitlines()]
        assert all(sum(r["counts"]) == 8 for r in rows)
        assert all(0.0 < r["p_chosen"] <= 1.0 for r in rows)

    def test_same_seed_runs_identical(self, tmp_path):
        texts = []
        for d in ("a", "b"):
            runner = ExperimentRunner(tiny_config(), out_dir=tmp_path / d)
            rep = runner.train()[0]
            texts.append(
                Path(rep.steps_csv).read_text() + Path(rep.decisions_jsonl).read_text()
            )
        assert texts[0] == texts[1]

    def test_seed_changes_trajectory_not_hash(self, tmp_path):
        outs = []
        for seed in (0, 1):
            runner = ExperimentRunner(tiny_config(seed=seed), out_dir=tmp_path / str(seed))
            rep = runner.train()[0]
            outs.append(Path(rep.decisions_jsonl).read_text())
        assert outs[0] != outs[1]
        a = json.loads((tmp_path / "0" / "run_info.json").read_text())
        b = json.loads((tmp_path / "1" / "run_info.json").read_text())
        assert a["config_hash"] == b["config_hash"]

    def test_restore_roundtrips_params(self, tmp_path):
        cfg = tiny_config()
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        runner.train()
        twin = ExperimentRunner(cfg, out_dir=tmp_path / "twin", checkpoint=tmp_path / "run" / "ckpt_final.npz")
        for k, v in runner.trainer.policy.params.items():
            assert np.array_equal(twin.trainer.policy.params[k], v)
        for k, v in runner.trainer.value_head.params.items():
            assert np.array_equal(twin.trainer.value_head.params[k], v)

    def test_restore_rejects_other_config(self, tmp_path):
        """The refusal names both hashes by their first 12 hex digits."""
        runner = ExperimentRunner(tiny_config(), out_dir=tmp_path / "run")
        runner.train()
        other = tiny_config(reward={"h_r": 0.125})
        ours, theirs = runner.hash[:12], other.config_hash()[:12]
        with pytest.raises(ValueError, match=f"config hash does not match.*{ours} in the checkpoint, {theirs} from"):
            ExperimentRunner(other, out_dir=tmp_path / "twin", checkpoint=tmp_path / "run" / "ckpt_final.npz")
        assert not (tmp_path / "twin").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("history", [["queue 1.00", 3]]), ("best_queue", 1.5170138888888889)],
        ids=["history", "best_queue"],
    )
    def test_snapshot_with_an_older_runner_meta_key_still_resumes(self, tmp_path, key, value):
        """Snapshots once kept the last (summary, action) pairs in
        runner_meta["history"], and the lowest held-out queue so far in
        runner_meta["best_queue"]; loading ignores both, so such a snapshot
        finishes the run exactly as the same snapshot without the key."""
        cfg = tiny_config(episodes=2)
        ExperimentRunner(cfg, out_dir=tmp_path / "run").train()
        current = tmp_path / "run" / "ckpt_ep001_t00000.npz"
        meta, arrays = load_checkpoint(current)
        assert key not in meta["runner_meta"]
        meta["runner_meta"][key] = value
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, meta=json.dumps(meta), **arrays)
        outputs = []
        for name, path in (("current", current), ("legacy", legacy)):
            ExperimentRunner(cfg, out_dir=tmp_path / name, checkpoint=path).train()
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert "ckpt_final.npz" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_train_writes_one_snapshot_per_checkpoint_and_a_final_one(self, tmp_path):
        """Two episodes write the snapshots that start episodes 1 and 2 and
        ckpt_final.npz; nothing inside an episode and no ckpt_best.npz."""
        ExperimentRunner(tiny_config(episodes=2), out_dir=tmp_path / "run").train()
        assert sorted(p.name for p in (tmp_path / "run").glob("ckpt_*")) == [
            "ckpt_ep001_t00000.npz", "ckpt_ep002_t00000.npz", "ckpt_final.npz",
        ]

    def test_eval_uses_single_response(self, tmp_path):
        runner = ExperimentRunner(tiny_config(), out_dir=tmp_path / "run")
        rep = runner.evaluate(episodes=1)[0]
        rows = [json.loads(l) for l in Path(rep.decisions_jsonl).read_text().splitlines()]
        assert all(r["counts"] is None and r["p_chosen"] is None for r in rows)

    def test_train_requires_policy_controller(self, tmp_path):
        runner = ExperimentRunner(tiny_config(controller="random"), out_dir=tmp_path / "r")
        with pytest.raises(ValueError):
            runner.train()


class TestEpisodeSnapshot:
    @staticmethod
    def _toy8_run(tmp_path):
        """A 3-episode configs/toy8.yaml run of 720 steps, updating every 360."""
        raw = ExperimentConfig.from_yaml(CONFIGS / "toy8.yaml").to_dict()
        raw["episodes"] = 3
        raw["trainer"].update({"episode_length": 720, "update_interval": 360})
        cfg = ExperimentConfig.from_dict(raw)
        ExperimentRunner(cfg, out_dir=tmp_path / "run").train()
        return cfg, tmp_path / "run"

    def test_evaluate_runs_a_whole_new_episode(self, tmp_path, monkeypatch):
        """evaluate from the snapshot that starts episode 1 runs all of it
        from time 1, keyed from decision 30, and begins metrics.csv anew in
        the training run's directory."""
        cfg = tiny_config()
        ExperimentRunner(cfg, out_dir=tmp_path / "run").train()
        calls = TestDecisionSamples._record_samples(monkeypatch)
        snapshot = tmp_path / "run" / "ckpt_ep001_t00000.npz"
        report = ExperimentRunner(cfg, out_dir=tmp_path / "run", checkpoint=snapshot).evaluate(1)[0]
        assert report.steps_csv.endswith("ep001_steps.csv")
        steps = Path(report.steps_csv).read_text().splitlines()[1:]
        assert len(steps) == cfg.trainer.episode_length
        assert [float(row.split(",")[0]) for row in (steps[0], steps[-1])] == [1.0, 300.0]
        assert [keys for keys, *_ in calls] == [[derive_key(cfg.seed, 0, 30 + i, 0)] for i in range(30)]
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1,") and rows[1].endswith(",30")

    def test_training_in_place_from_each_snapshot_rebuilds_the_run(self, tmp_path):
        """A copy of the run's directory, trained on in place from each of
        its snapshots as after a crash, ends byte-equal to the run in every
        file: each run log is cut back to its length at the snapshot, so no
        row is written twice."""
        cfg, run = self._toy8_run(tmp_path)
        files = {p.name: p.read_bytes() for p in run.iterdir()}
        for snapshot in ("ckpt_ep001_t00000.npz", "ckpt_ep002_t00000.npz", "ckpt_final.npz"):
            copy = tmp_path / snapshot
            shutil.copytree(run, copy)
            ExperimentRunner(cfg, out_dir=copy, checkpoint=copy / snapshot).train()
            resumed = {p.name: p.read_bytes() for p in copy.iterdir()}
            assert sorted(n for n in files.keys() | resumed.keys() if files.get(n) != resumed.get(n)) == [], snapshot

    def test_training_into_a_fresh_directory_begins_each_log_with_its_header(self, tmp_path):
        """Trained on into a fresh directory from the snapshot that starts
        episode 1, each run log holds its header and then the run's rows of
        episodes 1 and 2."""
        cfg, run = self._toy8_run(tmp_path)
        fresh = tmp_path / "fresh"
        ExperimentRunner(cfg, out_dir=fresh, checkpoint=run / "ckpt_ep001_t00000.npz").train()
        for name, columns, kept in (("metrics.csv", METRIC_COLUMNS, 1), ("train_log.csv", TRAIN_LOG_COLUMNS, 2)):
            ours, theirs = ((d / name).read_text().splitlines() for d in (run, fresh))
            assert theirs[0] == ",".join(columns)
            assert theirs[1:] == ours[1 + kept :], name


class TestAcrossBlasKernels:
    def test_run_files_keep_their_bytes_under_another_kernel(self, tmp_path):
        """A short toy8 training run under the default OpenBLAS kernel and
        under Nehalem (SSE only), each in its own process: the step logs,
        decision logs and metrics.csv are byte-equal. train_log.csv and the
        checkpoints come from BLAS products, so their last bits may differ
        and they are not compared. Where numpy's BLAS is not a DYNAMIC_ARCH
        OpenBLAS, both runs use the same kernel."""
        raw = ExperimentConfig.from_yaml(CONFIGS / "toy8.yaml").to_dict()
        raw["episodes"] = 2
        raw["trainer"].update({"episode_length": 720, "update_interval": 360})
        cfg = tmp_path / "toy8_short.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        src = Path(experiment.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        runs = {}
        for name, coretype in (("default", None), ("nehalem", "Nehalem")):
            child_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-c", "import sys; from tsclab.cli import main; sys.exit(main(sys.argv[1:]))",
                 "train", "--config", str(cfg), "--out", str(out)],
                env=child_env, capture_output=True, text=True, timeout=300, check=True,
            )
            files = [f for pattern in ("ep*_steps.csv", "ep*_decisions.jsonl", "metrics.csv") for f in out.glob(pattern)]
            runs[name] = {f.name: f.read_bytes() for f in files}
        assert len(runs["default"]) == 5
        assert runs["nehalem"] == runs["default"]


class TestDecisionSamples:
    def test_action_from_first_sample(self, tmp_path, monkeypatch):
        """A learning decision samples its action alone, from key 0, and the
        other G - 1 responses, keys 1..G-1, in its update window's one
        sample_window call. Each decision's action and counts equal one
        extract_phase call per response, and that is all the scanning the
        decision does."""
        calls = self._record_samples(monkeypatch)
        windows = self._record_windows(monkeypatch)
        scans = []

        def counting_extract(*args):
            scans.append(args)
            return extract_phase(*args)

        for module in (experiment, phases):  # _decide's own call and phase_histogram's
            monkeypatch.setattr(module, "extract_phase", counting_extract)
        cfg = tiny_config(policy={"d_embed": 4, "d_hidden": 8, "max_len": 32})
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        report = runner.train()[0]
        rows = [json.loads(line) for line in Path(report.decisions_jsonl).read_text().splitlines()]
        g = cfg.trainer.g_responses
        assert len(rows) == len(calls) == report.decisions == 30
        assert len(scans) == 30 * g
        # one window per update interval of 10 decisions, its rows in decision order
        assert [len(keys) for _, keys, _, _ in windows] == [10 * (g - 1)] * 3
        window_keys = [key for _, keys, _, _ in windows for key in keys]
        window_features = np.concatenate([features for features, _, _, _ in windows])
        tokens = np.concatenate([result[0] for _, _, _, result in windows])
        lengths = np.concatenate([result[1] for _, _, _, result in windows])
        chosen = set()
        for i, (row, (keys, _, (action, action_length, _), features)) in enumerate(zip(rows, calls)):
            assert keys == [derive_key(cfg.seed, 0, i, 0)]
            mine = range(i * (g - 1), (i + 1) * (g - 1))
            assert [window_keys[r] for r in mine] == [derive_key(cfg.seed, 0, i, r) for r in range(1, g)]
            assert all(np.array_equal(window_features[r], features) for r in mine)
            responses = [action[0, : action_length[0]]] + [tokens[r, : lengths[r]] for r in mine]
            found = [extract_phase(tokens_, runner.topo, cfg.default_phase, runner.vocab) for tokens_ in responses]
            assert row["chosen_phase"] == found[0]
            assert row["counts"] == np.bincount(found, minlength=runner.topo.n_phases).tolist()
            assert sum(row["counts"]) == g
            chosen.add(row["chosen_phase"])
        assert len(chosen) > 1  # the responses name more than the default phase

    def test_training_samples_at_temperature_one(self, tmp_path, monkeypatch):
        """Every learning decision samples its action at exactly 1.0, so the
        log-probs the sampler returns, which become logps_old, are those of
        the distribution the tokens were drawn from. Each window's rows are
        the temperature-1 draws of their decisions' features and keys, with
        the parameters of the window."""
        calls = self._record_samples(monkeypatch)
        windows = self._record_windows(monkeypatch)
        cfg = tiny_config()
        report = ExperimentRunner(cfg, out_dir=tmp_path / "run").train()[0]
        assert len(calls) == report.decisions == 30
        assert [kwargs["temperature"] for _, kwargs, *_ in calls] == [1.0] * 30
        g = cfg.trainer.g_responses
        for features, keys, policy, (tokens, lengths, _) in windows:
            for start in range(0, len(keys), g - 1):
                mine = slice(start, start + g - 1)
                own = TokenPolicy.sample(policy, features[start], keys[mine], temperature=1.0)
                assert np.array_equal(own[0], tokens[mine]) and np.array_equal(own[1], lengths[mine])

    def test_eval_decision_samples_one_response(self, tmp_path, monkeypatch):
        """An eval decision samples one response, with key index 0 at the
        temperature evaluate was given, acts on it and logs no counts."""
        calls = self._record_samples(monkeypatch)
        cfg = tiny_config(policy={"d_embed": 4, "d_hidden": 8, "max_len": 32})
        runner = ExperimentRunner(cfg, out_dir=tmp_path / "run")
        report = runner.evaluate(episodes=1, temperature=0.5)[0]
        rows = [json.loads(line) for line in Path(report.decisions_jsonl).read_text().splitlines()]
        assert len(rows) == len(calls) == report.decisions == 30
        for i, (row, (keys, kwargs, (tokens, lengths, _), _)) in enumerate(zip(rows, calls)):
            assert keys == [derive_key(cfg.seed, 0, i, 0)]
            assert kwargs["temperature"] == 0.5
            assert tokens.shape[0] == 1
            assert row["chosen_phase"] == extract_phase(
                tokens[0, : lengths[0]], runner.topo, cfg.default_phase, runner.vocab
            )
            assert row["counts"] is None

    @staticmethod
    def _record_samples(monkeypatch):
        """Record each TokenPolicy.sample call as (keys, kwargs, result, features)."""
        calls = []
        sample = TokenPolicy.sample

        def recording_sample(policy, features, keys, **kwargs):
            result = sample(policy, features, keys, **kwargs)
            calls.append((list(keys), kwargs, result, np.array(features)))
            return result

        monkeypatch.setattr(TokenPolicy, "sample", recording_sample)
        return calls

    @staticmethod
    def _record_windows(monkeypatch):
        """Record each TokenPolicy.sample_window call as (features, keys, a
        copy of the policy as it was, result)."""
        windows = []
        sample_window = TokenPolicy.sample_window

        def recording_window(policy, features, keys):
            result = sample_window(policy, features, keys)
            frozen = TokenPolicy.from_meta(policy.meta(), {k: v.copy() for k, v in policy.params.items()})
            windows.append((np.array(features), list(keys), frozen, result))
            return result

        monkeypatch.setattr(TokenPolicy, "sample_window", recording_window)
        return windows


@settings(max_examples=30, deadline=None)
@given(
    yellow=st.floats(0.0, 12.0),
    interval=st.integers(1, 15),
    length=st.integers(1, 120),
    seed=st.integers(0, 2**16),
)
@example(yellow=0.0, interval=1, length=40, seed=0)
@example(yellow=5.0, interval=5, length=60, seed=1)
def test_accepted_schedule_switches_by_next_decision(yellow, interval, length, seed):
    """The runner accepts a schedule iff decision_interval covers the yellow
    interval, and then every requested phase is active by the next decision."""
    cfg = tiny_config(
        controller="random",
        seed=seed,
        topology_overrides={"yellow_duration": yellow},
        trainer={**TINY_TRAINER, "decision_interval": interval, "episode_length": length},
    )
    with tempfile.TemporaryDirectory() as tmp:
        if interval < yellow:
            with pytest.raises(ValueError, match="yellow interval"):
                ExperimentRunner(cfg, out_dir=Path(tmp) / "run")
            return
        rep = ExperimentRunner(cfg, out_dir=Path(tmp) / "run").evaluate()[0]
        phase_at = {}
        for line in Path(rep.steps_csv).read_text().splitlines()[1:]:
            time, phase = line.split(",")[:2]
            phase_at[float(time)] = int(phase)
        rows = [json.loads(l) for l in Path(rep.decisions_jsonl).read_text().splitlines()]
    assert len(rows) == math.ceil(length / interval)
    for row in rows:
        if row["time"] + interval <= length:
            assert phase_at[row["time"] + interval] == row["chosen_phase"]


class TestCompare:
    def test_two_baselines(self, tmp_path):
        a = tiny_config(controller="fixed").to_dict()
        b = tiny_config(controller="maxpressure").to_dict()
        rows = compare(
            [ExperimentConfig.from_dict(a), ExperimentConfig.from_dict(b)],
            seeds=[0, 1],
            out_dir=tmp_path / "cmp",
            labels=["fixed", "mp"],
        )
        assert [r["label"] for r in rows] == ["fixed", "mp"]
        table = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert table[0] == "label,travel_time,queue_length,delay_seconds,delay_ratio,throughput"
        assert len(table) == 3

    def test_requires_two_configs(self, tmp_path):
        with pytest.raises(ValueError):
            compare([tiny_config()], seeds=[0], out_dir=tmp_path / "cmp")

    def test_requires_a_seed(self, tmp_path):
        configs = [tiny_config(controller="fixed"), tiny_config(controller="maxpressure")]
        with pytest.raises(ValueError, match="at least one seed"):
            compare(configs, seeds=[], out_dir=tmp_path / "cmp", labels=["fixed", "mp"])
        assert not (tmp_path / "cmp").exists()

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0]),
                st.integers(-(2**62), 2**62),
            ),
            min_size=1,
            max_size=9,
        )
    )
    def test_median_is_numpys_bit_for_bit(self, values):
        # inf and -inf average to NaN, and two floats near the float64 maximum overflow their sum
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = experiment._median(values), np.median(values)
        assert type(got) is float
        assert (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_compare_leaves_numpy_ma_unimported(self, tmp_path):
        """``np.median`` imports ``numpy.ma``; a compare round needs none of it."""
        code = textwrap.dedent(
            """
            import json, sys
            from tsclab.experiment import ExperimentConfig, compare
            configs = [ExperimentConfig.from_dict(d) for d in json.loads(sys.argv[1])]
            compare(configs, [0, 1], sys.argv[2], labels=["fixed", "mp"])
            print("numpy.ma" in sys.modules)
            """
        )
        configs = [tiny_config(controller=c).to_dict() for c in ("fixed", "maxpressure")]
        src = Path(experiment.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(configs), str(tmp_path / "cmp")],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert done.stdout.strip() == "False"
        assert (tmp_path / "cmp" / "comparison.csv").is_file()

    @pytest.mark.parametrize("labels", [["only"], ["a", "b", "c"], ["same", "same"]])
    def test_rejects_labels_that_do_not_name_each_config_once(self, tmp_path, labels):
        configs = [tiny_config(controller="fixed"), tiny_config(controller="maxpressure")]
        with pytest.raises(ValueError, match="labels"):
            compare(configs, seeds=[0], out_dir=tmp_path / "cmp", labels=labels)
        assert not (tmp_path / "cmp").exists()

    def test_rejects_a_repeated_seed(self, tmp_path):
        configs = [tiny_config(controller="fixed"), tiny_config(controller="maxpressure")]
        with pytest.raises(ValueError, match=r"seeds must be unique, got \[3, 3\]"):
            compare(configs, seeds=[3, 3], out_dir=tmp_path / "cmp", labels=["fixed", "mp"])
        assert not (tmp_path / "cmp").exists()

    def test_rejects_mixed_topology(self, tmp_path):
        a = tiny_config(controller="fixed")
        b = tiny_config(controller="fixed", topology="toy4")
        with pytest.raises(ValueError, match="topology"):
            compare([a, b], seeds=[0], out_dir=tmp_path / "cmp")

    def test_rejects_different_topology_overrides(self, tmp_path):
        a = tiny_config(controller="fixed", topology_overrides={"yellow_duration": 5.0})
        b = tiny_config(controller="maxpressure", topology_overrides={"yellow_duration": 0.0})
        with pytest.raises(ValueError, match="topology"):
            compare([a, b], seeds=[0], out_dir=tmp_path / "cmp")
        assert not (tmp_path / "cmp").exists()


def test_unknown_demand_lane_rejected_before_writing(tmp_path):
    cfg = tiny_config(controller="fixed", demand={"kind": "poisson", "rates": {"X_T": 0.1}})
    with pytest.raises(ValueError, match="unknown lanes"):
        ExperimentRunner(cfg, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


class TestRewardHistogram:
    def test_fraction_and_bins(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rewards = [-1.0, 0.0, 0.2, 0.6, 1.4, 2.0]
        with open(path, "w") as fh:
            for r in rewards:
                fh.write(json.dumps({"R_env": r}) + "\n")
        hist = reward_histogram(path, hurdle=0.5, bin_width=0.5)
        assert hist["n"] == 6
        assert hist["fraction_above"] == pytest.approx(3 / 6)
        assert sum(hist["counts"]) == 6
        edges = hist["bin_edges"]
        assert edges[0] == -1.0 and edges[-1] == 2.0
        assert all(b - a == pytest.approx(0.5) for a, b in zip(edges, edges[1:]))

    @pytest.mark.parametrize("width", [0.0, -0.5, math.nan, math.inf])
    def test_bin_width_must_be_finite_and_positive(self, tmp_path, width):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"R_env": 1.0}) + "\n")
        with pytest.raises(ValueError, match="bin width must be finite and > 0"):
            reward_histogram(path, 0.5, bin_width=width)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            reward_histogram(path, 0.0)

    @pytest.mark.parametrize("value, shown", [("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan"),
                                              ("true", "True"), ('"1.5"', "'1.5'")])
    def test_bool_or_non_finite_reward_rejected(self, tmp_path, value, shown):
        path = tmp_path / "d.jsonl"
        path.write_text('{"R_env": 0.5}\n\n{"R_env": %s}\n' % value)
        with pytest.raises(ValueError) as info:
            reward_histogram(path, 0.0)
        assert str(info.value) == f"decision log {path} line 3: R_env must be finite, got {shown}"

    def test_span_of_non_finite_bin_count_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"R_env": 1e308}\n{"R_env": 0.0}\n{"R_env": -1e308}\n')
        with pytest.raises(ValueError) as info:
            reward_histogram(path, 0.0, bin_width=0.5)
        assert str(info.value) == (f"decision log {path}: rewards from -1e+308 (line 3) to 1e+308 (line 1) "
                                   "span a non-finite number of bins of width 0.5")
        path.write_text('{"R_env": 1.7e308}\n{"R_env": -1.7e308}\n')
        with pytest.raises(ValueError, match="span a non-finite number of bins of width 1.0"):
            reward_histogram(path, 0.0, bin_width=1.0)
