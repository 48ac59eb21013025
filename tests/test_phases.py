from pathlib import Path

import numpy as np
import pytest

from tsclab.phases import (
    EOS,
    FILLER_WORDS,
    SIGNAL_CLOSE,
    SIGNAL_OPEN,
    Vocabulary,
    extract_phase,
    feature_length,
    load_extraction_cases,
    phase_histogram,
    verbalize,
)
from tsclab.sim import STREAM_DEMAND, DemandProfile, Intersection, stream_rng

CASES_PATH = Path(__file__).parent / "data" / "extraction_cases.tsv"


class TestVocabulary:
    def test_layout(self, toy8, vocab8):
        n = toy8.n_phases
        assert vocab8.tokens[:n] == tuple(p.mnemonic for p in toy8.phases)
        assert vocab8.tokens[n] == SIGNAL_OPEN
        assert vocab8.tokens[n + 1] == SIGNAL_CLOSE
        assert vocab8.tokens[n + 2] == EOS
        assert vocab8.tokens[n + 3 : n + 13] == tuple(str(d) for d in range(10))
        assert vocab8.size == n + 13 + 16
        assert vocab8.eos_id == n + 2

    def test_encode_decode(self, vocab8):
        ids = [vocab8.encode("NTST"), vocab8.encode(SIGNAL_OPEN), vocab8.encode("7")]
        assert vocab8.decode(ids) == f"NTST {SIGNAL_OPEN} 7"

    def test_filler_budget(self):
        with pytest.raises(ValueError):
            Vocabulary(["AA"], n_filler=len(FILLER_WORDS) + 1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["AA", "AA"])


class TestExtraction:
    def test_corpus(self, toy8):
        cases = load_extraction_cases(CASES_PATH)
        assert len(cases) >= 20
        failures = []
        for text, expected in cases:
            got = toy8.phases[extract_phase(text, toy8, 0)].mnemonic
            if got != expected:
                failures.append((text, expected, got))
        assert not failures, failures

    def test_required_literal_case(self, toy8):
        assert extract_phase("<signal>ETEL</signal>", toy8, 0) == 6

    def test_total_on_arbitrary_bytes(self, toy8):
        for junk in ("", "\x00\x01", "<signal>", "((((", "9" * 50):
            idx = extract_phase(junk, toy8, 3)
            assert idx == 3

    def test_token_id_input(self, toy8, vocab8):
        ids = [vocab8.encode(SIGNAL_OPEN), vocab8.encode("ETEL"), vocab8.encode(SIGNAL_CLOSE)]
        assert extract_phase(ids, toy8, 0, vocab8) == 6

    def test_token_id_input_requires_vocab(self, toy8):
        with pytest.raises(ValueError):
            extract_phase([0, 1], toy8, 0)

    def test_default_code_validated(self, toy8):
        with pytest.raises(ValueError):
            extract_phase("anything", toy8, 8)

    def test_tie_on_position_prefers_earlier_phase(self, toy8):
        # no text: every phase ties at position -1, the default wins;
        # with two mentions at different spots the later one wins even if
        # its phase index is smaller
        assert extract_phase("WTWL then NTST", toy8, 5) == 0
        assert extract_phase("NTST then WTWL", toy8, 5) == 7

    def test_histogram_sums_to_g(self, toy8, vocab8):
        responses = [
            "<signal>NTST</signal>",
            "<signal>NTST</signal>",
            "pick ETEL",
            "nothing at all",
        ]
        counts = phase_histogram(responses, toy8, 0, vocab8)
        assert counts.sum() == 4
        assert counts[0] == 3  # two tags plus the default fallback
        assert counts[6] == 1

    def test_loader_unescapes_newlines(self, tmp_path, toy8):
        p = tmp_path / "cases.tsv"
        p.write_text("# comment\nline\\n<signal>STSL</signal>\tSTSL\n")
        cases = load_extraction_cases(p)
        assert cases == [("line\n<signal>STSL</signal>", "STSL")]
        assert extract_phase(cases[0][0], toy8, 0) == 3


class TestVerbalize:
    def _observation(self, toy8, seed=0):
        demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.2})
        sim = Intersection(toy8, demand, stream_rng(seed, STREAM_DEMAND, 0))
        for _ in range(120):
            sim.step()
        return sim.observe(), sim

    def test_feature_layout(self, toy8):
        obs, sim = self._observation(toy8)
        features = verbalize(obs, 2, toy8)
        n = toy8.n_phases
        assert features.shape == (feature_length(toy8),)
        # one-hot block
        onehot = features[4 * n :]
        assert onehot[2] == 1.0 and onehot.sum() == 1.0
        # per-phase sums match the observation
        for ph in toy8.phases:
            early = sum(obs[lid].early_queued for lid in ph.allowed_lanes)
            assert features[ph.index * 4] == early

    def test_missing_lane_rejected(self, toy8):
        obs, _ = self._observation(toy8)
        obs = dict(obs)
        del obs["N_T"]
        with pytest.raises(KeyError):
            verbalize(obs, 0, toy8)

    def test_features_are_raw_counts(self, toy8):
        obs, _ = self._observation(toy8)
        counts = verbalize(obs, 0, toy8)[: 4 * toy8.n_phases]
        assert np.all(counts == np.round(counts))
        assert np.all(counts >= 0)
