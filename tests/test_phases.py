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
    phase_histogram,
    verbalize,
)
from tsclab.sim import STREAM_DEMAND, DemandProfile, Intersection, build_topology, stream_rng

CASES_PATH = Path(__file__).parent / "data" / "extraction_cases.tsv"


def load_extraction_cases(path):
    """Read extraction fixtures: one ``input_text TAB expected_mnemonic`` per line.

    Literal ``\\n`` sequences in the input text are unescaped to real
    newlines so multi-line cases fit the one-line format. Blank lines and
    ``#`` comments are skipped.
    """
    cases = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            text, expected = line.split("\t")
            cases.append((text.replace("\\n", "\n"), expected))
    return cases


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
        ids = [vocab8.index["NTST"], vocab8.index[SIGNAL_OPEN], vocab8.index["7"]]
        assert vocab8.decode(ids) == f"NTST {SIGNAL_OPEN} 7"

    def test_decode_takes_arrays_and_lists_alike(self, vocab8):
        ids = [vocab8.index["ETWT"], vocab8.index[SIGNAL_CLOSE], 0, vocab8.eos_id]
        text = "ETWT </signal> NTST <eos>"
        assert vocab8.decode(np.array(ids, dtype=np.int64)) == text
        assert vocab8.decode(ids) == text
        assert vocab8.decode([np.int64(i) for i in ids]) == text
        assert vocab8.decode(np.array([], dtype=np.int64)) == ""

    def test_filler_budget(self):
        with pytest.raises(ValueError):
            Vocabulary(["AA"], n_filler=len(FILLER_WORDS) + 1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["AA", "AA"])

    @staticmethod
    def _pair(**second):
        """Two lanes A and B; phase 0 is AX, phase 1 serves B with ``second``'s names."""
        phases = [{"mnemonic": "AX", "allowed_lanes": ["A"]}, {"mnemonic": "BX", "allowed_lanes": ["B"], **second}]
        return build_topology({"name": "pair", "lanes": [{"lane_id": "A"}, {"lane_id": "B"}], "phases": phases})

    @pytest.mark.parametrize(
        "names, token, text",
        [
            ({"mnemonic": "THE"}, "the", "the traffic"),
            ({"mnemonic": "LOW"}, "flow", "flow the"),
            ({"mnemonic": "SIG"}, SIGNAL_OPEN, f"{SIGNAL_OPEN} 7"),
            ({"description": "Now"}, "now", "stop now"),
        ],
        ids=["THE", "LOW", "SIG", "description"],
    )
    def test_phase_name_inside_a_token_rejected(self, names, token, text):
        """A mnemonic or description inside a filler, structural or numeral
        token, in any case, would let that token alone name its phase."""
        topo = self._pair(**names)
        assert extract_phase(text, topo, 0) == 1
        name = next(iter(names.values()))
        message = f"phase '{topo.phases[1].mnemonic}': '{name}' occurs in the vocabulary token '{token}'"
        with pytest.raises(ValueError, match=message):
            Vocabulary.for_topology(topo)

    def test_phase_name_inside_an_unused_filler_accepted(self):
        """``flow`` is the third filler word, so two fillers leave LOW unambiguous."""
        topo = self._pair(mnemonic="LOW")
        assert Vocabulary.for_topology(topo, n_filler=2).tokens[-2:] == FILLER_WORDS[:2]
        with pytest.raises(ValueError, match="'flow'"):
            Vocabulary.for_topology(topo, n_filler=3)


    @pytest.mark.parametrize(
        "description, text, spelling",
        [
            ("heavy traffic", "heavy traffic", "'heavy' 'traffic'"),
            ("vy traffic fl", "heavy traffic flow", "'heavy' 'traffic' 'flow'"),
            ("AX now", "ax now", "'AX' 'now'"),
            (" traffic", "so traffic", "'AX' 'traffic'"),
        ],
        ids=["two-tokens", "inner-token", "mnemonic", "leading-space"],
    )
    def test_description_spelled_across_tokens_rejected(self, description, text, spelling):
        """Tokens joined by single spaces that spell a description, in any
        case, would name its phase though no one token holds it."""
        topo = self._pair(description=description)
        assert extract_phase(text, topo, 0) == 1
        message = f"phase 'BX': '{description}' is spelled across the vocabulary tokens {spelling}"
        with pytest.raises(ValueError, match=message):
            Vocabulary.for_topology(topo)

    def test_description_no_spacing_can_spell_accepted(self):
        """Decoding puts one space between tokens, so two spaces, or a
        part no token begins, spell nothing."""
        for description in ("heavy  traffic", "heavy trafficx"):
            assert Vocabulary.for_topology(self._pair(description=description)).size == 2 + 3 + 10 + 16

    def test_empty_description_rejected(self):
        """An empty description occurs at the end of every response."""
        topo = self._pair(description="")
        assert extract_phase("so", topo, 0) == 1
        with pytest.raises(ValueError, match="phase 'BX': the description is empty"):
            Vocabulary.for_topology(topo)


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
        ids = [vocab8.index[SIGNAL_OPEN], vocab8.index["ETEL"], vocab8.index[SIGNAL_CLOSE]]
        assert extract_phase(vocab8.decode(ids), toy8, 0) == 6

    def test_default_code_validated(self, toy8):
        with pytest.raises(ValueError):
            extract_phase("anything", toy8, 8)

    def test_tie_on_position_prefers_earlier_phase(self, toy8):
        # no text: every phase ties at position -1, the default wins;
        # with two mentions at different spots the later one wins even if
        # its phase index is smaller
        assert extract_phase("WTWL then NTST", toy8, 5) == 0
        assert extract_phase("NTST then WTWL", toy8, 5) == 7

    def test_mnemonic_holding_another_reads_as_its_phase(self):
        """With phases AX and AXB, the token AXB names phase 1 by mention as by
        tag: the needle that ends last wins, and on a tie the longer one."""
        topo = TestVocabulary._pair(mnemonic="AXB")
        vocab = Vocabulary.for_topology(topo)
        assert extract_phase(vocab.decode([vocab.index["AXB"]]), topo, 0) == 1
        assert extract_phase("<signal>AXB</signal>", topo, 0) == 1
        assert extract_phase("so AXB", topo, 0) == 1
        assert extract_phase("AXB then AX", topo, 1) == 0
        assert extract_phase("AX then AXB", topo, 0) == 1

    def test_histogram_sums_to_g(self, toy8, vocab8):
        responses = [
            [vocab8.index[token] for token in text.split()]
            for text in (
                f"{SIGNAL_OPEN} NTST {SIGNAL_CLOSE}",
                f"{SIGNAL_OPEN} NTST {SIGNAL_CLOSE}",
                "keep ETEL",
                "the traffic",
            )
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
    def _observation(self, topo, seed=0):
        demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.2})
        sim = Intersection(topo, demand, stream_rng(seed, STREAM_DEMAND, 0))
        for _ in range(120):
            sim.step()
        return sim.observe(), sim

    def test_feature_layout(self, toy8, toy4):
        # toy4's phases share lanes (N_T and S_T serve two phases each)
        for topo in (toy8, toy4):
            obs, sim = self._observation(topo)
            features = verbalize(obs, 2, topo)
            n = topo.n_phases
            assert features.shape == (feature_length(topo),)
            # one-hot block
            onehot = features[4 * n :]
            assert onehot[2] == 1.0 and onehot.sum() == 1.0
            # per phase, each of the four columns summed over the phase's lanes
            rows = {lid: obs[i] for i, lid in enumerate(topo.lane_ids)}
            for ph in topo.phases:
                sums = sum(rows[lid] for lid in ph.allowed_lanes)
                assert features[ph.index * 4 : ph.index * 4 + 4].tolist() == sums.tolist()

    def test_missing_lane_rejected(self, toy8):
        obs, _ = self._observation(toy8)
        obs = np.delete(obs, toy8.lane_ids.index("N_T"), axis=0)
        with pytest.raises(ValueError):
            verbalize(obs, 0, toy8)

    def test_features_are_raw_counts(self, toy8):
        obs, _ = self._observation(toy8)
        counts = verbalize(obs, 0, toy8)[: 4 * toy8.n_phases]
        assert np.all(counts == np.round(counts))
        assert np.all(counts >= 0)
