"""Token vocabulary, observation features, and phase extraction.

The controller's interface to the signal plan is textual: the policy emits
tokens, the decoded string is scanned for a ``<signal>MNEMONIC</signal>``
tag, and failing that for the last plain mention of a mnemonic or phase
description. The vocabulary is deliberately tiny (one token per mnemonic
plus structural, numeral, and filler tokens) so the whole string pipeline
stays exercised at desk scale.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .sim import Topology

SIGNAL_OPEN = "<signal>"
SIGNAL_CLOSE = "</signal>"
EOS = "<eos>"

# Filler tokens stand in for free-form reasoning text. A filler, structural or
# numeral token that holds a phase's mnemonic or description in any case
# would name that phase to the extractor's case-insensitive scan, so
# Vocabulary.for_topology refuses such a topology.
FILLER_WORDS = (
    "the", "traffic", "flow", "wait", "heavy", "light", "queue", "move",
    "stop", "clear", "now", "next", "keep", "shift", "plan", "so",
)

_TAG_RE = re.compile(re.escape(SIGNAL_OPEN) + r"(.*?)" + re.escape(SIGNAL_CLOSE), re.DOTALL)


class Vocabulary:
    """Dense token-id table over mnemonics + structure + numerals + filler."""

    def __init__(self, mnemonics: Sequence[str], n_filler: int = 16):
        if n_filler > len(FILLER_WORDS):
            raise ValueError(f"at most {len(FILLER_WORDS)} filler tokens available")
        tokens = list(mnemonics)
        tokens += [SIGNAL_OPEN, SIGNAL_CLOSE, EOS]
        tokens += [str(d) for d in range(10)]
        tokens += list(FILLER_WORDS[:n_filler])
        repeated = sorted({tok for tok in tokens if tokens.count(tok) > 1})
        if repeated:
            raise ValueError(f"vocabulary tokens must be unique; repeated: {repeated}")
        self.tokens: Tuple[str, ...] = tuple(tokens)
        self.index: Dict[str, int] = {tok: i for i, tok in enumerate(tokens)}
        self.eos_id = self.index[EOS]

    @property
    def size(self) -> int:
        return len(self.tokens)

    def decode(self, token_ids: Sequence[int]) -> str:
        return " ".join(map(self.tokens.__getitem__, np.asarray(token_ids, dtype=np.int64).tolist()))

    @staticmethod
    def for_topology(topo: Topology, n_filler: int = 16) -> "Vocabulary":
        """The vocabulary of ``topo``'s phases.

        Raises ValueError, naming both, if a phase mnemonic or description
        occurs, ignoring case, inside a structural, numeral or filler token.
        """
        vocab = Vocabulary([p.mnemonic for p in topo.phases], n_filler=n_filler)
        for token in vocab.tokens[topo.n_phases :]:
            for phase in topo.phases:
                for name in (phase.mnemonic, phase.description):
                    if name.lower() in token.lower():
                        raise ValueError(
                            f"phase {phase.mnemonic!r}: {name!r} occurs in the vocabulary token {token!r}, "
                            "so a response holding that token would name the phase"
                        )
        return vocab


def feature_length(topo: Topology) -> int:
    return topo.n_phases * 4 + topo.n_phases


def verbalize(observation: np.ndarray, current_phase: int, topo: Topology) -> np.ndarray:
    """The feature vector the policy reads for an observation.

    Per phase in table order, the four columns of the (n_lanes, 4)
    observation summed over its lanes, then a one-hot of the current phase.
    """
    return np.concatenate([(topo.phase_lanes @ observation).ravel(), np.eye(topo.n_phases)[current_phase]])


def extract_phase(text_or_tokens, topo: Topology, default_code: int, vocab: Optional[Vocabulary] = None) -> int:
    """Extract the chosen phase index from generated output.

    Resolution order: (1) the last ``<signal>...</signal>`` span whose
    content is a valid mnemonic; (2) the mnemonic or phase description
    with the last case-insensitive occurrence anywhere in the text;
    (3) ``default_code``. Total by construction.
    """
    if not 0 <= default_code < topo.n_phases:
        raise ValueError(f"default_code {default_code} out of range")
    if isinstance(text_or_tokens, str):
        text = text_or_tokens
    else:
        if vocab is None:
            raise ValueError("token-id input requires a vocabulary")
        text = vocab.decode(text_or_tokens)

    by_mnemonic, needles = topo.phase_names
    for content in reversed(_TAG_RE.findall(text)):
        phase = by_mnemonic.get(content.strip().upper())
        if phase is not None:
            return phase

    lowered = text.lower()
    best_pos = -1
    best_phase = default_code
    for needle, phase in needles:
        pos = lowered.rfind(needle)
        if pos > best_pos:
            best_pos = pos
            best_phase = phase
    return best_phase


def phase_histogram(
    responses: Sequence, topo: Topology, default_code: int, vocab: Optional[Vocabulary] = None
) -> np.ndarray:
    """Count the extracted phase of each response; sums to ``len(responses)``."""
    counts = np.zeros(topo.n_phases, dtype=np.int64)
    for response in responses:
        counts[extract_phase(response, topo, default_code, vocab)] += 1
    return counts
