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

from .config import FILLER_WORDS
from .sim import Topology

SIGNAL_OPEN = "<signal>"
SIGNAL_CLOSE = "</signal>"
EOS = "<eos>"

# Filler tokens (FILLER_WORDS) stand in for free-form reasoning text. A
# filler, structural or numeral token that holds a phase's mnemonic or
# description in any case, or tokens that spell one across their boundary,
# would name that phase to the extractor's case-insensitive scan, so
# Vocabulary.for_topology refuses such a topology.

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

        Raises ValueError, naming the phase and the tokens, if a phase
        mnemonic or description is empty, occurs, ignoring case, inside a
        structural, numeral or filler token, or can be spelled, ignoring
        case, by vocabulary tokens across a token boundary (see
        :func:`_spelling`).
        """
        vocab = Vocabulary([p.mnemonic for p in topo.phases], n_filler=n_filler)
        for phase in topo.phases:
            for kind, name in (("mnemonic", phase.mnemonic), ("description", phase.description)):
                if not name:
                    raise ValueError(f"phase {phase.mnemonic!r}: the {kind} is empty, "
                                     "and the extractor finds an empty name in every response")
                for token in vocab.tokens[topo.n_phases :]:
                    if name.lower() in token.lower():
                        raise ValueError(
                            f"phase {phase.mnemonic!r}: {name!r} occurs in the vocabulary token {token!r}, "
                            "so a response holding that token would name the phase"
                        )
                spelling = _spelling(name, vocab.tokens)
                if spelling:
                    raise ValueError(
                        f"phase {phase.mnemonic!r}: {name!r} is spelled across the vocabulary tokens "
                        f"{' '.join(map(repr, spelling))}, so a response holding them would name the phase"
                    )
        return vocab


def _spelling(name: str, tokens: Sequence[str]) -> Optional[Tuple[str, ...]]:
    """Tokens whose decoded text holds ``name`` across a token boundary, ignoring case, or None.

    A decoded response joins its tokens with single spaces, so ``name``
    split at its spaces is spelled when its first part ends a token, each
    inner part is a whole token and its last part begins a token. A name
    without a space crosses no boundary.
    """
    if " " not in name:
        return None
    first, *inner, last = name.lower().split(" ")
    spelling = [next((t for t in tokens if t.lower().endswith(first)), None)]
    spelling += [next((t for t in tokens if t.lower() == part), None) for part in inner]
    spelling.append(next((t for t in tokens if t.lower().startswith(last)), None))
    return None if None in spelling else tuple(spelling)


def feature_length(topo: Topology) -> int:
    return topo.n_phases * 4 + topo.n_phases


def verbalize(observation: np.ndarray, current_phase: int, topo: Topology) -> np.ndarray:
    """The feature vector the policy reads for an observation.

    Per phase in table order, the four columns of the (n_lanes, 4)
    observation summed over its lanes, then a one-hot of the current phase.
    """
    return np.concatenate([(topo.phase_lanes @ observation).ravel(), np.eye(topo.n_phases)[current_phase]])


def extract_phase(text: str, topo: Topology, default_code: int) -> int:
    """Extract the chosen phase index from a generated response's text.

    Resolution order: (1) the last ``<signal>...</signal>`` span whose
    content is a valid mnemonic; (2) the mnemonic or phase description
    whose last case-insensitive occurrence anywhere in the text ends
    last, the longer on a tie; (3) ``default_code``. Total by
    construction. Callers holding token ids decode them first
    (:meth:`Vocabulary.decode`).
    """
    if not 0 <= default_code < topo.n_phases:
        raise ValueError(f"default_code {default_code} out of range")

    by_mnemonic, needles = topo.phase_names
    for content in reversed(_TAG_RE.findall(text)):
        phase = by_mnemonic.get(content.strip().upper())
        if phase is not None:
            return phase

    # the needle whose last occurrence ends last, and on a tie the longer one, so a
    # mnemonic that holds another phase's mnemonic reads as its own phase
    lowered = text.lower()
    best = (0, 0)
    best_phase = default_code
    for needle, phase in needles:
        pos = lowered.rfind(needle)
        if pos >= 0 and (pos + len(needle), len(needle)) > best:
            best = (pos + len(needle), len(needle))
            best_phase = phase
    return best_phase


def phase_histogram(responses: Sequence, topo: Topology, default_code: int, vocab: Vocabulary) -> np.ndarray:
    """Count the extracted phase of each token response, decoded by ``vocab``; sums to ``len(responses)``."""
    counts = np.zeros(topo.n_phases, dtype=np.int64)
    for response in responses:
        counts[extract_phase(vocab.decode(response), topo, default_code)] += 1
    return counts
