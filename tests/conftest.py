import numpy as np
import pytest

from tsclab.phases import Vocabulary, feature_length
from tsclab.policy import TokenPolicy, ValueHead
from tsclab.sim import build_topology


@pytest.fixture(scope="session")
def toy8():
    return build_topology("toy8")


@pytest.fixture(scope="session")
def toy4():
    return build_topology("toy4")


@pytest.fixture(scope="session")
def vocab8(toy8):
    return Vocabulary.for_topology(toy8)


@pytest.fixture()
def small_policy(toy8, vocab8):
    """A policy small enough for finite-difference checks."""
    rng = np.random.Generator(np.random.PCG64(7))
    return TokenPolicy(
        vocab_size=vocab8.size,
        feature_len=feature_length(toy8),
        eos_id=vocab8.eos_id,
        d_embed=4,
        d_hidden=6,
        k_history=4,
        max_len=8,
        rng=rng,
    )


@pytest.fixture()
def small_value(toy8):
    rng = np.random.Generator(np.random.PCG64(11))
    return ValueHead(feature_length(toy8), rng=rng)
