"""Shared fixtures.

Devices are process-global accounting domains, so tests measure *deltas*
via ``profile_memory`` rather than absolute tracker values.  The trained
model fixture is session-scoped: several evaluation-dependent tests reuse
one short fine-tune.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor as rt
from repro.data import FactWorld, alpaca_batches, corpus_batches, generate_alpaca, generate_corpus
from repro.data.corpus import corpus_vocabulary
from repro.llm import MICRO, FinetuneConfig, WordTokenizer, build_model, train_causal_lm

# Single authoritative seed for every pseudo-random source the suite
# touches.  CI runs the suite across a Python-version matrix; seeding both
# numpy's legacy global RNG and the tensor-library RNG in one autouse
# fixture keeps every test (and any test that forgets to pass an explicit
# generator) reproducible across interpreters and orderings.
SUITE_SEED = 0


@pytest.fixture(autouse=True)
def _seed_everything() -> int:
    np.random.seed(SUITE_SEED)
    rt.manual_seed(SUITE_SEED)
    return SUITE_SEED


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SUITE_SEED)


@pytest.fixture
def gpu():
    return rt.GPU


@pytest.fixture
def cpu():
    return rt.CPU


@pytest.fixture(scope="session")
def world() -> FactWorld:
    return FactWorld(seed=0)


@pytest.fixture(scope="session")
def tokenizer(world) -> WordTokenizer:
    return WordTokenizer(corpus_vocabulary(world))


@pytest.fixture(scope="session")
def trained_model(world, tokenizer):
    """A briefly fine-tuned MICRO model that is clearly above chance."""
    corpus = generate_corpus(world, 1200, seed=1)
    alpaca = generate_alpaca(world, 400, seed=2)
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    cfg = FinetuneConfig(lr=3e-3)
    train_causal_lm(
        model, corpus_batches(corpus, tokenizer, 16, rt.GPU, epochs=2, seed=3), cfg
    )
    train_causal_lm(
        model, alpaca_batches(alpaca, tokenizer, 16, rt.GPU, epochs=1, seed=4), cfg
    )
    model.eval()
    return model


@pytest.fixture(scope="session")
def trained_state(trained_model):
    """Snapshot of the trained model's parameters (tests must restore)."""
    return {k: v.numpy().copy() for k, v in trained_model.state_dict().items()}


@pytest.fixture
def restored_model(trained_model, trained_state):
    """The trained model with parameters freshly restored to the snapshot.

    Use only for tests that mutate parameter *values*; tests that change
    the module structure (compression wrappers) must use ``model_factory``.
    """
    for name, param in trained_model.state_dict().items():
        param.copy_(trained_state[name])
    trained_model.eval()
    yield trained_model
    for name, param in trained_model.state_dict().items():
        param.copy_(trained_state[name])
    trained_model.eval()


@pytest.fixture
def model_factory(tokenizer, trained_state):
    """Builds fresh MICRO models pre-loaded with the trained snapshot."""

    def build():
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        model.to(rt.GPU)
        for name, param in model.state_dict().items():
            param.copy_(trained_state[name])
        model.eval()
        return model

    return build
