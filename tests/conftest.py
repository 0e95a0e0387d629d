import contextlib

import numpy as np
import pytest

import oracles
from svbench import e2e, nn
from svbench.audio import AudioClip
from svbench.datagen import SyntheticSpec, generate_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """10-speaker synthetic corpus shared across tests; (entries, directory)."""
    out = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(num_speakers=10, utterances_per_speaker=5, seed=7)
    entries = generate_corpus(spec, str(out))
    return entries, str(out)


@pytest.fixture
def rank_deficient_vectors():
    """(200 x 24 vectors of rank 6, labels of 20 classes), integer-valued so that
    their rank is exactly 6 and every float storage keeps them exact. At LDA target_dim
    12, floating-point rounding makes some w' Sw w of the rescale negative, so its
    square root is NaN."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(20), 10)
    z = rng.integers(-4, 5, (20, 6))[labels] + rng.integers(-2, 3, (200, 6))
    return (z @ rng.integers(-3, 4, (6, 24))).astype(np.float64), labels


@pytest.fixture
def tone_clip():
    """1.0 s of a pure 1 kHz tone at 16 kHz."""
    t = np.arange(16000) / 16000.0
    return AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)


@pytest.fixture
def silence_clip():
    return AudioClip(np.zeros(16000), 16000)


@pytest.fixture
def reference_engine(monkeypatch):
    """Context manager that runs svbench on the reference layer engine in oracles.py."""
    @contextlib.contextmanager
    def use():
        with monkeypatch.context() as m:
            m.setattr(nn.TimeDelay, "forward", oracles.time_delay_forward)
            m.setattr(nn.TimeDelay, "backward", oracles.time_delay_backward)
            m.setattr(nn.Network, "backward", oracles.network_backward)
            m.setattr(e2e, "calibrate_network", oracles.calibrate_network)
            m.setattr(e2e, "_batch_step", oracles.batch_step)
            yield
    return use
