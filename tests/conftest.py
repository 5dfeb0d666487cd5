import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def set_cores(monkeypatch, n):
    """Have `training.usable_cores()` see `n` cores, through the affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_gan_children(monkeypatch):
    """A list that gets one entry for each GAN half `training.train` forks."""
    from ecgan import training

    started = []
    real = training.ChildStream
    monkeypatch.setattr(training, "ChildStream", lambda *a: started.append(1) or real(*a))
    return started
