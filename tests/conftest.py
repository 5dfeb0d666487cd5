import multiprocessing
import os
import sys
from collections import Counter

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


@pytest.fixture(autouse=True)
def no_children_left():
    """Fail a test that leaves a child process running."""
    yield
    left = multiprocessing.active_children()
    for child in left:  # so that the tests after this one start clean
        child.terminate()
        child.join()
    assert left == [], f"the test left {len(left)} child process(es) running"


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


def count_half_steps(monkeypatch):
    """A Counter of the steps this process trains: "gan" gets one per D step,
    so one per minibatch of each GAN half, and "classifier" one per
    classifier step, one per minibatch of each ecgan or baseline classifier
    half. Rebinding the D step keeps a GAN half in the process that trains
    its job; with one core, that is this one."""
    from ecgan import training

    counts = Counter()

    def counted(kind, real):
        return lambda *a, **k: counts.update([kind]) or real(*a, **k)

    monkeypatch.setattr(training, "discriminator_step", counted("gan", training.discriminator_step))
    monkeypatch.setattr(training, "classifier_step", counted("classifier", training.classifier_step))
    return counts
