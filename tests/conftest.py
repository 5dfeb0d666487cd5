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


def pytest_report_header(config):
    """The OpenBLAS kernel the session runs on: results can differ between
    kernels in their last bits, and so can the study's criteria."""
    from ecgan.processes import blas_core_name

    return f"openblas kernel: {blas_core_name()}"


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


def runs_gan_half(work):
    """Whether `work`, given to a `ChildStream` by `ecgan.training`, trains a
    GAN half: `_feed` forks those, and `evaluate` forks its shares."""
    return work.__qualname__ == "_feed.<locals>.work"


def count_gan_children(monkeypatch):
    """A list that gets one entry for each GAN half `training.train` forks."""
    from ecgan import training

    started = []
    real = training.ChildStream

    def child_stream(work):
        if runs_gan_half(work):
            started.append(1)
        return real(work)

    monkeypatch.setattr(training, "ChildStream", child_stream)
    return started


def count_half_steps(monkeypatch):
    """A Counter of the steps this process trains: "gan" gets one per D step,
    so one per minibatch of each GAN half, and "classifier" one per
    classifier step, one per minibatch of each ecgan or baseline classifier
    half, where twins that have not split count as one (see
    `training.train_job`). Rebinding the D step keeps a GAN half in the
    process that trains its job; with one core, that is this one."""
    from ecgan import training

    counts = Counter()

    def counted(kind, real):
        return lambda *a, **k: counts.update([kind]) or real(*a, **k)

    monkeypatch.setattr(training, "discriminator_step", counted("gan", training.discriminator_step))
    monkeypatch.setattr(training, "classifier_step", counted("classifier", training.classifier_step))
    return counts


def overflowing_adam(steps):
    """An `Adam` to bind to `training.Adam`, whose optimizers with betas
    `b` overflow at their update `steps[b]` (from 0): the first parameter's
    gradient is float32's largest value, whose square, taken for Adam's
    second moment, is not a float32. D and G share `training.GAN_BETAS`, and
    D updates first in a step. `Adam` is no GAN step, so a GAN half still
    trains in its child (see `training._feed`), and the overflow raises there
    only under the error state that `training.train_job` sets."""
    from ecgan import training

    class OverflowingAdam(training.Adam):
        def step(self):
            if steps.get((self.beta1, self.beta2)) == self.step_count:
                _, p = self.params[0]
                p.grad = np.full_like(p.grad, np.finfo(np.float32).max)
            super().step()

    return OverflowingAdam
