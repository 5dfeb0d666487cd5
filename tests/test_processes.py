"""The forked-child stream that carries an ecgan run's GAN half."""

import multiprocessing
import os

import pytest

from ecgan.processes import ChildStream


def test_child_that_dies_without_a_result_is_an_error():
    def items():
        yield 1
        os._exit(3)

    with ChildStream(items(), finish=lambda: "unreached") as stream:
        assert next(stream) == 1
        with pytest.raises(RuntimeError, match="exited with code 3"):
            stream.result()
    assert multiprocessing.active_children() == []
