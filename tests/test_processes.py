"""`ChildStream`, the forked child that carries a parallel job or an ecgan
run's GAN half."""

import multiprocessing
import os
from multiprocessing.connection import wait

import pytest

from ecgan.processes import ChildStream


def test_items_come_first_then_the_return_value():
    def work(send):
        for item in ("a", "b"):
            send(item)
        return {"done": 2}

    with ChildStream(work) as stream:
        assert next(stream) == "a"
        assert next(stream) == "b"
        with pytest.raises(StopIteration) as end:
            next(stream)
        assert end.value.value == {"done": 2}
    assert multiprocessing.active_children() == []


def test_an_error_comes_after_the_items_sent_before_it():
    def work(send):
        send(1)
        send(2)
        raise KeyError("after two items")

    with ChildStream(work) as stream:
        assert [next(stream), next(stream)] == [1, 2]
        with pytest.raises(KeyError, match="after two items"):
            next(stream)
    assert multiprocessing.active_children() == []


def test_wait_watches_several_streams():
    def work(n):
        def send_n(send):
            for i in range(n):
                send(i)
            return n
        return send_n

    streams = [ChildStream(work(n)) for n in (1, 3)]
    items, values = {0: [], 1: []}, {}
    try:
        while len(values) < len(streams):
            ready = wait([s for i, s in enumerate(streams) if i not in values], timeout=30)
            assert ready, "no stream became readable within 30 s"
            for stream in ready:
                i = streams.index(stream)
                try:
                    items[i].append(next(stream))
                except StopIteration as end:
                    values[i] = end.value
    finally:
        for stream in streams:
            stream.close()
    assert items == {0: [0], 1: [0, 1, 2]}
    assert values == {0: 1, 1: 3}
    assert multiprocessing.active_children() == []


def test_close_ends_a_child_blocked_on_a_full_pipe():
    def work(send):
        while True:  # far more than a pipe holds once nobody reads
            send(bytes(1 << 16))

    stream = ChildStream(work)
    assert len(next(stream)) == 1 << 16
    stream.close()
    assert multiprocessing.active_children() == []


def test_child_that_dies_without_a_result_is_an_error():
    def work(send):
        send(1)
        os._exit(3)

    with ChildStream(work) as stream:
        assert next(stream) == 1
        with pytest.raises(RuntimeError, match="exited with code 3"):
            next(stream)
    assert multiprocessing.active_children() == []
