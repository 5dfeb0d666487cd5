"""Process helpers: one OpenBLAS thread per process, and `ChildStream`,
the one way the lab forks. `harness.run_cells` runs each parallel job in a
`ChildStream` that streams the job's history rows, and `training.train_job`
runs the GAN half of an ecgan run in one that streams its items.

Children are forked, not spawned: they start from the parent's built
networks and imported package, with any wrapper bound on its modules (as
tracers and tests do), none of which a spawned process could be sent.
Forking is safe where no other thread of the parent can hold a lock the
child inherits; `training.evaluate` joins its threads before it returns.
"""

from __future__ import annotations

import ctypes
import multiprocessing

FORK = multiprocessing.get_context("fork")

# The call that sizes OpenBLAS's thread pool, by build: numpy's wheels
# rename the library's symbols, a system OpenBLAS does not.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def one_blas_thread():
    """Have OpenBLAS run every GEMM on the thread that calls it.

    The lab's GEMMs (batch size 4) are too small for a second BLAS thread
    to speed them up: it doubles CPU time and saves no wall time, and
    beside another busy process it waits for a core at every GEMM. A forked
    child restarts its parent's pool sized for every core, so each child
    calls this again. `evaluate`'s own threads are not affected. The
    library is found among this process's mappings; without
    /proc/self/maps or an OpenBLAS this does nothing.
    """
    try:
        with open("/proc/self/maps") as f:
            libraries = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
    except OSError:
        return
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # a mapping that is no loadable library, e.g. "(deleted)"
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                setter = getattr(library, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _run_child(work, conn):
    one_blas_thread()
    try:
        conn.send(("return", work(lambda item: conn.send(("item", item)))))
    except Exception as e:  # the reader raises it in place of the next item
        conn.send(("raise", e))


class ChildStream:
    """`work(send)` run in a forked child process, read as an iterator.

    `work` calls `send(item)` for each item as soon as it is made, blocking
    while the pipe is full, and returns a final value. `next()` returns the
    items in order, then raises `StopIteration(value)` with `work`'s value
    and joins the child. An exception in the child is raised by the read
    that would have returned the item it stopped, so the reader sees every
    item before it first. `fileno()` lets `multiprocessing.connection.wait`
    watch several streams at once. `close()`, also on leaving a `with`
    block, ends the child: it is terminated if it is still running.
    """

    def __init__(self, work):
        self._conn, child_conn = FORK.Pipe(duplex=False)
        self._process = FORK.Process(target=_run_child, args=(work, child_conn))
        self._process.start()
        child_conn.close()

    def __iter__(self):
        return self

    def __next__(self):
        try:
            kind, value = self._conn.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                f"the child process exited with code {self._process.exitcode} before sending its results"
            ) from None
        if kind == "raise":
            raise value
        if kind == "return":
            self._process.join()
            raise StopIteration(value)
        return value

    def fileno(self):
        return self._conn.fileno()

    def close(self):
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
