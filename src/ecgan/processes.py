"""Process helpers shared by the cell workers (`harness.run_cells`) and the
GAN half of an ecgan run (`training.train`): one OpenBLAS thread per
process, and a generator run in a forked child.

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


def _run_child(items, finish, conn):
    one_blas_thread()
    try:
        for item in items:
            conn.send(("item", item))
        conn.send(("result", finish()))
    except Exception as e:  # the reader raises it in place of the next item
        conn.send(("raise", e))


class ChildStream:
    """The items of generator `items`, made in a forked child process.

    The child sends each item as soon as it is made, blocking while the
    pipe is full, and after the last one the value of `finish()`, which
    `result()` returns. An exception in the child is raised by the read
    that would have returned the item it stopped, so the reader sees every
    item before it first. Leaving the `with` block ends the child: it is
    terminated unless `result()` has already joined it.
    """

    def __init__(self, items, finish):
        self._conn, child_conn = FORK.Pipe(duplex=False)
        self._process = FORK.Process(target=_run_child, args=(items, finish, child_conn))
        self._process.start()
        child_conn.close()

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
        return value

    def result(self):
        """`finish()`'s value: the message after the last item."""
        value = next(self)
        self._process.join()
        return value

    def close(self):
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
