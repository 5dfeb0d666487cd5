"""Process helpers: one OpenBLAS thread per process, the name of the
kernel OpenBLAS picked, and `ChildStream`,
the one way the lab runs work in parallel. `harness.run_cells` runs each
parallel job in a `ChildStream` that streams the job's history rows,
`training.train_job` runs the GAN half of an ecgan run in one that streams
its items, and `training.evaluate` counts each share of its chunks but the
first in one that sends the count.

Children are forked, not spawned: they start from the parent's built
networks and imported package, with any wrapper bound on its modules (as
tracers and tests do), none of which a spawned process could be sent.
A child ends when nothing reads it any more (see `ChildStream`).
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing

FORK = multiprocessing.get_context("fork")

# The calls that read and size OpenBLAS's thread count, by build: numpy's
# wheels rename the library's symbols, a system OpenBLAS does not.
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_libraries():
    """The OpenBLAS libraries among this process's mappings, loaded; none
    without /proc/self/maps."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            yield ctypes.CDLL(path)
        except OSError:  # a mapping that is no loadable library, e.g. "(deleted)"
            continue


def one_blas_thread():
    """Have OpenBLAS run every GEMM on the thread that calls it.

    The lab's GEMMs (batch size 4) are too small for a second BLAS thread
    to speed them up: it doubles CPU time and saves no wall time, and
    beside another busy process it waits for a core at every GEMM. A forked
    child keeps its parent's count but not its pool, which the child's
    first GEMM restarts with that count, so each child calls this again.
    The count is set only if it is not 1 already: setting it where no pool
    runs, as in a child, starts a pool whose idle worker spins for about
    0.1 s of CPU. The library is found among this process's mappings;
    without /proc/self/maps or an OpenBLAS this does nothing.
    """
    for library in _openblas_libraries():
        for get_name, set_name in _BLAS_THREAD_CALLS:
            if hasattr(library, set_name):
                getter, setter = getattr(library, get_name), getattr(library, set_name)
                getter.restype = ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                if getter() != 1:
                    setter(1)
                break


def blas_core_name():
    """The name of the kernel that a `DYNAMIC_ARCH` OpenBLAS picked for this
    CPU when it loaded, such as "SkylakeX", or None without /proc/self/maps
    or an OpenBLAS. The kernel can change the last bits of a GEMM, and so
    of everything trained."""
    for library in _openblas_libraries():
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(library, name):
                corename = getattr(library, name)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def _run_child(work, conn, reader):
    reader.close()  # so that a send fails once the reader's end is closed
    one_blas_thread()
    try:
        end = ("return", work(lambda item: conn.send(("item", item))))
    except Exception as e:  # the reader raises it in place of the next item
        end = ("raise", e)
    with contextlib.suppress(BrokenPipeError):  # nothing reads it any more
        conn.send(end)


class ChildStream:
    """`work(send)` run in a forked child process, read as an iterator.

    `work` calls `send(item)` for each item as soon as it is made, blocking
    while the pipe is full, and returns a final value. `next()` returns the
    items in order, then raises `StopIteration(value)` with `work`'s value
    and joins the child. An exception in the child is raised by the read
    that would have returned the item it stopped, so the reader sees every
    item before it first. `fileno()` lets `multiprocessing.connection.wait`
    watch several streams at once. `close()`, also on leaving a `with`
    block, ends the child: it is terminated if it is still running. Once
    the reader has closed its end or is gone, the child ends quietly at its
    next send, so the children a child has forked end with it.
    """

    def __init__(self, work):
        self._conn, child_conn = FORK.Pipe(duplex=False)
        self._process = FORK.Process(target=_run_child, args=(work, child_conn, self._conn))
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
