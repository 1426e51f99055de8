"""One forked child beside the caller: the only place the package forks.

Two places hand half of their work to a child: ``io._write_values``
formats the second half of a large table's rows, and
``engine.indicator_series`` computes the second half of a long run's
periods where its kernel can pin OpenBLAS to one thread. Each does that
half itself when no child could start or the child failed, so results and
errors are those of the serial order either way.
"""

from __future__ import annotations

import os
import signal
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, suppress


@contextmanager
def forked(task, dir=None):
    """Run ``task(out)`` in a forked child while the ``with`` block runs here.

    ``out`` is an anonymous binary temporary file in ``dir`` that the
    child writes its result to. The block gets ``collect``: it waits for
    the child and returns ``out`` at its start, or ``None`` if there was
    no child (no fork on the platform, or the file or the fork was
    refused) or the child failed. On ``None`` the caller does the child's share itself,
    so results and errors are those of the serial order. The child leaves
    only through ``os._exit``, so it never returns into the caller nor
    flushes this process's buffered output. If the block raises before
    ``collect`` has returned, the child is killed and reaped.
    """
    pid = status = None

    def collect():
        nonlocal status
        if pid is None:
            return None
        status = os.waitpid(pid, 0)[1]
        if status:
            return None
        out.seek(0)
        return out

    with ExitStack() as stack:
        # No fork on the platform (AttributeError), or no room for the file or no process
        # to spare (OSError): pid stays None.
        with warnings.catch_warnings(), suppress(AttributeError, OSError):
            # Python 3.12+ warns on fork in a threaded process, and numpy's OpenBLAS starts
            # its worker threads when numpy loads, in a CLI process too. OpenBLAS stops them
            # before a fork and starts them again on the next BLAS call that needs them.
            warnings.filterwarnings(
                "ignore", "This process .* is multi-threaded", DeprecationWarning
            )
            out = stack.enter_context(tempfile.TemporaryFile(dir=dir))
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                task(out)
                out.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            yield collect
        finally:
            if pid is not None and status is None:  # the child must not outlive the block
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
