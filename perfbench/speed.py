"""Machine-speed reference: a fixed slice of work, unrelated to contextnet.

On a shared virtual machine the speed one thread gets drifts by tens of per
cent over seconds to minutes, as neighbouring tenants load the host. Plain
wall-clock medians of identical runs then differ by more than any useful
regression bound. So the benchmark times a fixed reference slice between
operations and divides each operation's time by the local speed factor: the
mean time of the two slices around it, over ``REF_SLICE_S``. The scaled
times read as the times on a machine where one slice takes ``REF_SLICE_S``.
The benchmark's files fix the slice, so a change to contextnet cannot move it.
Raw times stay in the run's record.

Import time barely follows the slice, so ``setup_s`` has a reference of its
own: an import of ``REF_MODULES`` in a fresh interpreter, which the Python
installation fixes (see ``run.measure_setup``).
"""

from __future__ import annotations

import time

import numpy as np

#: One slice on an idle core of a 2.0 GHz Xeon virtual machine
#: (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REF_SLICE_S = 0.00425
#: Seconds between two slices. Short, frequent slices follow the drift more
#: closely than long, rare ones; either way slices add about 7% to a run.
SLICE_EVERY_S = 0.06
_KERNEL_CALLS = 10
#: Standard-library modules whose import is the reference for ``setup_s``.
REF_MODULES = (
    "email.message, http.client, xml.dom.minidom, unittest, decimal, asyncio, "
    "sqlite3, tarfile, zipfile, logging.handlers"
)
#: Their import in a fresh interpreter on an idle core of the same machine.
REF_IMPORT_S = 0.065
#: Most operations one measurement holds; a measurement that reaches it ends
#: early. The two time buffers of 8 bytes per operation are allocated at this
#: size up front, so the benchmark's own bookkeeping adds a fixed 8 MiB to
#: ``peak_rss_mb`` whatever the operation rate.
MAX_OPS = 1 << 19

_M = (np.arange(12) % 5 + 1j * (np.arange(12) % 3)).reshape(3, 4)
_G = _M @ _M.conj().T


def _kernel() -> tuple[float, int]:
    """The interpreter work and small LAPACK calls that the workloads are made of."""
    acc, parts = 0.0, []
    for k in range(200):
        x = (k * 0.37) % 1.0
        acc += x * x / (1.0 + x)
        parts.append(f"{x:.17g}")
    table = dict(zip(parts, range(200)))
    for _ in range(6):
        np.linalg.svd(_M)
        np.linalg.eigvalsh(_G)
        np.vdot(_M[0], _M[1])
    return acc, len(table)


def slice_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(_KERNEL_CALLS):
        _kernel()
    return time.perf_counter() - t0


class SpeedTrack:
    """Per-operation times, each scaled by the slices taken just before and after it.

    ``add`` stores a raw time; once ``SLICE_EVERY_S`` seconds have passed
    since the last slice, ``add`` takes a new slice and scales the times
    stored since the one before. ``flush`` does so at once and must end every
    measurement. ``raw[:n]`` and ``scaled[:n]`` then hold the times.
    """

    def __init__(self) -> None:
        # Written in full now, so their pages are resident from the start.
        self.raw = np.full(MAX_OPS, np.nan)
        self.scaled = np.full(MAX_OPS, np.nan)
        self.n = 0
        self._scaled_n = 0
        self.slices = [slice_seconds()]
        self._last = time.perf_counter()

    def full(self) -> bool:
        return self.n == MAX_OPS

    def add(self, seconds: float) -> None:
        self.raw[self.n] = seconds
        self.n += 1
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self._scaled_n == self.n:
            return
        s = slice_seconds()
        factor = (self.slices[-1] + s) / 2 / REF_SLICE_S
        self.slices.append(s)
        done, n = self._scaled_n, self.n
        self.scaled[done:n] = self.raw[done:n] / factor
        self._scaled_n = n
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Median speed factor over the run: above 1 means a slower machine."""
        return float(np.median(self.slices)) / REF_SLICE_S
