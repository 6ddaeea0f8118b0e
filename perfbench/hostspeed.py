"""Host speed, measured with a fixed reference kernel.

On a shared virtual machine the speed of one vCPU drifts with the load
of other guests: the same msflow solve, in one process, on one input,
took anywhere from 1.4 s to 2.6 s within eight minutes, and a pure-Python
loop drifted with it.  A run-level median cannot remove that.  The
benchmark therefore times this kernel next to every repetition and
reports each repetition's times scaled to a host on which one kernel
call takes `NOMINAL_S`:

    reported = measured * NOMINAL_S / kernel time around the repetition

The kernel is the benchmark's own code and calls nothing in msflow, so a
change to the program moves the reported times and leaves the kernel
alone.  Its work has the shape of the program's hot loops:

- a Python loop issuing small numpy operations (batched tridiagonal
  substitution on short lines, as in the smoother's box solves, plus
  axis moves and reshapes);
- scipy.sparse assembly and a SuperLU solve of a 40x40 five-point
  system, as in the transport Newton steps and the block factors.
"""

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

# a typical time of one kernel call on the 2-vCPU Xeon (Sapphire Rapids)
# guest the benchmark was tuned on; it only sets the scale of the report
NOMINAL_S = 0.013

_LINES, _N = 48, 12
_rng = np.random.default_rng(0)
_L = _rng.uniform(0.05, 0.2, (_LINES, _N))
_E = _rng.uniform(2.0, 3.0, (_LINES, _N))
_RHS = _rng.uniform(-1.0, 1.0, (_LINES, _N))
ROUNDS = 100

_SIDE = 40
_LINE = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_SIDE, _SIDE))
_LAPLACIAN = (sparse.kron(sparse.eye(_SIDE), _LINE)
              + sparse.kron(_LINE, sparse.eye(_SIDE))).tocsr()
_SHIFT = _rng.uniform(0.5, 1.5, _SIDE * _SIDE)


def kernel():
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    total = 0.0
    for _ in range(ROUNDS):
        x = _RHS.copy()
        for j in range(1, _N):
            x[:, j] -= _L[:, j - 1] * x[:, j - 1]
        x /= _E
        for j in range(_N - 2, -1, -1):
            x[:, j] -= _L[:, j] * x[:, j + 1]
        x = np.moveaxis(x.reshape(6, 8, _N), 0, 1).reshape(_LINES, _N)
        total += float(x[::7, ::5].sum())
    system = (_LAPLACIAN + sparse.diags(_SHIFT)).tocsc()
    total += float(spsolve(system, _SHIFT).sum())
    return total


def kernel_time(calls=20):
    """Median wall time of `calls` kernel calls, in seconds."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
