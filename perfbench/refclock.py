"""Wall time converted to reference seconds by a calibration loop sampled during the work.

On a shared virtual machine the speed of a vCPU drifts by up to 2x over
seconds, as other tenants come and go on the same physical core. A wall time
alone then measures the neighbours as much as the program. The clock here
runs a small fixed calibration loop every PERIOD_S seconds of wall time, from
a SIGALRM handler in the main thread, and records the CPU time that loop took.
Since the benchmark pins its process tree to one CPU (run.py), the samples
see the same core as the work, including work done by child processes while
the parent waits for them.

A stretch of work from t0 to t1 then counts

    (t1 - t0 - calibration wall time inside it) * mean(reference / sample)

reference seconds: the time it would have taken on a core that runs the
calibration loop in its reference time. The reference is about the loop's
time on a 2-vCPU Xeon VM in its usual (slower) state, so reference seconds
read close to wall seconds there. The loop does not call spdfp and never
changes, so a change to the program moves the reference time as it moves the
wall time. The raw wall time is recorded beside it.

The loop mixes two kinds of work, in the proportions a workload asks for,
because they speed up by different factors when a neighbour goes quiet:
small NumPy calls from a Python loop, like a stochastic step on a small
problem, and a gather-and-reduce product with a sigmoid over a matrix the
size of a mid-sized data set, like the CSR kernels on one.
"""

import array
import signal
import time

import numpy as np

PERIOD_S = 0.05
STEP_REF_S = 15e-6       # one iteration of the Python loop, in the reference state
PRODUCT_REF_S = 0.75e-3  # one product over the matrix, in the reference state

_rng = np.random.default_rng(20040909)
_A = _rng.standard_normal((64, 8))
_b = _rng.standard_normal(64)
# a half-dense 2000 x 100 matrix in CSR arrays, about 1.6 MB
_M = _rng.standard_normal((2000, 100)) * (_rng.random((2000, 100)) < 0.5)
_rows, _cols = np.nonzero(_M)
_vals = _M[_rows, _cols]
_indptr = np.searchsorted(_rows, np.arange(2000))
_x = _rng.standard_normal(100)


def calibration_loop(steps, products):
    """`steps` small solver-like steps from Python, then `products` matrix products."""
    x = np.zeros(8)
    acc = 0.0
    for i in range(steps):
        j = (i * 8) % 56
        rows = _A[j:j + 8]
        g = rows.T @ (rows @ x - _b[j:j + 8]) / 8.0
        z = x - 0.01 * g
        x = np.sign(z) * np.maximum(np.abs(z) - 1e-4, 0.0)
        acc += float(x[0])
    for _ in range(products):
        margins = np.add.reduceat(_vals * _x[_cols], _indptr)
        acc += float(np.sum(1.0 / (1.0 + np.exp(-margins))))
    return acc


class RefClock:
    """Samples the calibration loop while running; converts wall intervals.

    ``steps`` and ``products`` set the calibration loop's mix. A clock that
    was never started has no samples, and its reference seconds are wall
    seconds.
    """

    def __init__(self, steps, products):
        self.mix = (steps, products)
        self.reference_s = steps * STEP_REF_S + products * PRODUCT_REF_S
        self.at = array.array("d")      # wall instant each sample started
        self.cpu = array.array("d")     # CPU seconds of the loop
        self.wall = array.array("d")    # wall seconds of the loop
        self.running = False

    def _tick(self, *_):
        t = time.perf_counter()
        c = time.thread_time()
        calibration_loop(*self.mix)
        self.cpu.append(time.thread_time() - c)
        self.at.append(t)
        self.wall.append(time.perf_counter() - t)

    def start(self):
        calibration_loop(*self.mix)   # warm: the first call allocates
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def ref(self, t0, t1):
        """Reference seconds of the work between wall instants t0 and t1.

        Uses the samples started inside the interval; an interval too short
        to hold one uses the sample nearest to its middle.
        """
        # copies, since the handler appends to the arrays at any bytecode;
        # a sample appended between the copies is left out
        at = np.array(self.at, dtype=np.float64)
        cpu = np.array(self.cpu, dtype=np.float64)
        wall = np.array(self.wall, dtype=np.float64)
        n = min(len(at), len(cpu), len(wall))
        if n == 0:
            return t1 - t0
        at, cpu, wall = at[:n], cpu[:n], wall[:n]
        inside = (at >= t0) & (at + wall <= t1)
        if inside.any():
            speed = float(np.mean(self.reference_s / cpu[inside]))
            work = (t1 - t0) - float(np.sum(wall[inside]))
        else:
            speed = self.reference_s / float(cpu[np.argmin(np.abs(at - 0.5 * (t0 + t1)))])
            work = t1 - t0
        return work * speed

    def summary(self):
        cpu = np.array(self.cpu, dtype=np.float64)
        if len(cpu) == 0:
            return {}
        return {"samples": len(cpu), "mix": self.mix, "cal_cpu_median_s": float(np.median(cpu)),
                "cal_cpu_quartiles_s": [float(q) for q in np.percentile(cpu, [25, 75])]}
