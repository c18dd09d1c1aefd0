"""Machine-speed probe, for timing on a host shared with other tenants.

On such a host the same code can run 1.7 times slower for seconds at a
time, as the other tenants' load comes and goes.  While a measurement runs,
the probe times a fixed kernel from a timer signal every INTERVAL_S
seconds.  A timed region is then reported in reference seconds: its wall
time, less the probe's own time inside it, scaled by the mean of
REFERENCE_S / (kernel time) over the samples in the region, or over the
MIN_SAMPLES samples nearest to it when the region is shorter.  That is the
time the region would take on a machine where the kernel takes REFERENCE_S.

Neither kernel uses the library, so nothing a change to fbcsf does can move
them.  array_kernel does what the library's hot loops do, small numpy
operations driven from Python, and tracks their slowdowns best.
interpreter_kernel needs no numpy, for regions that import it.  Both take
about REFERENCE_S on an idle core of the machine this was written on.
"""

import signal
import statistics
import time

INTERVAL_S = 0.025
REFERENCE_S = 2.3e-4
MIN_SAMPLES = 8


def _step(x, y):
    return x * 0.999 + y


def interpreter_kernel():
    s = 0.0
    for i in range(2500):
        s = _step(s, (i & 7) * 0.5)
    return s


def array_kernel():
    import numpy as np
    x = np.linspace(0.0, 1.0, 200)
    pts = np.column_stack([x, x * x])
    s = 0.0
    for _ in range(40):
        e = np.diff(pts, axis=0)
        s += float(np.hypot(e[:, 0], e[:, 1]).sum())
    return s


class SpeedProbe:
    """Samples the kernel time from SIGALRM while the context is open."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []       # (start, duration) of each kernel run
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end):
        """Reference seconds of the region [start, end] of perf_counter."""
        samples = list(self.samples)
        inside = [k for t, k in samples if start <= t < end]
        if len(inside) >= MIN_SAMPLES:
            near = inside
        else:
            mid = 0.5 * (start + end)
            near = [k for _, k in sorted(
                samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        speed = statistics.fmean(REFERENCE_S / k for k in near)
        return (end - start - sum(inside)) * speed

    def speed(self):
        """Mean speed over the whole probe, relative to the reference."""
        return statistics.fmean(REFERENCE_S / k for _, k in self.samples)
