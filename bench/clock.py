"""Reference-scaled timing for a shared machine.

On a shared 2-vCPU VM the same code runs up to twice as slow from one second
to the next, so raw wall and CPU seconds of one run say as much about the
neighbours as about the program.  ``Clock`` samples the machine's speed with
a frozen kernel while the work runs and rescales the work's seconds to the
machine's fast state.
"""

import resource
import signal
import statistics
import time

REFERENCE_INTERVAL_S = 0.25
# CPU seconds of one reference kernel on a 2-vCPU 2.1 GHz Xeon VM in its fast state
REFERENCE_NOMINAL_S = 0.004


def usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in usage())


class _Coeff:
    __slots__ = ("v", "u", "N")

    def __init__(self, v, u, N):
        self.v, self.u, self.N = v, u, N


def reference_kernel():
    """A frozen pure-Python copy of the shape of lubinlab's hot loop: the
    product of two dense truncated series held as dicts from exponent tuples
    to (valuation, unit, precision) objects, each output coefficient summed
    from its term triples and reduced modulo p^K.  It never changes, so its
    speed measures the machine, not the program."""
    p, M, N = 3, 64, 54
    mod = p**N
    a = {(i,): _Coeff(0, 7 ** (i + 20) % mod, N) for i in range(1, M)}
    b = {(i,): _Coeff(i % 2, 5 ** (i + 30) % mod, N) for i in range(1, M)}
    acc = {}
    for ea, ca in a.items():
        da, va, ua, na = sum(ea), ca.v, ca.u, ca.N
        for eb, cb in b.items():
            if da + sum(eb) >= M:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            rel = min(na - va, cb.N - cb.v)
            acc.setdefault(e, []).append((va + cb.v, ua * cb.u, va + cb.v + rel))
    out = {}
    for e, terms in acc.items():
        K = min(n for _, _, n in terms)
        m = min(v for v, _, _ in terms)
        r = 0
        for v, u, _ in terms:
            r += u * p ** (v - m)
        out[e] = _Coeff(m, r % p ** (K - m), K)
    return out


class Clock:
    """Times program work in reference-scaled seconds; use as ``with Clock()``.

    While the clock is on, a SIGALRM timer runs the reference kernel every
    REFERENCE_INTERVAL_S in the main thread and records the thread CPU
    seconds it took; thread CPU time leaves out any wait for the GIL while
    batch workers run.  ``measure`` removes the samples' own time from the
    work's wall and CPU seconds and scales both by REFERENCE_NOMINAL_S over
    the mean sample taken during the work."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False
        self._saved = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time()
        reference_kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def measure(self, fn):
        """Run fn(); return (result, scaled wall, scaled CPU, wall, CPU)."""
        n0, spent0 = len(self.samples), self.spent
        t0, c0 = time.perf_counter(), cpu_s()
        result = fn()
        own = self.spent - spent0
        wall = time.perf_counter() - t0 - own
        cpu = cpu_s() - c0 - own
        if len(self.samples) == n0:
            self._sample()
        scale = REFERENCE_NOMINAL_S / statistics.mean(self.samples[n0:])
        return result, wall * scale, cpu * scale, wall, cpu
