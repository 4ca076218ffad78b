"""Machine-speed normalisation of measured times.

On a shared host the same Python work runs up to 45% slower for seconds
or minutes at a time, and in a ~10 ms duty cycle within that, when other
tenants load the same cores.  CPU time slows with wall time, so neither
clock is steady.  The benchmark therefore runs a fixed reference loop
(`ref_work`, plain integers, tuples, a dict and Fractions from the
standard library, nothing from ramforge) between timed blocks, and
reports each time in reference units:

    reported = wall time * REF_NS / (reference loop time around it)

REF_NS is the loop's least time on an unloaded Intel Xeon vCPU under
CPython 3.11.7, so on such a machine at rest reported times read as wall
times.  A change to ramforge moves the numerator only; a slow-down of
the host moves both.  The raw wall times are printed on the `#` lines.

A fresh interpreter's start-up (exec, page faults, imports) slows under
load unlike pure Python, so cli-cold takes as its reference a bare
`python -c pass` after every command, scaled to BARE_NS.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REF_NS = 500_000
REF_N = 1000
# A bare `python -c pass` took 64 times as long as ref_work, on average
# over 100 s on the machine above; BARE_NS keeps cli-cold on the same scale.
BARE_NS = 64 * REF_NS
WINDOW_NS = 500_000_000
MARK_EVERY_NS = 10_000_000


def ref_work(n=REF_N):
    x, acc, s = 1, {}, Fraction(0)
    for i in range(1, n + 1):
        x = (x * 48271) % 2147483647
        k = (x & 63, i % 5)
        acc[k] = acc.get(k, 0) + x % 97
        if i % 16 == 0:
            s += Fraction(x % 13 + 1, i)
    return len(acc), s


class Gauge:
    """Reference samples taken between timed blocks, and the scale factor
    nominal_ns / (their trimmed mean within WINDOW_NS of an instant).  The
    sample is ref_work by default; cli-cold samples a bare interpreter
    start instead (BARE_NS)."""

    def __init__(self, sample=ref_work, nominal_ns=REF_NS):
        self.sample = sample
        self.nominal_ns = nominal_ns
        self.at = []
        self.ns = []

    def mark(self, reps=1):
        for _ in range(reps):
            t = time.perf_counter_ns()
            self.sample()
            e = time.perf_counter_ns()
            self.at.append((t + e) // 2)
            self.ns.append(e - t)

    def maybe_mark(self, now_ns):
        """Mark if MARK_EVERY_NS have passed since the last sample."""
        if not self.at or now_ns - self.at[-1] >= MARK_EVERY_NS:
            self.mark()

    def factor(self, t_ns):
        lo = bisect.bisect_left(self.at, t_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.at, t_ns + WINDOW_NS)
        if hi - lo < 8:
            c = bisect.bisect_left(self.at, t_ns)
            lo, hi = max(0, c - 4), min(len(self.at), c + 4)
        return self.nominal_ns / trimmed_mean(self.ns[lo:hi])

    def scale(self, start_ns, end_ns):
        """(end - start) in reference ns."""
        return (end_ns - start_ns) * self.factor((start_ns + end_ns) // 2)


def trimmed_mean(xs, drop=0.1):
    """Mean without the slowest `drop` share: those are preemptions of the
    reference loop itself, not the host's speed."""
    xs = sorted(xs)
    keep = xs[: max(1, len(xs) - int(drop * len(xs)))]
    return sum(keep) / len(keep)


def scaled_block(fn, reps=8):
    """Run fn() bracketed by reps reference samples on each side; returns
    (its result, its wall ns, its wall ns in reference ns)."""
    g = Gauge()
    g.mark(reps)
    t = time.perf_counter_ns()
    out = fn()
    e = time.perf_counter_ns()
    g.mark(reps)
    return out, e - t, (e - t) * REF_NS / trimmed_mean(g.ns)
