"""A speed gauge for job times on a machine whose speed changes under us.

On a shared host the same job can take twice as long from one minute to
the next: a neighbour loads the physical core, and the guest counts the
lost time as CPU time of the job. A run is too short to average such an
episode away, so job times are rescaled by the machine's current speed.

The gauge is a fixed reference computation that shares no code with tauq:
a Fraction Bareiss elimination on small entries, a sparse dict polynomial
product, a table of a few thousand fresh objects, and products of
thousand-bit rationals. These are the kinds of CPython work that tauq's
routes do (interpreter-bound small rationals, tuple-keyed dicts and
allocation in the symbolic and residue routes, long-integer arithmetic in
large numeric determinants), and a shared host slows each kind by a
different factor. It is probed between jobs, outside
the timed region, and a job's CPU seconds are multiplied by
``REF_S / (median of the last three probes)``: the job's time on a machine
where the reference takes ``REF_S`` seconds. A change to tauq cannot move
the reference; the cyclic GC is off while it runs, so neither can the size
of tauq's heap.
"""
from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import process_time

# CPU seconds of one reference computation that the scaled times assume;
# about its median on a 2-vCPU Intel Xeon VM.
REF_S = 0.008
# Job CPU seconds between probes; a speed episode lasts seconds or more.
PROBE_EVERY_S = 0.1
RECENT = 3

_rng = random.Random("tauq-bench/speed")
_N = 7
_MATRIX = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 9))
            for _ in range(_N)] for _ in range(_N)]
_POLY = {(i, j): Fraction(_rng.randint(-9, 9), _rng.randint(1, 9))
         for i in range(-3, 4) for j in range(3)}
_TABLE = 2500
_BIG = [Fraction(_rng.getrandbits(900) | 1, _rng.getrandbits(800) | 1)
        for _ in range(6)]


def reference():
    """The fixed computation the gauge times."""
    m = [row[:] for row in _MATRIX]
    prev = Fraction(1)
    for k in range(_N - 1):
        for i in range(k + 1, _N):
            for j in range(k + 1, _N):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    prod = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _POLY.items():
            key = (a + c, b + d)
            prod[key] = prod.get(key, 0) + x * y
    table = {(i, i * 7 % 13, -i): [Fraction(i, 7), i * i, str(i)]
             for i in range(_TABLE)}
    total = sum(v[1] + k[1] for k, v in table.items())
    big = sum(x * y for x in _BIG for y in _BIG)
    return m[-1][-1], prod, total, big


def probe() -> float:
    """CPU seconds of one reference computation, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        reference()
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Probes the reference between jobs and scales job times by it."""

    def __init__(self):
        self.probes: list[float] = []
        self._since = PROBE_EVERY_S

    def scale(self) -> float:
        """Factor for the next job's CPU seconds; call outside the timed
        region, right before the job."""
        if self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._since = 0.0
        return REF_S / statistics.median(self.probes[-RECENT:])

    def ran(self, job_s: float) -> None:
        self._since += job_s
