"""Host-speed calibration: fixed kernels timed during each job.

The benchmark's host is a VM on a shared machine.  Its vCPUs switch between a
fast and a slow state (about 1.6x apart for interpreted code) every few tens
of milliseconds, and the share of slow time drifts over minutes, so the same
job's wall time moves by up to 2x between runs.  A job's time is therefore
scaled to a reference speed.  While the job runs, a SIGALRM handler times
one short chunk of each kernel below every INTERVAL_S seconds of wall time:

    slowdown = (1 - m) * mean Python chunk / REFERENCE_PYTHON_S
               + m * mean memory chunk / REFERENCE_MEMORY_S
    time at reference speed = (wall time - handler time) / slowdown

The chunks sample the very seconds the job ran in; kernels timed between
jobs sample other seconds, and followed the host's bursts too loosely.
Means, not medians, are used: a job's time grows linearly with the share of
slow time, and so does the mean of the chunk times.

The Python kernel does the kind of work the program's interpreted hot paths
do (small-int arithmetic, tuple and dict traffic, function calls).  The
memory kernel copies a 256 KiB block out of a 16 MiB buffer, larger than the
L2 cache, as the dense state-vector applies of `verify` stream their
arrays.  Such streaming slows less than interpreted code when the host is
slow, so a workload dominated by it (workloads.MEMORY_BOUND) weighs the
memory kernel m = MEMORY_SHARE; every other workload and the set-up probe
use the Python kernel alone, m = 0.  For `verify`, m = 0.75 tracked its
20-qubit jobs (the p90) best; its mid-size jobs, best at m = 0.5, lose a
little.  Both kernels work on objects made before the job, so sampling
allocates nothing large while it runs and leaves the program's heap, and
its peak RSS, as they would be.  Neither kernel touches topophase, so a change to the program moves the
job's time and not the kernels'.  Handlers run only between bytecodes of the
main thread, so a long call into C delays the next sample; that costs
samples, not correctness.

This module imports only `signal` and `time`, so the set-up probe can use it
in a fresh interpreter without importing anything topophase would import.
"""

import signal
from time import perf_counter

INTERVAL_S = 0.002
PYTHON_ROUNDS = 250
MEMORY_BLOCK = 1 << 18
MEMORY_BUFFER = 1 << 24
# Seconds one chunk of each kernel takes at the reference speed: about its
# time in the fast state on a 2.0 GHz Xeon vCPU with CPython 3.11, for the
# memory kernel inside a `verify` job, whose arrays keep the buffer out of
# cache.  Their ratio and MEMORY_SHARE fix how the kernels are weighed;
# beyond that they set only the scale of the reported times.
REFERENCE_PYTHON_S = 0.00012
REFERENCE_MEMORY_S = 0.000099
MEMORY_SHARE = 0.75
# Chunks timed after a job that was too short to be sampled this often.
MIN_CHUNKS = 3


class PythonKernel:
    """The Python kernel with the dict and list it updates, made before the
    job, so that a chunk allocates only small objects and never the large
    blocks the program's own arrays come from."""

    def __init__(self):
        self.table = dict.fromkeys([(a, b) for a in range(64) for b in range(8)], 0)
        self.row = [0] * 16

    def chunk(self):
        """Seconds one Python-kernel chunk takes now."""
        table, row = self.table, self.row
        acc = 0
        start = perf_counter()
        for i in range(PYTHON_ROUNDS):
            x = (i * 2654435761) & 0xFFFF
            key = (x & 63, i & 7)
            table[key] = (table[key] + x) % 7919
            row[i & 15] = row[(i + 3) & 15] ^ x
            acc += _step(x, row[i & 15])
        return perf_counter() - start


def _step(a, b):
    return (a * b + 12345) % 65521


class MemoryKernel:
    """The memory kernel: its buffer, written once so that its pages are
    resident (16 MiB more peak RSS for the process that makes one), the
    block it copies into and the position of the next block.  A chunk
    allocates nothing, so sampling leaves the program's heap alone."""

    def __init__(self):
        self.buffer = memoryview(bytearray(b"\x01") * MEMORY_BUFFER)
        self.block = bytearray(MEMORY_BLOCK)
        self.offset = 0

    def chunk(self):
        """Seconds one memory-kernel chunk takes now."""
        source = self.buffer[self.offset:self.offset + MEMORY_BLOCK]
        start = perf_counter()
        self.block[:] = source
        elapsed = perf_counter() - start
        self.offset = (self.offset + MEMORY_BLOCK) % MEMORY_BUFFER
        return elapsed


class Sampler:
    """Context manager that times kernel chunks every INTERVAL_S seconds of
    the code it wraps.  Afterwards `scaled(wall)` turns the wall time of that
    code into its time at reference speed.  With a MemoryKernel, both kernels
    are timed and weighed MEMORY_SHARE to the memory kernel."""

    def __init__(self, memory=None):
        self.python = PythonKernel()
        self.memory = memory
        self.chunks = 0
        self.python_s = 0.0
        self.memory_s = 0.0
        self.handler_s = 0.0
        self._previous = None

    def _take(self):
        self.chunks += 1
        self.python_s += self.python.chunk()
        if self.memory is not None:
            self.memory_s += self.memory.chunk()

    def _sample(self, signum, frame):
        start = perf_counter()
        self._take()
        self.handler_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, wall):
        """Time at reference speed of code that took `wall` seconds inside
        this sampler, handler time excluded."""
        while self.chunks < MIN_CHUNKS:
            self._take()
        slowdown = self.python_s / self.chunks / REFERENCE_PYTHON_S
        if self.memory is not None:
            slowdown = ((1 - MEMORY_SHARE) * slowdown
                        + MEMORY_SHARE * self.memory_s / self.chunks / REFERENCE_MEMORY_S)
        return (wall - self.handler_s) / slowdown
