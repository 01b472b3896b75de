"""Machine-speed reference for the end-to-end metrics.

The speed of a small shared machine drifts as other tenants come and go.
On a shared 2-vCPU Xeon VM the same op ran 30% slower for minutes at a time, in
CPU time as well as wall time. A fixed piece of interpreter-bound work
that is not scarfcs code, timed right before each op, measures the
machine's speed at that moment. The end-to-end metrics divide op times
by it, which cancels the drift but not a change in scarfcs. The raw
times stay in the record.

carpet_hd is not rescaled (see workloads.BENCHMARKED): its ops are bound
by page faults and memory bandwidth, and neither this loop nor
memory-bound references (fresh 32 MB arrays, a 2000x2000 complex
update) tracked its speed better than the raw clock did.
"""

import statistics
import time

PYTHON_LOOP = 200_000
SMOOTH_HALF_WIDTH = 2


def python_ref():
    """Seconds for a fixed integer loop, about 16 ms on a 2-vCPU Xeon VM."""
    start = time.perf_counter()
    total = 0
    for i in range(PYTHON_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def smoothed(refs):
    """Rolling median of reference times, 2 * SMOOTH_HALF_WIDTH + 1 wide,
    so one disturbed reference sample does not skew its op."""
    h = SMOOTH_HALF_WIDTH
    return [statistics.median(refs[max(0, i - h):i + h + 1])
            for i in range(len(refs))]
