"""Operation times in *paced seconds*: CPU time scaled by the host's
current speed, read from a fixed pure-Python loop.

On a shared virtual host the same code takes very different times from
one minute to the next, for two reasons. The hypervisor takes the vCPU
away for part of the time (steal time; 16-18% of each vCPU in one
10-second reading of /proc/stat on a shared 2-vCPU virtual machine).
Wall time counts those pauses; the process's CPU time does not. And
the vCPU itself runs at one of two speeds about 45% apart, switching
every few seconds to minutes; that moves CPU time too, but moves this
loop, timed alongside the operation, by the same share.

So a sample is its CPU time (this process's, plus that of any child
process it waited for) scaled by REF_NOMINAL_S over the loop's CPU time
while it ran: the time it would take, unpaused, on a host where the
loop takes REF_NOMINAL_S. While an operation runs, a timer signal reads
a short copy of the loop every PERIOD_S; the readings' own time is taken
off the operation's. Wall times are kept beside the paced ones.
"""

import resource
import signal
import statistics
import time

REF_LOOPS = 100_000
REF_NOMINAL_S = 0.005
TICK_LOOPS = REF_LOOPS // 10
PERIOD_S = 0.05


def reference(loops: int = REF_LOOPS) -> float:
    """CPU seconds of the reference loop, now."""
    start = time.thread_time()
    total = 0
    for i in range(loops):
        total += i
    return time.thread_time() - start


def cpu() -> float:
    """CPU seconds of this process and of the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Paced:
    """Times one operation in wall and paced seconds:

        with Paced() as p:
            work()
        p.wall, p.paced
    """

    def __enter__(self):
        self._reads = [reference()]
        self._spent_cpu = self._spent_wall = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start_wall, self._start_cpu = time.perf_counter(), cpu()
        return self

    def _tick(self, signum, frame):
        wall, thread = time.perf_counter(), time.thread_time()
        self._reads.append(reference(TICK_LOOPS) * (REF_LOOPS / TICK_LOOPS))
        self._spent_cpu += time.thread_time() - thread
        self._spent_wall += time.perf_counter() - wall

    def __exit__(self, *exc):
        used, elapsed = cpu() - self._start_cpu, time.perf_counter() - self._start_wall
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._reads.append(reference())
        self.wall = elapsed - self._spent_wall
        self.paced = (used - self._spent_cpu) * REF_NOMINAL_S / statistics.median(self._reads)
        return False
