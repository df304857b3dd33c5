"""Host-speed probe: a fixed chunk of interpreter work, timed every few
milliseconds in the thread that runs the code under test.

The benchmark's host is shared: the same pure-Python loop runs at
0.6-1.2x its usual speed from one second to the next and drifts by up to
1.6x over minutes, and a guest cannot see why.  Passes timed minutes
apart are therefore not comparable as they stand.  The probe samples the
speed the pass itself gets: SIGALRM interrupts the pass every INTERVAL
seconds and times ``chunk``, the same work every time, on the same vCPU and
in the same moments as the pass.  ``scale`` turns a pass time into
seconds at the host's nominal speed, the speed at which one chunk takes
NOMINAL_S.

Each tick yields the speed NOMINAL_S / (chunk time), and a pass's speed
is the mean of its ticks' speeds.  Ticks are evenly spaced in wall time,
so that mean weighs every stretch of the pass equally, and a chunk the
host stalled counts as speed near 0 rather than as a long time that
would swamp a mean of times.

Run as a script, it is ``kgw`` under the probe: the command's stdout
bytes are unchanged and the probe figures go to stderr as the last line, after
MARK.

    PYTHONPATH=src python3 perfbench/pace.py axioms --max-size 3
"""

import contextlib
import io
import json
import signal
import sys
import time

MARK = "perfbench-pace "
INTERVAL = 0.025
# One chunk's time on the quiet 2-vCPU Xeon VM (2.0 GHz, Python 3.11.7)
# where the benchmark was written.  Any fixed value would do: it only
# puts the normalised times in seconds.
NOMINAL_S = 0.0008


def chunk():
    """Dict-of-tuples work, like the censuses' composition tables."""
    table = {}
    for i in range(1500):
        table[i, i & 7] = (i, i + 1)
    total = 0
    for key, value in table.items():
        total += value[1] - key[1]
    return total


class Probe:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = 0.0
        self.count = 0
        self.speed = 0.0

    def _tick(self, signum, frame):
        start = self.clock()
        chunk()
        elapsed = self.clock() - start
        self.seconds += elapsed
        self.count += 1
        self.speed += NOMINAL_S / elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """Stop sampling; returns the figures ``merge`` and ``scale`` take."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {"probe_s": self.seconds, "probes": self.count, "speed": self.speed}


def merge(parts):
    """Figures of several processes; one that wrote none adds nothing."""
    return {key: sum(p.get(key, 0) for p in parts) for key in ("probe_s", "probes", "speed")}


def scale(seconds, figures):
    """``seconds`` of work at the speed the probe saw, in seconds at
    nominal speed.  The probe's own time must already be taken out."""
    return seconds * figures["speed"] / figures["probes"]


def main(argv):
    from f1kgw import cli

    # The command's output is held until the probe stops: a SIGALRM that
    # lands while a large write is blocked on a full pipe can cut the
    # output short (CPython 3.11, seen on `export --what conflations`).
    out = io.StringIO()
    probe = Probe()
    probe.start()
    code = 1
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        figures = probe.stop()
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(figures) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
