"""A fixed pure-Python loop that gauges the host's speed during a run.

On a shared host the CPU speed a process gets drifts by up to 1.6x, for
seconds to minutes at a time, and every time the program takes moves
with it.  So each run times this loop beside the calls it measures, in
the program's own process (in the load process before each server
spawn), and scales its times to the speed at which the loop takes
``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / median loop time

The loop uses only the standard library (dicts, strings, tuples,
sorting), never the program, so a change to the program does not move
it.  Garbage collection is off while it runs, so the program's heap
does not either.
"""

import gc
import statistics
import time

#: About the loop's median time on the 2-core Xeon host of the reference
#: figures (Python 3.11.7), so scaled times read as times on that host.
NOMINAL_S = 0.0030
#: At most this long passes between two loop timings in a phase.
EVERY_S = 0.1
#: Loop timings in each gap between two set-ups, which last up to a second.
GAP_TIMINGS = 3


def _loop():
    table = {}
    for number in range(2000):
        key = f"k{number % 701}:{number}"
        table[key] = [key.upper(), number * 3, (number, key)]
    ordered = sorted(table.items(), key=lambda item: item[1][1] % 97)
    return len("".join(key for key, _ in ordered[:500]))


def time_loop():
    """Seconds of one run of the loop, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """Factor that turns times measured beside ``samples`` into times at
    the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
