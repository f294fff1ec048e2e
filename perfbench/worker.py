"""The program's own process for the single-caller workloads.

``workloads.Worker`` starts it as ``python3 perfbench/worker.py`` and
drives it over a pipe: each request on stdin is a pickled
``(method, args)``, and each reply on stdout is a pickled
``("ok", value)`` or ``("error", traceback)``.  It exits when stdin
closes.

Only this process runs the program.  The harness keeps the generated
documents, the expected answers and the naive reference answers in its
own process, so this one's peak RSS is the program's: set-up, the
phase and nothing else.  Every call into the program is timed here,
next to the call.
"""

import gc
import os
import pickle
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402
from repro.core.interface import NaLIX  # noqa: E402
from repro.database import Database  # noqa: E402

DOCUMENT = "dblp.xml"


class Program:
    """One live ``NaLIX`` and the operations the harness times on it."""

    def __init__(self):
        self.nalix = None
        self.layers = None

    def setup(self, text, planner=True):
        """Seconds from the XML text in hand to an interface ready for
        its first question; the new interface replaces the live one.

        The one before is dropped and collected, untimed, so that no
        set-up pays for collecting another and the peak holds one copy.
        """
        self.nalix = None
        gc.collect()
        start = time.perf_counter()
        database = Database()
        database.load_text(text, name=DOCUMENT)
        self.nalix = NaLIX(database, use_planner=planner)
        return time.perf_counter() - start

    def ask(self, sentence):
        """``(seconds, status, values, rejected with a suggestion)``."""
        start = time.perf_counter()
        result = self.nalix.ask(sentence)
        took = time.perf_counter() - start
        values = result.values() if result.status == "ok" else []
        suggested = any(message.suggestion for message in result.errors)
        return took, result.status, values, suggested

    def reload(self, text):
        """Seconds to load a new revision under the same name.

        The replaced document is collected afterwards, untimed: at paper
        scale that collection is a pause of 100 ms or more, which would
        otherwise land on a random later question or reload.
        """
        start = time.perf_counter()
        self.nalix.database.load_text(text, name=DOCUMENT)
        took = time.perf_counter() - start
        gc.collect()
        return took

    def reference(self):
        """Seconds of one run of the host-speed loop (``reference``)."""
        return reference.time_loop()

    def collect(self):
        gc.collect()
        return self.full_collections()

    def full_collections(self):
        return gc.get_stats()[2]["collections"]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace(self):
        from layertrace import LayerTrace
        self.layers = LayerTrace()
        self.layers.install()

    def untrace(self, span_file):
        """Unwrap, write the spans; ``(metrics, table)`` of the summary."""
        self.layers.uninstall()
        self.layers.dump(span_file)
        summary = self.layers.summary()
        return summary.metrics(), summary.table()


def main():
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)       # stray prints go to stderr, not into the pipe
    program = Program()
    while True:
        try:
            method, args = pickle.load(requests)
        except EOFError:
            return 0
        try:
            reply = ("ok", getattr(program, method)(*args))
        except Exception:
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


if __name__ == "__main__":
    sys.exit(main())
