"""The single-caller workloads: xmp-paper, nl-mixed and xmp-reload.

Each builds its inputs with the DBLP generator: fixed collections, plus
revisions and question variants drawn from the seed.  The program runs
in a process of its own (``worker.py``) and gets only XML text and
sentences; this process keeps the inputs and checks every answer
against a walk over the generator's own document (see ``walks``) or a
property.  One caller asks in a closed loop: the next question goes out
when the last answer is in.

Only calls into the program are timed, in the worker; generating
revisions and checking answers happen between timed calls.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import pathlib
import pickle
import random
import statistics
import subprocess
import sys
import time

import reference
import walks
from repro.data.dblp import DblpConfig, generate_dblp
from repro.evaluation.tasks import TASKS, reference_sentences
from repro.xmlstore.serializer import serialize

HERE = pathlib.Path(__file__).resolve().parent
DOCUMENT = "dblp.xml"
STOP_TIMEOUT_S = 30.0
REJECT = "reject"


def digest(values):
    """Order-insensitive fingerprint of an answer's values."""
    joined = "\x1f".join(sorted(values))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def document_text(config):
    document = generate_dblp(config, name=DOCUMENT)
    return document, serialize(document.root)


def revision_seeds(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)


class Worker:
    """The program's own process (``worker.py``), driven over a pipe.

    ``call(method, *args)`` runs one ``worker.Program`` method there and
    returns its result.  Leaving the ``with`` block closes the pipe and
    waits for the process to end.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def call(self, method, *args):
        pickle.dump((method, args), self.process.stdin,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self.process.stdin.flush()
        try:
            status, value = pickle.load(self.process.stdout)
        except EOFError:
            raise RuntimeError(f"worker exited during {method}") from None
        if status != "ok":
            raise RuntimeError(f"worker {method} failed:\n{value}")
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class KnownFault:
    """A check the program fails every time because of a known fault.

    A wrong answer counts the question as failed but leaves ``correct``
    true; a right one passes, so a fix shows as fewer failed questions.
    """

    __slots__ = ("expected",)

    def __init__(self, expected):
        self.expected = expected


class Tally:
    """Questions attempted, failed, and whether any answer was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []

    def record(self, sentence, problem, wrong=True):
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.reasons) < 10:
            self.reasons.append(f"{problem}: {sentence}")


def judge(sentence, reply, check, tally):
    """Check one answer; a problem counts the question as failed.

    ``reply`` is ``(status, values, suggested)`` as the worker returns it.
    """
    status, values, suggested = reply
    tally.attempted += 1
    if check == REJECT:
        if status != "rejected":
            tally.record(sentence, f"invalid phrasing came back {status}")
        elif not suggested:
            tally.record(sentence, "rejected without a suggestion")
        return
    if isinstance(check, KnownFault):
        problem = (f"status {status}" if status != "ok"
                   else check.expected.mismatch(values))
        if problem:
            tally.record(sentence, f"known fault, {problem}", wrong=False)
        return
    if status != "ok":
        tally.record(sentence, f"status {status}", wrong=status == "rejected")
        return
    if isinstance(check, walks.Expected):
        problem = check.mismatch(values)
    else:
        problem = (None if digest(values) == check
                   else "planned and naive answers differ")
    if problem:
        tally.record(sentence, problem)


def tail_samples(percentile):
    """Fewest samples that leave ten beyond ``percentile``."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def tail(latencies, percentile):
    """The ``percentile`` of ``latencies`` by nearest rank.

    Each workload fixes its percentile, so a run with fewer samples than
    it needs is an error rather than a quietly lower percentile.
    """
    ordered = sorted(latencies)
    if len(ordered) < tail_samples(percentile):
        raise RuntimeError(f"p{percentile} needs {tail_samples(percentile)} "
                           f"samples, the run has {len(ordered)}")
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1]


# -- the three workloads --------------------------------------------------------


class Version:
    """One revision of a collection: the generator's document and its text.

    Workloads attach the checks that hold on it (``questions``, ``pool``).
    """

    def __init__(self, config):
        self.document, self.text = document_text(config)
        self.nodes = self.document.node_count()


class XmpPaper:
    """The 9 reference phrasings over the paper-scale collection.

    Each round after the first starts by reloading the live database,
    alternating between the collection and one seeded revision; the
    reload is timed for ``reload_ms`` but kept out of the question time.
    """

    name = "xmp-paper"
    reloads_timed = False   # do reloads count in throughput_qps?
    setups = 7              # set-ups per run; setup_s is their median
    # The tail percentile.  p90 and p99 are not used: with nine tasks
    # each taking a ninth of the questions, p90 falls on the edge of the
    # slowest task's band; p75 sits inside the 7th band.
    percentile = 75

    def __init__(self, seed):
        self.seed = seed
        paper = DblpConfig.paper_scale()
        self.versions = [
            Version(paper),
            Version(DblpConfig(books=paper.books, articles=paper.articles,
                               seed=next(revision_seeds(self.name, seed)))),
        ]
        for version in self.versions:
            version.questions = [
                ("ask", sentence, walks.REFERENCE_WALKS[task](version.document))
                for task, sentence in reference_sentences()]
            version.document = None     # only the checks are kept
        self.text = self.versions[0].text
        self.nodes = self.versions[0].nodes

    def prepare(self):
        """Work on the inputs that needs the program; none here."""

    def round_ops(self, version):
        return version.questions

    def rounds(self):
        for number in itertools.count():
            version = self.versions[number % 2]
            reload = [("reload", version.text, None)] if number else []
            yield reload + self.round_ops(version)


class NlMixed(XmpPaper):
    """The whole phrasing pool, seeded variants and the known-fault
    sentences, on a tiny collection and one fixed revision of it."""

    name = "nl-mixed"
    variants_per_round = 200
    setups = 100
    # p95 sits inside the slow accepted phrasings; p99 falls between
    # single slow pool phrasings and jumps from run to run.
    percentile = 95
    # The revision is fixed, not drawn from the seed, so the known-fault
    # sentences fail on the same inputs in every run.
    revision_seed = 8

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.versions = [Version(DblpConfig(books=12)),
                         Version(DblpConfig(books=12, seed=self.revision_seed))]
        for version in self.versions:
            version.facts = walks.Facts(version.document)
            version.pool = [(phrasing.text, self.pool_check(
                task, phrasing, version.document))
                for task in TASKS for phrasing in task.phrasings]
            version.pool.extend(
                (sentence, KnownFault(walk(version.document)))
                for sentence, walk in walks.KNOWN_WRONG.items())
        self.text = self.versions[0].text
        self.nodes = self.versions[0].nodes

    @staticmethod
    def pool_check(task, phrasing, document):
        if not phrasing.valid:
            return REJECT
        if phrasing.specified and phrasing.parsed:
            return walks.REFERENCE_WALKS[task.task_id](document)
        if phrasing.text in walks.EXTRA_WALKS:
            return walks.EXTRA_WALKS[phrasing.text](document)
        return None             # planned-versus-naive, filled by prepare()

    def prepare(self):
        """Answer the naive-checked phrasings with the planner off.

        Runs in a worker of its own, before the measured one starts, so
        the measured program never runs naive evaluation.
        """
        with Worker() as naive:
            for version in self.versions:
                naive.call("setup", version.text, False)
                for index, (sentence, check) in enumerate(version.pool):
                    if check is None:
                        _, status, values, _ = naive.call("ask", sentence)
                        version.pool[index] = (
                            sentence, digest(values) if status == "ok"
                            else "naive evaluation failed")

    def round_ops(self, version):
        ops = [("ask", sentence, check) for sentence, check in version.pool]
        for _ in range(self.variants_per_round):
            sentence, walk = walks.draw_variant(self.rng, version.facts)
            ops.append(("ask", sentence, walk(version.document)))
        self.rng.shuffle(ops)
        return ops


class XmpReload:
    """Each round loads a new revision, then asks the 9 phrasings on it."""

    name = "xmp-reload"
    reloads_timed = True
    setups = 20
    percentile = 95

    def __init__(self, seed):
        self.seed = seed
        base = Version(DblpConfig(books=120))
        self.text, self.nodes = base.text, base.nodes

    def prepare(self):
        """Work on the inputs that needs the program; none here."""

    def rounds(self):
        for revision_seed in revision_seeds(self.name, self.seed):
            version = Version(DblpConfig(books=120, seed=revision_seed))
            ops = [("reload", version.text, None)]
            ops.extend(("ask", sentence,
                        walks.REFERENCE_WALKS[task](version.document))
                       for task, sentence in reference_sentences())
            yield ops


WORKLOADS = {cls.name: cls for cls in (XmpPaper, NlMixed, XmpReload)}


# -- measuring --------------------------------------------------------------------


def timed_setups(worker, text, count):
    """``(median set-up seconds, scale)`` of ``count`` set-ups, with the
    host-speed loop timed ``reference.GAP_TIMINGS`` times before each
    one and after the last."""
    seconds, samples = [], []
    for number in range(count + 1):
        samples.extend(worker.call("reference")
                       for _ in range(reference.GAP_TIMINGS))
        if number < count:
            seconds.append(worker.call("setup", text))
    return statistics.median(seconds), reference.scale(samples)


class Phase:
    """One closed-loop timed phase: whole rounds until time is up.

    The phase also runs until it has ``MIN_ROUNDS`` rounds and enough
    questions for the workload's tail percentile.  ``throughput_qps``
    and ``latency_p50_ms`` are medians over rounds of each round's
    figure.  Every round holds the same mix, so a stretch in which the
    host runs slower moves a few rounds, not the run.

    The host-speed loop is timed at the start of every round and at
    least every ``reference.EVERY_S`` within it; each round's times are
    scaled by the speed its own loop timings show.  ``scaled=False``
    gives the figures as measured.
    """

    MIN_ROUNDS = 5

    def __init__(self):
        self.rounds = []    # (questions, timed seconds, latencies, scale)
        self.reloads = []   # (seconds, scale)
        self.texts = {}
        self.full_collections = 0

    def run(self, workload, worker, seconds, tally):
        rounds = workload.rounds()
        needed = tail_samples(workload.percentile)
        asked = 0
        # Collected once, untimed, so that no question pays for set-up's
        # garbage; the worker collects again after every reload.
        collections = worker.call("collect")
        started = time.perf_counter()
        while (len(self.rounds) < self.MIN_ROUNDS or asked < needed
               or time.perf_counter() - started < seconds):
            busy, latencies, reloads = 0.0, [], []
            samples, last_sample = [], -reference.EVERY_S
            for kind, payload, check in next(rounds):
                if time.perf_counter() - last_sample >= reference.EVERY_S:
                    samples.append(worker.call("reference"))
                    last_sample = time.perf_counter()
                if kind == "reload":
                    took = worker.call("reload", payload)
                    reloads.append(took)
                    if workload.reloads_timed:
                        busy += took
                    continue
                took, *reply = worker.call("ask", payload)
                busy += took
                latencies.append(took)
                self.texts[payload] = self.texts.get(payload, 0) + 1
                judge(payload, reply, check, tally)
            scale = reference.scale(samples)
            self.rounds.append((len(latencies), busy, latencies, scale))
            self.reloads.extend((took, scale) for took in reloads)
            asked += len(latencies)
        self.full_collections = (worker.call("full_collections")
                                 - collections)
        return self

    @staticmethod
    def _factor(scale, scaled):
        return scale if scaled else 1.0

    def latencies(self, scaled=True):
        return [took * self._factor(scale, scaled)
                for _, _, latencies, scale in self.rounds
                for took in latencies]

    def qps(self, scaled=True):
        return statistics.median(count / (busy * self._factor(scale, scaled))
                                 for count, busy, _, scale in self.rounds)

    def p50(self, scaled=True):
        return statistics.median(
            statistics.median(latencies) * self._factor(scale, scaled)
            for _, _, latencies, scale in self.rounds)

    def reload(self, scaled=True):
        return statistics.median(took * self._factor(scale, scaled)
                                 for took, scale in self.reloads)

    def tail(self, percentile, scaled=True):
        return tail(self.latencies(scaled), percentile)

    @property
    def scale(self):
        return statistics.median(scale for _, _, _, scale in self.rounds)

    def repeated_share(self):
        return 1 - len(self.texts) / len(self.latencies())


def describe(workload, phase, out=sys.stderr):
    print(f"perfbench: {workload.name} seed={workload.seed} "
          f"nodes={workload.nodes} xml_bytes={len(workload.text)} "
          f"rounds={len(phase.rounds)} questions={len(phase.latencies())} "
          f"repeated_texts={phase.repeated_share():.1%} "
          f"full_gc={phase.full_collections} "
          f"median_host_scale={phase.scale:.3f}", file=out)


def run(name, seed, seconds, trace, out_dir):
    """One run; returns ``(tally, metrics)``."""
    workload = WORKLOADS[name](seed)
    workload.prepare()
    tally = Tally()
    with Worker() as worker:
        if not trace:
            setup_s, setup_scale = timed_setups(worker, workload.text,
                                                workload.setups)
            phase = Phase().run(workload, worker, seconds, tally)
            peak = worker.call("peak_rss_mb")
            describe(workload, phase)
            print(f"perfbench: latency_tail_ms is p{workload.percentile} of "
                  f"{len(phase.latencies())} questions; setup_s is the "
                  f"median of {workload.setups} set-ups (host_scale "
                  f"{setup_scale:.3f}); unscaled: setup_s={setup_s:.4g} "
                  f"throughput_qps={phase.qps(False):.4g} "
                  f"latency_p50_ms={1000 * phase.p50(False):.4g} "
                  f"latency_tail_ms="
                  f"{1000 * phase.tail(workload.percentile, False):.4g} "
                  f"reload_ms={1000 * phase.reload(False):.4g}",
                  file=sys.stderr)
            return tally, {
                "setup_s": (setup_s * setup_scale, "s"),
                "throughput_qps": (phase.qps(), "1/s"),
                "latency_p50_ms": (1000 * phase.p50(), "ms"),
                "latency_tail_ms": (
                    1000 * phase.tail(workload.percentile), "ms"),
                "reload_ms": (1000 * phase.reload(), "ms"),
                "peak_rss_mb": (peak, "MB"),
            }

        worker.call("setup", workload.text)
        plain = Phase().run(workload, worker, seconds, tally)
        worker.call("setup", workload.text)
        worker.call("trace")
        traced = Phase().run(workload, worker, seconds, tally)
        span_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        metrics, table = worker.call("untrace", str(span_file))
    describe(workload, traced)
    print(table, file=sys.stderr)
    # Each phase's throughput at nominal speed, so that the host's drift
    # between the two phases does not read as tracing overhead.
    plain_qps, traced_qps = plain.qps(), traced.qps()
    metrics.update({
        "serve.handle.ms": (0.0, "ms"),
        "serve.wait.ms": (0.0, "ms"),
        "serve.cpu_ms_per_query": (0.0, "ms"),
        "trace.overhead_pct": (100 * (1 - traced_qps / plain_qps), "%"),
    })
    print(f"perfbench: spans in {span_file}; throughput at nominal speed "
          f"untraced {plain_qps:.2f}/s, traced {traced_qps:.2f}/s",
          file=sys.stderr)
    return tally, metrics
