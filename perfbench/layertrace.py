"""Per-layer spans and counts, recorded from outside the program.

``LayerTrace.install`` wraps the public functions of each layer of the
repro package (the ones in ``SPANS`` and ``COUNTS``) and ``uninstall``
puts the originals back.  A span is recorded at each wrapped call: name,
start, end, the span that was open on the same thread when it began,
and the request it belongs to.  Every ``NaLIX.ask`` opens a new request,
so one question's spans share one id.  Spans stay in memory until
``dump`` writes them as JSON lines.

A layer's self time is its span minus the time its child spans cover.
Counts are per question: calls made inside requests, divided by the
number of requests.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time

#: ``(module, attribute, span name)``; ``Class.method`` wraps a method.
SPANS = (
    ("repro.core.interface", "NaLIX.ask", "core.ask"),
    ("repro.nlp.dependency", "DependencyParser.parse", "nlp.parse"),
    ("repro.core.classifier", "classify_tree", "core.classify"),
    ("repro.core.validator", "Validator.validate", "core.validate"),
    ("repro.core.translator", "Translator.translate", "core.translate"),
    ("repro.analysis.analyzer", "analyze_query", "analysis.analyze"),
    ("repro.xquery.parser", "parse_xquery", "xquery.parse"),
    ("repro.xquery.evaluator", "Evaluator.run", "xquery.evaluate"),
    ("repro.xquery.plan", "enumerate_tuples", "xquery.plan.enumerate"),
    ("repro.xquery.mqf", "mqf_join", "xquery.mqf.join"),
    ("repro.obs.answers", "answer_digest", "obs.answer_digest"),
    ("repro.database.indexes", "build_indexes", "database.index_build"),
    ("repro.xmlstore.parser", "parse_document", "xmlstore.parse"),
    ("repro.keyword_search.engine", "KeywordSearchEngine.search",
     "keyword_search.search"),
)

#: Hot functions that are counted, not timed: a span per call would
#: cost more than the call.
COUNTS = (
    ("repro.xquery.mqf", "anchor", "xquery.mqf.anchor.calls"),
    ("repro.xquery.mqf", "meaningfully_related", "xquery.mqf.pairs.calls"),
    ("repro.database.store", "Database.nodes_with_tag",
     "database.tag_lookups"),
    ("repro.database.store", "Database.nodes_with_value",
     "database.value_lookups"),
)

ROOT = "core.ask"
#: Spans whose first argument's length is kept: XML characters parsed,
#: documents indexed.
SIZED = ("xmlstore.parse", "database.index_build")


class _ThreadState:
    __slots__ = ("stack", "request", "counts")

    def __init__(self):
        self.stack = []
        self.request = None
        self.counts = {}


class LayerTrace:
    """Spans and counts for one traced run."""

    def __init__(self):
        self.spans = []          # (request, id, parent, name, start, end)
        self.sizes = {}          # span id -> characters or documents
        self.rejected = 0        # validations that returned errors
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _span_wrapper(self, name, func):
        trace = self
        root = name == ROOT

        def traced(*args, **kwargs):
            state = trace._state()
            opens_request = root and state.request is None
            if opens_request:
                state.request = next(trace._requests)
            parent = state.stack[-1] if state.stack else None
            span_id = next(trace._ids)
            state.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                trace.spans.append(
                    (state.request, span_id, parent, name, start, end))
                if opens_request:
                    state.request = None
            if name in SIZED and args:
                trace.sizes[span_id] = len(args[0])
            elif name == "core.validate" and not result.ok:
                trace.rejected += 1
            return result

        return traced

    def _count_wrapper(self, name, func):
        trace = self

        def counted(*args, **kwargs):
            state = trace._state()
            if state.request is not None:
                state.counts[name] = state.counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer function listed in ``SPANS`` and ``COUNTS``."""
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module_name, attribute, name in table:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    setattr(owner, method, make(name, original))
                    self._undo.append((owner, method, original))
                else:
                    original = getattr(module, attribute)
                    self._rebind(original, make(name, original))

    def _rebind(self, original, wrapper):
        # ``from x import f`` copies the binding, so every repro module
        # that holds the function gets the wrapper.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def counts(self):
        totals = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def dump(self, path):
        """Write the spans, then one line of counts, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for request, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "request": request, "id": span_id, "parent": parent,
                    "name": name, "start_s": start, "end_s": end,
                    "size": self.sizes.get(span_id),
                }) + "\n")
            handle.write(json.dumps({"counts": self.counts(),
                                     "rejected": self.rejected}) + "\n")

    def summary(self):
        return Summary(
            [(r, i, p, n, s, e, self.sizes.get(i))
             for r, i, p, n, s, e in self.spans],
            self.counts(), self.rejected)


class Summary:
    """Per-layer figures from one traced run's spans and counts."""

    def __init__(self, spans, counts, rejected):
        self.counts = counts
        self.rejected = rejected
        children = {}
        for _, _, parent, _, start, end, _ in spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        self.calls = {}          # name -> [(total_s, self_s, size)]
        self.requests = set()
        self.in_requests = {}    # name -> calls made inside a question
        for request, span_id, _, name, start, end, size in spans:
            total = end - start
            self.calls.setdefault(name, []).append(
                (total, total - children.get(span_id, 0.0), size))
            if request is not None:
                self.requests.add(request)
                self.in_requests[name] = self.in_requests.get(name, 0) + 1

    @classmethod
    def load(cls, path):
        spans, counts, rejected = [], {}, 0
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counts" in record:
                    counts, rejected = record["counts"], record["rejected"]
                    continue
                spans.append((record["request"], record["id"],
                              record["parent"], record["name"],
                              record["start_s"], record["end_s"],
                              record["size"]))
        return cls(spans, counts, rejected)

    @property
    def questions(self):
        return len(self.requests)

    def median_ms(self, name, own=False):
        calls = self.calls.get(name, ())
        if name in SIZED:
            # An empty Database() builds empty indexes; only real input counts.
            calls = [call for call in calls if call[2]]
        if not calls:
            return 0.0
        return 1000.0 * statistics.median(c[1] if own else c[0]
                                          for c in calls)

    def per_question(self, value):
        return value / self.questions if self.questions else 0.0

    def parse_mb_s(self):
        rates = [size / total / 1e6
                 for total, _, size in self.calls.get("xmlstore.parse", ())
                 if size and total > 0]
        return statistics.median(rates) if rates else 0.0

    def metrics(self):
        """``{metric: (value, unit)}`` for every traced layer metric."""
        ms = {name: (self.median_ms(name), "ms") for name in (
            "nlp.parse", "core.classify", "core.validate", "core.translate",
            "analysis.analyze", "xquery.parse", "xquery.evaluate",
            "xquery.plan.enumerate", "xquery.mqf.join", "obs.answer_digest",
            "database.index_build", "xmlstore.parse")}
        out = {f"{name}.ms": figure for name, figure in ms.items()}
        out["core.ask_overhead.ms"] = (self.median_ms(ROOT, own=True), "ms")
        out["xquery.evaluate.self_ms"] = (
            self.median_ms("xquery.evaluate", own=True), "ms")
        out["core.validate.rejected"] = (
            self.per_question(self.rejected), "count/q")
        out["xquery.mqf.join.calls"] = (
            self.per_question(self.in_requests.get("xquery.mqf.join", 0)),
            "count/q")
        out["keyword_search.search.calls"] = (
            self.per_question(
                self.in_requests.get("keyword_search.search", 0)),
            "count/q")
        for _, _, name in COUNTS:
            out[name] = (self.per_question(self.counts.get(name, 0)),
                         "count/q")
        out["xmlstore.parse.mb_s"] = (self.parse_mb_s(), "MB/s")
        return out

    def table(self):
        """One line per traced span name: calls, median total and self."""
        lines = [f"{'span':28} {'calls':>8} {'total ms':>10} {'self ms':>10}"]
        for name in sorted(self.calls):
            lines.append(f"{name:28} {len(self.calls[name]):>8} "
                         f"{self.median_ms(name):>10.3f} "
                         f"{self.median_ms(name, own=True):>10.3f}")
        return "\n".join(lines)
