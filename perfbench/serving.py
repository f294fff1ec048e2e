"""The serve-keepalive workload.

``repro serve`` runs as its own process with its shipped defaults, an
access log and the correctness canary (on by default for generated dblp
data; named here because the data arrives as a file).  Two callers in
this process each hold one persistent HTTP/1.1 connection and POST the
9 reference phrasings round-robin in a closed loop.  Latency is timed
client-side; the server's own handling time comes back in
``X-Repro-Seconds``.  Request latency and throughput are reported as
measured: the 40 ms delayed-ACK stall (see README.md), not the host's
CPU speed, sets them, so scaling them by the host-speed loop would only
add its noise.  Set-up and reload times are scaled like the other
workloads' times.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import reference
import walks
import workloads
from layertrace import Summary
from repro.data.dblp import DblpConfig
from repro.evaluation.tasks import reference_sentences

CALLERS = 2
SPAWNS = 5              # server starts per run; setup_s is their median
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
RELOAD_WINDOW_S = 2.0   # reload_ms: seeded reloads for this long, after the phase
MAX_RELOADS = 400
HOST = "127.0.0.1"


class ServeKeepalive:
    """Generated data and checked phrasings for the served collection."""

    name = "serve-keepalive"
    percentile = 95         # the tail; a run has about a thousand requests

    def __init__(self, seed):
        self.seed = seed
        base = workloads.Version(DblpConfig(books=12))
        self.text, self.nodes = base.text, base.nodes
        self.questions = [(sentence, walks.REFERENCE_WALKS[task](base.document))
                          for task, sentence in reference_sentences()]

    def measure_reloads(self, tally):
        """``(median load_text seconds, scale)`` of seeded revisions.

        The server has no reload endpoint, so this times the same call in
        a worker process over the same collection, with the host-speed
        loop timed before each reload.  Each reload is checked by asking
        Q9 on the new revision.
        """
        task, sentence = reference_sentences()[6]
        seeds = workloads.revision_seeds(self.name, self.seed)
        times, samples = [], []
        with workloads.Worker() as worker:
            worker.call("setup", self.text)
            started = time.perf_counter()
            while len(times) < 3 or (
                    time.perf_counter() - started < RELOAD_WINDOW_S
                    and len(times) < MAX_RELOADS):
                version = workloads.Version(
                    DblpConfig(books=12, seed=next(seeds)))
                check = walks.REFERENCE_WALKS[task](version.document)
                samples.append(worker.call("reference"))
                times.append(worker.call("reload", version.text))
                _, *reply = worker.call("ask", sentence)
                workloads.judge(sentence, reply, check, tally)
        return statistics.median(times), reference.scale(samples)


def _free_port():
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process, from spawn to drained exit."""

    def __init__(self, root, out_dir, data_path, tag, span_file=None):
        self.port = _free_port()
        self.log = out_dir / f"server-{tag}.log"
        command = [sys.executable]
        if span_file is None:
            command += ["-m", "repro"]
        else:
            command += [str(root / "perfbench" / "traced_serve.py"),
                        str(span_file)]
        command += ["serve", "--data", str(data_path), "--port",
                    str(self.port), "--canary",
                    "--access-log", str(out_dir / f"access-{tag}.jsonl")]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self.log, "w", encoding="utf-8") as log:
            self.started = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)

    def wait_ready(self):
        """Seconds from spawn to the first 200 on ``/readyz``."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}"
                                   f"; see {self.log}")
            connection = http.client.HTTPConnection(HOST, self.port, timeout=5)
            try:
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:g}s")

    def cpu_seconds(self):
        """User plus system CPU of the server so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Load:
    """Closed-loop keep-alive callers: whole rounds until time is up and
    the callers together have ``minimum`` answers."""

    def __init__(self, port, questions, seconds, seed, minimum):
        self.port = port
        self.questions = questions
        self.seconds = seconds
        self.minimum = minimum      # requests, counted over both callers
        self.answered = 0
        # Each caller starts its rounds at a seeded task, as users would.
        rng = random.Random(f"serve-keepalive:{seed}")
        self.starts = [rng.randrange(len(questions)) for _ in range(CALLERS)]
        self.replies = []   # (sentence, latency_s, status, handle_s, body)
        self.errors = []
        self.lock = threading.Lock()

    def caller(self, index, deadline):
        connection = http.client.HTTPConnection(HOST, self.port, timeout=30)
        start = self.starts[index]
        order = self.questions[start:] + self.questions[:start]
        replies = []
        try:
            while True:
                for sentence, _ in order:
                    body = json.dumps({"sentence": sentence,
                                       "limit": 1_000_000}).encode("utf-8")
                    begin = time.perf_counter()
                    connection.request(
                        "POST", "/query", body=body,
                        headers={"Content-Type": "application/json",
                                 "X-Repro-Tenant": f"perfbench-{index}"})
                    response = connection.getresponse()
                    data = response.read()
                    latency = time.perf_counter() - begin
                    handle = response.getheader("X-Repro-Seconds")
                    replies.append((sentence, latency, response.status,
                                    float(handle) if handle else None, data))
                with self.lock:
                    self.answered += len(order)
                    enough = self.answered >= self.minimum
                if enough and time.perf_counter() >= deadline:
                    break
        except Exception as error:      # reported as failed questions
            with self.lock:
                self.errors.append(f"caller {index}: {error!r}")
        finally:
            connection.close()
            with self.lock:
                self.replies.extend(replies)

    def run(self):
        started = time.perf_counter()
        threads = [threading.Thread(target=self.caller,
                                    args=(index, started + self.seconds))
                   for index in range(CALLERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - started
        return self

    def check(self, tally):
        expected = dict(self.questions)
        for sentence, _, status, _, data in self.replies:
            tally.attempted += 1
            if status != 200:
                tally.record(sentence, f"HTTP {status}", wrong=False)
                continue
            body = json.loads(data)
            if body["status"] != "ok" or body["truncated"]:
                tally.record(sentence, f"status {body['status']}")
                continue
            problem = expected[sentence].mismatch(body["results"])
            if problem:
                tally.record(sentence, problem)
        for error in self.errors:
            tally.record("", error, wrong=False)

    @property
    def qps(self):
        return len(self.replies) / self.wall

    def latencies(self):
        return [latency for _, latency, _, _, _ in self.replies]

    def handle_ms(self):
        return 1000 * statistics.median(
            handle for _, _, _, handle, _ in self.replies if handle)

    def wait_ms(self):
        return 1000 * statistics.median(
            latency - handle
            for _, latency, _, handle, _ in self.replies if handle)


def run(seed, seconds, trace, root, out_dir):
    workload = ServeKeepalive(seed)
    data_path = out_dir / f"serve-seed{seed}.xml"
    data_path.write_text(workload.text, encoding="utf-8")
    tally = workloads.Tally()

    def phase(server, tag):
        try:
            server.wait_ready()
            cpu_before = server.cpu_seconds()
            load = Load(server.port, workload.questions, seconds, seed,
                        workloads.tail_samples(workload.percentile)).run()
            cpu_ms = 1000 * (server.cpu_seconds() - cpu_before) / max(
                1, len(load.replies))
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        load.check(tally)
        print(f"perfbench: {workload.name} {tag} seed={seed} "
              f"nodes={workload.nodes} xml_bytes={len(workload.text)} "
              f"requests={len(load.replies)} qps={load.qps:.2f} "
              f"handle_p50_ms={load.handle_ms():.2f} "
              f"wait_p50_ms={load.wait_ms():.2f} "
              f"cpu_ms_per_query={cpu_ms:.2f}", file=sys.stderr)
        return load, cpu_ms, peak

    if not trace:
        # The host-speed loop runs here before each spawn, while no server
        # runs: after a spawn is ready its canary sweep takes a core.
        setups, samples = [], []
        for spawn in range(SPAWNS):
            samples.extend(reference.time_loop()
                           for _ in range(reference.GAP_TIMINGS))
            server = Server(root, out_dir, data_path, f"setup{spawn}")
            try:
                setups.append(server.wait_ready())
            except BaseException:
                server.stop()
                raise
            if spawn < SPAWNS - 1:
                server.stop()
        load, _, peak = phase(server, "untraced")
        reload_s, reload_scale = workload.measure_reloads(tally)
        setup_scale = reference.scale(samples)
        tail_s = workloads.tail(load.latencies(), workload.percentile)
        print(f"perfbench: latency_tail_ms is p{workload.percentile} of "
              f"{len(load.replies)} requests; setup_s is the median of "
              f"{len(setups)} spawns (host_scale {setup_scale:.3f}, "
              f"unscaled {statistics.median(setups):.4g}); reload_ms "
              f"host_scale {reload_scale:.3f}, unscaled "
              f"{1000 * reload_s:.4g}", file=sys.stderr)
        return tally, {
            "setup_s": (statistics.median(setups) * setup_scale, "s"),
            "throughput_qps": (load.qps, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(load.latencies()),
                               "ms"),
            "latency_tail_ms": (1000 * tail_s, "ms"),
            "reload_ms": (1000 * reload_s * reload_scale, "ms"),
            "peak_rss_mb": (peak, "MB"),
        }

    plain, _, _ = phase(Server(root, out_dir, data_path, "plain"), "untraced")
    span_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    traced, cpu_ms, _ = phase(
        Server(root, out_dir, data_path, "traced", span_file=span_file),
        "traced")
    summary = Summary.load(span_file)
    print(summary.table(), file=sys.stderr)
    metrics = summary.metrics()
    metrics.update({
        "serve.handle.ms": (traced.handle_ms(), "ms"),
        "serve.wait.ms": (traced.wait_ms(), "ms"),
        "serve.cpu_ms_per_query": (cpu_ms, "ms"),
        "trace.overhead_pct": (100 * (1 - traced.qps / plain.qps), "%"),
    })
    return tally, metrics
