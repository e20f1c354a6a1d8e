"""The benchmark's four workloads: inputs, timed loops, checks, metrics.

``bench.py`` runs this file in a fresh child process per workload::

    python e2ebench/workloads.py --workload W --seed S --seconds T --trace 0|1 [--smoke]

and reads the one JSON object it prints.  A run is a sequence of *passes*
until ``--seconds`` is spent.  Each pass generates a fresh input instance
from ``(seed, pass index)`` during set-up, so the program receives only
generated inputs, and every timing is reported as a median (or a
percentile) over all passes: one pass is one short instance, and the
median over many instances is what repeats from seed to seed.

With ``--trace 1`` every pass runs twice on the same inputs, first
untraced and then traced: an ``obs.Collector`` records the program's own
spans and counters plus the spans :func:`tracing.wrapped` adds.  Only
per-layer metrics are reported, and the ratio of the two runs' wall time
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.constraints import ConstraintSet
from repro.core.diva import Diva
from repro.core.enumeration import get_enum_memo
from repro.core.errors import ReproError
from repro.core.searchstate import get_contribution_memo
from repro.data.datasets import make_census
from repro.data.loaders import load_relation, relation_to_csv_bytes, save_relation
from repro.data.relation import generalizes
from repro.metrics.diversity_check import check_diversity
from repro.metrics.stats import is_k_anonymous
from repro.obs.analyze import build_forest
from repro.stream import StreamingAnonymizer
from repro.stream.ledger import ReleaseValidationError, validate_release
from repro.workloads.constraint_gen import proportion_constraints

from tracing import wrapped

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Environment overrides that would select a non-default kernel backend,
#: cost model or shared-memory mode; a run under any of them is refused.
OVERRIDES = ("REPRO_KERNEL_BACKEND", "REPRO_COST_MODEL", "REPRO_DISABLE_SHM")

K = 5
MICRO_BATCH = 50
READ_INTERVAL_S = 0.01  # the serve reader's open-loop rate: 100 requests/s
MIN_PASSES = 2

#: Census groups with 5-10 values of similar frequency.  Constraints drawn
#: from them give every instance candidate pools of alike size; SEX, RACE
#: and CITIZEN each have one dominant value whose pool would make the rare
#: instance that draws it several times slower and larger.
GROUPS = ("OCC", "STATE", "EDU", "WORKCLASS", "MARITAL")
#: The conflict workload wants exactly those dominant values: drawn by
#: frequency, their target sets overlap heavily, so the exact search runs
#: out of budget on every instance.
DOMINANT_GROUPS = ("SEX", "RACE", "CITIZEN", "MARITAL", "EDU", "WORKCLASS")

#: Input scale per workload; ``--smoke`` swaps in the second column.
SCALES = {
    "batch-census": (
        dict(rows=1_200, constraints=6, bias="minority", attrs=GROUPS,
             solver="exact", max_steps=100_000),
        dict(rows=300, constraints=4, bias="minority", attrs=GROUPS,
             solver="exact", max_steps=100_000),
    ),
    "batch-conflict": (
        dict(rows=500, constraints=10, bias="frequency", attrs=DOMINANT_GROUPS,
             solver="auto", max_steps=20_000),
        dict(rows=300, constraints=6, bias="frequency", attrs=DOMINANT_GROUPS,
             solver="auto", max_steps=2_000),
    ),
    "stream-replay": (dict(rows=2_500, bootstrap=1_000), dict(rows=400, bootstrap=200)),
    "serve-mixed": (dict(rows=1_500, bootstrap=1_000), dict(rows=400, bootstrap=200)),
}


def now() -> float:
    return time.perf_counter()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def sub_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index`` of a run with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def clear_memos() -> None:
    get_enum_memo().clear()
    get_contribution_memo().clear()


# -- output checks -------------------------------------------------------------


def release_problems(release, k, constraints, original) -> list[str]:
    """Why ``release`` is not a valid publication of ``original`` (empty if it is).

    A valid release is k-anonymous, satisfies every constraint, covers
    exactly the input tids and only stars values of the input.
    """
    problems = []
    if not is_k_anonymous(release, k):
        problems.append(f"not {k}-anonymous")
    problems.extend(
        f"violates {v.constraint!r} (count {v.count})"
        for v in check_diversity(release, constraints)
        if not v.satisfied
    )
    if set(release.tids) != set(original.tids):
        problems.append("does not cover exactly the input tids")
    elif not generalizes(original, release):
        problems.append("changes a value instead of starring it")
    return problems


def read_release(relation) -> float:
    """Time a library caller's read of a release: the CSV bytes that
    ``save_relation`` (and so ``repro anonymize``) writes."""
    start = now()
    relation_to_csv_bytes(relation)
    return now() - start


class Tally:
    """Samples and outcomes of every pass of one run."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.reads: list[float] = []
        self.stars: list[float] = []
        self.throughput: list[float] = []  # rows published per second, per pass
        self.attempted = 0
        self.problems: list[str] = []
        # Load-generator views, gathered on traced passes only.
        self.growth: list[float] = []
        self.late: list[float] = []

    def check(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; record it as failed if it has problems."""
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


def decile_growth(latencies: list[float]) -> float:
    """Median of the last tenth of a pass's publishes over that of the first."""
    if len(latencies) < 2:
        return 0.0
    tenth = max(1, len(latencies) // 10)
    return statistics.median(latencies[-tenth:]) / statistics.median(latencies[:tenth])


# -- batch workloads -------------------------------------------------------------


class BatchWorkload:
    """One-shot publishes: a cold ``Diva.run`` then a warm re-run, per pass.

    Before the cold run both process-global memos are cleared and the
    relation is freshly generated (so its column index is rebuilt); the
    warm re-run reuses the relation and the memos the cold run filled.
    """

    def __init__(self, scale: dict, tally: Tally):
        self.scale = scale
        self.tally = tally

    def run_pass(self, seed: int, collector=None) -> float:
        scale, tally = self.scale, self.tally
        start = now()
        relation = make_census(seed=seed, n_rows=scale["rows"])
        sigma = proportion_constraints(
            relation, scale["constraints"], k=K, value_bias=scale["bias"],
            attrs=scale["attrs"], seed=seed,
        )
        tally.setup.append(now() - start)
        diva = Diva(
            best_effort=True,
            solver=scale["solver"],
            max_steps=scale["max_steps"],
            seed=seed,
        )
        clear_memos()
        cold, cold_s = self._publish(diva, relation, sigma, "cold")
        warm, warm_s = self._publish(diva, relation, sigma, "warm")
        if cold is not None:
            tally.cold.append(cold_s)
            tally.stars.append(cold.relation.star_count() / len(cold.relation))
        if warm is not None:
            tally.warm.append(warm_s)
        if cold is not None and warm is not None and warm.relation != cold.relation:
            tally.check("warm re-run", ["published a different release than the cold run"])
        tally.throughput.append(2 * len(relation) / (cold_s + warm_s))
        return cold_s + warm_s

    def _publish(self, diva, relation, sigma, temperature):
        tally = self.tally
        hits = get_enum_memo().stats()["enum_memo_hits"]
        # Collect the garbage set-up and the previous run's checks left, so
        # the timed run pays only for collections its own allocations cause.
        gc.collect()
        start = now()
        try:
            result = diva.run(relation, sigma, K)
        except ReproError as exc:
            elapsed = now() - start
            tally.check(f"{temperature} run", [f"raised {type(exc).__name__}: {exc}"])
            return None, elapsed
        elapsed = now() - start
        hits = get_enum_memo().stats()["enum_memo_hits"] - hits
        problems = release_problems(
            result.relation, K, ConstraintSet(result.satisfied), relation
        )
        # Constraint dropping re-enumerates the surviving constraints inside
        # the same run, so only a run that dropped nothing must miss every time.
        if temperature == "cold" and hits and not result.dropped:
            problems.append(f"cold run hit the enumeration memo {hits} time(s)")
        if temperature == "warm" and not hits:
            problems.append("warm run never hit the enumeration memo")
        tally.check(f"{temperature} run", problems)
        tally.reads.append(read_release(result.relation))
        return result, elapsed


# -- streaming replay ------------------------------------------------------------


def stream_inputs(seed: int, scale: dict):
    relation = make_census(seed=seed, n_rows=scale["rows"])
    sigma = proportion_constraints(relation, 6, k=K, lower_cap=8, attrs=GROUPS, seed=seed)
    return relation, sigma


class StreamWorkload:
    """An in-process streaming engine fed 50-row micro-batches, closed loop."""

    def __init__(self, scale: dict, tally: Tally):
        self.scale = scale
        self.tally = tally

    def run_pass(self, seed: int, collector=None) -> float:
        scale, tally = self.scale, self.tally
        start = now()
        relation, sigma = stream_inputs(seed, scale)
        rows = [row for _, row in relation]
        tally.setup.append(now() - start)
        clear_memos()
        engine = StreamingAnonymizer(
            relation.schema, sigma, K, bootstrap=scale["bootstrap"], seed=seed, solver="auto"
        )
        wall = 0.0
        latencies: list[float] = []
        for begin in range(0, len(rows), MICRO_BATCH):
            batch = rows[begin:begin + MICRO_BATCH]
            start = now()
            release = engine.ingest(batch)
            elapsed = now() - start
            wall += elapsed
            if release is None:
                tally.attempted += 1
                continue
            if engine.stats.releases == 1:
                tally.cold.append(elapsed)
            else:
                latencies.append(elapsed)
            self._check(release, sigma)
        start = now()
        try:
            engine.flush()
            problems = []
        except (ReproError, ReleaseValidationError) as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        wall += now() - start
        final = engine.release
        if final is None:
            problems.append("published no release")
        else:
            problems += release_problems(final.relation, K, sigma, relation)
            tally.stars.append(final.relation.star_count() / len(final.relation))
        tally.check("flush", problems)
        tally.warm.extend(latencies)
        tally.throughput.append(len(rows) / wall)
        if collector is not None:
            tally.growth.append(decile_growth(latencies))
        return wall

    def _check(self, release, sigma) -> None:
        try:
            validate_release(release.relation, K, sigma)
            problems = []
        except ReleaseValidationError as exc:
            problems = [str(exc)]
        self.tally.check(f"release {release.sequence}", problems)
        self.tally.reads.append(read_release(release.relation))


# -- the HTTP service ------------------------------------------------------------

LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")


class Reader(threading.Thread):
    """One connection sending ``GET /release`` open loop at 100 requests/s.

    Each request is timed from the moment it was due, so a stalled reply
    also delays, and is charged to, the requests queued behind it.
    """

    def __init__(self, port: int):
        super().__init__(daemon=True)
        self.port = port
        self.halt = threading.Event()
        self.latencies: list[float] = []
        self.late: list[float] = []
        self.problems: list[str] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        etag = None
        due = now()
        try:
            while not self.halt.is_set():
                wait = due - now()
                if wait > 0 and self.halt.wait(wait):
                    break
                sent = now()
                conn.request("GET", "/release", headers={"If-None-Match": etag} if etag else {})
                response = conn.getresponse()
                body = response.read()
                self.latencies.append(now() - due)
                self.late.append(sent - due)
                if response.status == 200:
                    etag = response.getheader("ETag")
                    if etag != f'"{hashlib.sha256(body).hexdigest()}"':
                        self.problems.append(f"ETag {etag} is not the SHA-256 of the body")
                elif response.status != 304:
                    self.problems.append(f"GET /release answered {response.status}")
                due += READ_INTERVAL_S
        except (OSError, http.client.HTTPException) as exc:
            self.problems.append(f"reader connection failed: {exc}")
        finally:
            conn.close()


def request(conn, method: str, path: str, body: bytes = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.headers, response.read()


class ServeWorkload:
    """A ``repro serve`` subprocess: one writer posting micro-batches closed
    loop, one reader revalidating the release open loop."""

    def __init__(self, scale: dict, tally: Tally, workdir: Path):
        self.scale = scale
        self.tally = tally
        self.workdir = workdir

    def run_pass(self, seed: int, collector=None) -> float:
        scale, tally, workdir = self.scale, self.tally, self.workdir
        trace_out = workdir / "service-trace.json"
        start = now()
        relation, sigma = stream_inputs(seed, scale)
        save_relation(relation.restrict(()), workdir / "schema.csv")
        (workdir / "sigma.txt").write_text(
            "".join(f"{c.attrs[0]}[{c.values[0]}], {c.lower}, {c.upper}\n" for c in sigma)
        )
        rows = [list(row) for _, row in relation]
        serve_args = [
            str(workdir / "schema.csv"), "-k", str(K), "-c", str(workdir / "sigma.txt"),
            "--micro-batch", str(MICRO_BATCH), "--bootstrap", str(scale["bootstrap"]),
            "--seed", str(seed), "--port", "0",
        ]
        if collector is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "serve_launcher.py"), str(trace_out), *serve_args]
        log_path = workdir / "service.log"
        with open(log_path, "w") as log:
            service = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        conn = None
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self._port(service, log_path), timeout=60)
            status, _, _ = request(conn, "GET", "/healthz")
            tally.setup.append(now() - start)
            tally.check("GET /healthz", [] if status == 200 else [f"answered {status}"])
            wall = self._drive(conn, relation, sigma, rows, collector is not None)
        finally:
            if conn is not None:
                conn.close()
            service.send_signal(signal.SIGINT)
            try:
                service.wait(timeout=30)
            except subprocess.TimeoutExpired:
                service.kill()
                service.wait()
        if collector is not None:
            collector.merge(json.loads(trace_out.read_text()))
        return wall

    def _port(self, service, log_path: Path) -> int:
        deadline = now() + 60
        while now() < deadline:
            match = LISTEN_RE.search(log_path.read_text())
            if match:
                return int(match.group(1))
            if service.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start: {log_path.read_text()[-2000:]}")

    def _drive(self, conn, relation, sigma, rows, traced: bool) -> float:
        tally = self.tally
        reader = None
        wall = 0.0
        latencies: list[float] = []
        try:
            for begin in range(0, len(rows), MICRO_BATCH):
                body = json.dumps({"rows": rows[begin:begin + MICRO_BATCH]}).encode()
                start = now()
                status, _, payload = request(conn, "POST", "/ingest", body)
                elapsed = now() - start
                wall += elapsed
                tally.check("POST /ingest", [] if status == 202 else [f"answered {status}"])
                if status != 202:
                    continue
                if reader is not None:
                    latencies.append(elapsed)
                elif json.loads(payload)["published"]:
                    tally.cold.append(elapsed)
                    reader = Reader(conn.port)
                    reader.start()
        finally:
            if reader is not None:
                reader.halt.set()
                reader.join(timeout=60)
        if reader is not None:
            tally.reads.extend(reader.latencies)
            tally.attempted += len(reader.latencies)
            tally.problems.extend(reader.problems)
        status, _, _ = request(conn, "POST", "/flush", b"{}")
        tally.check("POST /flush", [] if status == 202 else [f"answered {status}"])
        status, headers, body = request(conn, "GET", "/release")
        problems = [] if status == 200 else [f"answered {status}"]
        if status == 200:
            if headers["ETag"] != f'"{hashlib.sha256(body).hexdigest()}"':
                problems.append("ETag is not the SHA-256 of the body")
            # Compare with the input as it reads back from the same CSV format:
            # CSV turns the census's integer survey codes into strings.
            save_relation(relation, self.workdir / "input.csv")
            (self.workdir / "release.csv").write_bytes(body)
            release = load_relation(self.workdir / "release.csv", schema=relation.schema)
            original = load_relation(self.workdir / "input.csv")
            problems += release_problems(release, K, sigma, original)
            tally.stars.append(release.star_count() / len(release))
        tally.check("final GET /release", problems)
        tally.warm.extend(latencies)
        tally.throughput.append(len(rows) / wall)
        if traced:
            tally.growth.append(decile_growth(latencies))
            if reader is not None:
                tally.late.extend(reader.late)
        return wall


# -- metrics ---------------------------------------------------------------------


def end_to_end(tally: Tally, workload: str) -> dict[str, float]:
    rusage = resource.RUSAGE_CHILDREN if workload == "serve-mixed" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(tally.setup),
        "cold_publish_s": statistics.median(tally.cold),
        "warm_publish_s_p50": percentile(tally.warm, 50),
        "rows_per_s": statistics.median(tally.throughput),
        "read_s_p50": percentile(tally.reads, 50),
        "stars_per_tuple": statistics.median(tally.stars),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024,
    }


#: Spans that start one user-visible operation: a batch run, a stream
#: ingest or flush, a service request.  Layer times are taken only inside
#: them, so the benchmark's own checks (which also build indexes) do not count.
OPERATIONS = (obs.SPAN_DIVA_RUN, obs.SPAN_STREAM_INGEST, obs.SPAN_STREAM_PUBLISH,
              obs.SPAN_SERVE_REQUEST)

#: Per-layer self-time metric -> the spans whose self-time it sums.  The
#: names without a prefix constant are the spans :mod:`tracing` adds.
LAYERS = {
    "core.index.build_s": ("index.build",),
    "core.graph.build_s": (obs.SPAN_GRAPH_BUILD,),
    "core.enumeration.self_s": (obs.SPAN_ENUMERATE_CANDIDATES, obs.SPAN_ENUM_GENERATE),
    "core.searchstate.init_s": ("searchstate.init",),
    "core.coloring.search_s": (obs.SPAN_COLORING_SEARCH,),
    "core.approx.solve_s": (obs.SPAN_APPROX_SOLVE,),
    "core.suppress.self_s": (obs.SPAN_SUPPRESS,),
    "core.integrate.self_s": (obs.SPAN_INTEGRATE,),
    "anonymize.kmember.self_s": (obs.SPAN_ANONYMIZE, obs.SPAN_KMEMBER_CLUSTER),
    "stream.admission.init_s": ("admission.init",),
    "stream.admission.admit_s": ("admission.admit",),
    "stream.ledger.validate_s": ("ledger.validate",),
    "serve.service.encode_s": ("serve.encode",),
}
#: The pipeline's own code between the layers: reported, but not coverage.
GLUE = {
    "core.diva.self_s": (obs.SPAN_DIVA_RUN, obs.SPAN_DIVERSE_CLUSTERING, obs.SPAN_REFINE),
    "stream.engine.self_s": (obs.SPAN_STREAM_INGEST, obs.SPAN_STREAM_PUBLISH,
                             obs.SPAN_STREAM_EXTEND, obs.SPAN_STREAM_RECOMPUTE),
}


def per_layer(tally: Tally, collector: obs.Collector, overhead: float) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    wall = 0.0
    for root in build_forest(collector.spans):
        if root.name not in OPERATIONS:
            continue
        wall += root.duration
        for node in root.walk():
            self_s[node.name] += node.self_time
            total_s[node.name] += node.duration
            calls[node.name] += 1
    counters = collector.counters
    publishes = max(counters.get(obs.STREAM_RELEASES_PUBLISHED, 0) or calls[obs.SPAN_DIVA_RUN], 1)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def hit_ratio(hits, misses):
        return ratio(counters.get(hits, 0), counters.get(hits, 0) + counters.get(misses, 0))

    layers = {
        metric: sum(self_s[name] for name in names) / publishes
        for metric, names in (LAYERS | GLUE).items()
    }
    covered = sum(self_s[name] for names in LAYERS.values() for name in names)
    tried = counters.get(obs.COLORING_CANDIDATES_TRIED, 0)
    expanded = counters.get(obs.COLORING_NODES_EXPANDED, 0)
    extended = counters.get(obs.STREAM_TUPLES_EXTENDED, 0)
    recomputed = counters.get(obs.STREAM_TUPLES_RECOMPUTED, 0)
    fetched = counters.get(obs.SERVE_RELEASE_FETCHES, 0)
    not_modified = counters.get(obs.SERVE_RELEASE_NOT_MODIFIED, 0)
    return layers | {
        "core.enumeration.calls":
            (counters.get(obs.ENUM_MEMO_HITS, 0) + counters.get(obs.ENUM_MEMO_MISSES, 0)) / publishes,
        "core.enumeration.memo_hit_ratio": hit_ratio(obs.ENUM_MEMO_HITS, obs.ENUM_MEMO_MISSES),
        "core.searchstate.memo_hit_ratio": hit_ratio(obs.SEARCH_MEMO_HITS, obs.SEARCH_MEMO_MISSES),
        "core.coloring.candidates_tried": tried / publishes,
        "core.coloring.nodes_expanded": expanded / publishes,
        "core.coloring.accept_ratio": ratio(expanded, tried),
        "core.approx.escalations": counters.get(obs.SOLVER_ESCALATIONS, 0) / publishes,
        "stream.admission.extend_ratio": ratio(extended, extended + recomputed),
        "stream.engine.recomputes": (counters.get(obs.STREAM_RECOMPUTES_SCOPED, 0)
                                     + counters.get(obs.STREAM_RECOMPUTES_FULL, 0)) / publishes,
        "stream.engine.publish_growth": statistics.median(tally.growth) if tally.growth else 0.0,
        "serve.service.encode_calls": calls["serve.encode"] / publishes,
        "serve.service.not_modified_ratio": ratio(not_modified, not_modified + fetched),
        "serve.service.publish_s": ratio(total_s[obs.SPAN_SERVE_PUBLISH], calls[obs.SPAN_SERVE_PUBLISH]),
        "serve.http.request_s": ratio(total_s[obs.SPAN_SERVE_REQUEST], calls[obs.SPAN_SERVE_REQUEST]),
        "loadgen.publish_s_p90": percentile(tally.warm, 90),
        "loadgen.read_s_p99": percentile(tally.reads, 99),
        "loadgen.late_s_p99": percentile(tally.late, 99),
        "trace.coverage": ratio(covered, wall),
        "trace.overhead": overhead,
    }


def traced_pass(runner, seed: int, collector: obs.Collector) -> float:
    """One pass with the collector recording (the service records its own)."""
    if isinstance(runner, ServeWorkload):
        return runner.run_pass(seed, collector)
    with obs.use_sink(collector), wrapped():
        return runner.run_pass(seed, collector)


# -- the run ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    scale = SCALES[workload][1 if smoke else 0]
    tally = Tally()
    workdir = RESULTS / "work" / f"{workload}-{seed}-{os.getpid()}"
    if workload == "serve-mixed":
        workdir.mkdir(parents=True, exist_ok=True)
        runner = ServeWorkload(scale, tally, workdir)
    elif workload == "stream-replay":
        runner = StreamWorkload(scale, tally)
    else:
        runner = BatchWorkload(scale, tally)
    collector = obs.Collector() if trace else None
    untraced_s = traced_s = 0.0
    durations: list[float] = []
    started = now()
    try:
        while True:
            pass_seed = sub_seed(seed, len(durations))
            begin = now()
            if collector is None:
                runner.run_pass(pass_seed)
            else:
                untraced_s += runner.run_pass(pass_seed)
                traced_s += traced_pass(runner, pass_seed, collector)
            durations.append(now() - begin)
            elapsed = now() - started
            if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "problems": tally.problems[:20],
        "passes": len(durations),
    }
    if collector is None:
        result["metrics"] = end_to_end(tally, workload)
    else:
        overhead = traced_s / untraced_s - 1 if untraced_s else 0.0
        result["metrics"] = per_layer(tally, collector, overhead)
        trace_path = RESULTS / "traces" / f"{workload}-{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(collector.snapshot()) + "\n")
        result["trace"] = str(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    overridden = [name for name in OVERRIDES if name in os.environ]
    if overridden:
        print(f"refusing to run with {', '.join(overridden)} set", file=sys.stderr)
        return 2
    # A shell that starts the benchmark in the background leaves SIGINT
    # ignored, and the services this process starts would inherit that; they
    # are stopped with SIGINT, so give it back its default handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
