"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``anonymize`` — run DIVA on a relation and write the published CSV.
* ``check`` — validate an anonymized relation against k and a constraint file.
* ``dataset`` — generate one of the evaluation datasets as CSV.
* ``convert`` — copy a relation between storage backends.
* ``bench`` — regenerate one paper artifact and print its series.
* ``stream`` — replay a relation as timed micro-batches through the
  streaming engine, writing every published release.
* ``serve`` — run the long-running anonymization service (HTTP ingest,
  versioned release serving with ETags, ``/metrics``).
* ``report`` — render one run: duration histograms, critical path, folded
  stacks and top counters from a JSONL trace (or a registry record).
* ``trace`` — render one request's span tree: a stored ``/trace`` JSON
  body, a JSONL trace, or a live service (``repro trace URL TRACE_ID``
  fetches ``/trace/<id>``; without an id it lists ``/traces``).
* ``compare`` — diff two runs (or a run against its registry baseline)
  and exit non-zero on a regression past the threshold.

Wherever a command reads a relation it accepts a backend spec, not just a
CSV path: ``csv:people.csv``, ``sqlite:census.db::census``,
``columnar:census.cols``, a descriptor ``.json``, or a bare path (see
:mod:`repro.io`).

Constraint files are plain text, one constraint per line in the paper's
notation (``ETH[Asian], 2, 5``); blank lines and ``#`` comments allowed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import obs
from .core.constraints import ConstraintSet, DiversityConstraint
from .core.diva import Diva
from .core.problem import KSigmaProblem
from .data.datasets import DATASETS, load_dataset
from .data.loaders import save_relation
from .io import open_backend
from .metrics.accuracy_utils import measure_output
from .metrics.diversity_check import check_diversity
from .metrics.stats import is_k_anonymous


def load_constraint_file(path: str | Path) -> ConstraintSet:
    """Parse a constraints file (one ``A[a], lo, hi`` per line)."""
    constraints = []
    with open(path) as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                constraints.append(DiversityConstraint.parse(line))
            except Exception as exc:
                raise SystemExit(
                    f"{path}:{line_no}: cannot parse constraint: {exc}"
                )
    return ConstraintSet(constraints)


def cmd_anonymize(args: argparse.Namespace) -> int:
    relation = open_backend(args.input).load()
    constraints = (
        load_constraint_file(args.constraints)
        if args.constraints
        else ConstraintSet()
    )
    diva = Diva(
        strategy=args.strategy,
        anonymizer=args.anonymizer,
        best_effort=args.best_effort,
        max_steps=args.max_steps,
        seed=args.seed,
        max_workers=args.workers,
        executor=args.executor,
        solver=args.solver,
    )
    collector = None
    began = time.perf_counter()
    if args.stats or args.trace or args.registry:
        # --stats prints the in-memory summary; --trace streams replayable
        # JSONL events; --registry persists the summarized run.  All can
        # be active at once via a tee.
        collector = obs.Collector()
        sinks: list[obs.Sink] = [collector]
        if args.trace:
            sinks.append(obs.JsonlSink(args.trace))
        sink = sinks[0] if len(sinks) == 1 else obs.TeeSink(*sinks)
        try:
            with obs.use_sink(sink):
                result = diva.run(relation, constraints, args.k)
        finally:
            for s in sinks[1:]:
                s.close()
    else:
        result = diva.run(relation, constraints, args.k)
    elapsed = time.perf_counter() - began
    save_relation(result.relation, args.output)
    metrics = measure_output(result.relation, args.k)
    print(f"wrote {args.output}: |R|={len(result.relation)}")
    print(
        f"accuracy={metrics['accuracy']:.4f} stars={metrics['stars']} "
        f"({metrics['star_ratio']:.1%} of QI cells)"
    )
    if result.dropped:
        print(f"dropped {len(result.dropped)} unsatisfiable constraint(s):")
        for sigma in result.dropped:
            print(f"  {sigma!r}")
    if args.stats:
        print(obs.render(obs.summarize(collector)))
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.registry:
        registry = obs.RunRegistry(args.registry)
        path = registry.append(
            obs.new_record(
                kind="anonymize",
                label=args.label,
                config={
                    "k": args.k,
                    "strategy": args.strategy,
                    "anonymizer": args.anonymizer,
                    "solver": args.solver,
                    "max_steps": args.max_steps,
                    "workers": args.workers,
                    "executor": args.executor,
                    "seed": args.seed,
                },
                metrics={
                    "runtime_s": round(elapsed, 6),
                    "accuracy": metrics["accuracy"],
                    "stars": metrics["stars"],
                    "dropped": len(result.dropped),
                },
                obs_block=(
                    obs.summarize(collector) if collector is not None else None
                ),
            )
        )
        print(f"registry record {path}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    relation = open_backend(args.input).load()
    ok = True
    if not is_k_anonymous(relation, args.k):
        print(f"FAIL: not {args.k}-anonymous")
        ok = False
    else:
        print(f"OK: {args.k}-anonymous")
    if args.constraints:
        constraints = load_constraint_file(args.constraints)
        verdicts = check_diversity(relation, constraints)
        for verdict in verdicts:
            sigma = verdict.constraint
            status = "OK" if verdict.satisfied else "FAIL"
            line = (
                f"{status}: {sigma!r} count={verdict.count} "
                f"range=[{sigma.lower}, {sigma.upper}]"
            )
            if verdict.shortfall:
                line += f" shortfall={verdict.shortfall}"
            if verdict.overage:
                line += f" overage={verdict.overage}"
            print(line)
            ok = ok and verdict.satisfied
        violated = sum(1 for v in verdicts if not v.satisfied)
        print(f"constraints violated: {violated} of {len(verdicts)}")
    if args.original:
        original = open_backend(args.original).load()
        problem = KSigmaProblem(
            original,
            load_constraint_file(args.constraints)
            if args.constraints
            else ConstraintSet(),
            args.k,
        )
        for failure in problem.validate_solution(relation):
            print(f"FAIL: {failure}")
            ok = False
    return 0 if ok else 1


def cmd_dataset(args: argparse.Namespace) -> int:
    relation = load_dataset(args.name, seed=args.seed, n_rows=args.rows)
    save_relation(relation, args.output)
    print(
        f"wrote {args.output}: |R|={len(relation)} "
        f"n={len(relation.schema)} |ΠQI|={relation.distinct_projection_size()}"
    )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a CSV as micro-batches through the streaming engine.

    Tuples are fed in storage order, ``--batch-size`` at a time (with an
    optional ``--interval`` sleep between batches to simulate timed
    arrivals).  Each published release is written to
    ``<outdir>/release_NNNN.csv`` with its schema sidecar; the buffer is
    flushed at end-of-stream.
    """
    import time

    from .stream import StreamingAnonymizer

    relation = open_backend(args.input).load()
    constraints = (
        load_constraint_file(args.constraints)
        if args.constraints
        else ConstraintSet()
    )
    engine = StreamingAnonymizer(
        relation.schema,
        constraints,
        args.k,
        strategy=args.strategy,
        anonymizer=args.anonymizer,
        max_steps=args.max_steps,
        bootstrap=args.bootstrap,
        max_deferrals=args.max_deferrals,
        scoped_batch=args.scoped_batch,
        seed=args.seed,
        max_workers=args.workers,
        executor=args.executor,
        solver=args.solver,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    collector = obs.Collector() if args.stats else None

    def write_release(release, elapsed: float) -> None:
        path = outdir / f"release_{release.sequence:04d}.csv"
        save_relation(release.relation, path)
        print(
            f"release {release.sequence} [{release.mode}] |R|={release.size} "
            f"+{release.admitted} (extended={release.extended}, "
            f"recomputed={release.recomputed}) stars={release.stars} "
            f"pending={release.pending} ({elapsed:.3f}s) -> {path}"
        )

    rows = [row for _, row in relation]
    with obs.use_sink(collector) if collector is not None else _null_context():
        for start in range(0, len(rows), args.batch_size):
            if start and args.interval:
                time.sleep(args.interval)
            began = time.perf_counter()
            release = engine.ingest(rows[start:start + args.batch_size])
            if release is not None:
                write_release(release, time.perf_counter() - began)
        began = time.perf_counter()
        final = engine.flush()
        if final is not None:
            write_release(final, time.perf_counter() - began)

    stats = engine.stats
    print(
        f"stream done: {stats.releases} release(s) from {stats.batches} "
        f"batch(es), {stats.tuples_ingested} tuple(s) "
        f"({stats.tuples_extended} extended, {stats.tuples_recomputed} "
        f"recomputed; extend ratio {stats.extend_ratio:.1%}), "
        f"{stats.scoped_recomputes} scoped / {stats.full_recomputes} full "
        f"recompute(s)"
    )
    if engine.pending_count:
        print(
            f"warning: {engine.pending_count} tuple(s) could not be "
            "published (stream infeasible or below k)"
        )
    if args.stats:
        latency = stats.publish_latency
        if latency.count:
            s = latency.summary()
            print(
                f"publish latency: n={s['count']} p50={s['p50_s']:.6f}s "
                f"p90={s['p90_s']:.6f}s p99={s['p99_s']:.6f}s "
                f"max={s['max_s']:.6f}s"
            )
        print(obs.render(obs.summarize(collector)))
    return 0 if stats.releases else 1


def _null_context():
    import contextlib

    return contextlib.nullcontext()


def cmd_convert(args: argparse.Namespace) -> int:
    """Copy a relation between storage backends.

    Source and destination are backend specs; an unprefixed destination
    path writes CSV, so converting *to* SQLite or columnar needs the
    explicit ``sqlite:db::table`` / ``columnar:dir`` form.
    """
    source = open_backend(args.source)
    relation = source.load()
    dest = open_backend(args.dest)
    target = dest.write_source(relation)
    print(
        f"converted {source.kind} -> {dest.kind}: |R|={len(relation)} "
        f"n={len(relation.schema)} -> {target}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the anonymization service against a storage backend.

    The backend provides the stream schema (and receives every published
    release back when ``--write-releases`` is set); arrivals come in over
    HTTP.  With ``--replay`` the backend's existing rows are fed through
    the engine as micro-batches before the socket opens, so the service
    starts with a published release instead of an empty ledger.
    """
    import asyncio

    from .serve import AnonymizationService
    from .stream import StreamingAnonymizer

    backend = open_backend(args.source)
    schema = backend.schema()
    constraints = (
        load_constraint_file(args.constraints)
        if args.constraints
        else ConstraintSet()
    )
    engine = StreamingAnonymizer(
        schema,
        constraints,
        args.k,
        strategy=args.strategy,
        anonymizer=args.anonymizer,
        max_steps=args.max_steps,
        bootstrap=args.bootstrap,
        max_deferrals=args.max_deferrals,
        scoped_batch=args.scoped_batch,
        seed=args.seed,
        max_workers=args.workers,
        executor=args.executor,
        solver=args.solver,
    )
    service = AnonymizationService(
        engine,
        micro_batch=args.micro_batch,
        release_backend=backend if args.write_releases else None,
        slo_p99_s=args.slo_p99,
        error_budget=args.error_budget,
    )
    if args.replay:
        rows = [row for _, row in backend.load()]
        for start in range(0, len(rows), args.micro_batch):
            engine.ingest(rows[start:start + args.micro_batch])
        print(
            f"replayed {len(rows)} row(s) from {backend.kind} source: "
            f"{engine.stats.releases} release(s), "
            f"{engine.pending_count} pending"
        )
    try:
        asyncio.run(service.run_forever(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _report_error(message: str) -> int:
    """Diagnostic + exit code 2 (bad input, distinct from regressions)."""
    print(f"repro report: {message}", file=sys.stderr)
    return 2


def cmd_report(args: argparse.Namespace) -> int:
    """Render one run: histograms, critical path, folded stacks, counters.

    ``input`` is either a JSONL trace (``anonymize --trace``) — analyzed
    in full, including tree reconstruction — or a registry record JSON,
    whose summarized ``obs`` block is rendered (a summary has no per-event
    data, so tree views are unavailable for records).

    Exits 2 with a one-line diagnostic on a missing file, a trace with no
    events (e.g. the instrumented run crashed before emitting), or a
    truncated/corrupt file — a report pipeline should fail loudly, not
    render an empty profile.
    """
    path = Path(args.input)
    if not path.exists():
        return _report_error(f"{path}: no such file")
    if path.suffix == ".jsonl":
        try:
            analysis = obs.analyze(path)
        except (ValueError, KeyError) as exc:
            # json.JSONDecodeError is a ValueError: a half-written final
            # line (killed writer) or non-trace JSONL lands here.
            return _report_error(f"{path}: truncated or corrupt trace ({exc})")
        if not analysis.roots and not analysis.counters:
            return _report_error(
                f"{path}: trace has no spans or counters (empty or "
                "instrumentation was disabled for the run)"
            )
        print(f"trace: {path}")
        print(obs.render_analysis(analysis, top_counters=args.top))
        return 0
    try:
        record = obs.load_run(path)
    except ValueError as exc:
        return _report_error(f"{path}: not a run record ({exc})")
    try:
        header = (
            f"run: {record['run_id']} ({record['kind']}) "
            f"at {record['created_at']} git={record.get('git_sha') or '?'}"
        )
    except (KeyError, TypeError):
        return _report_error(
            f"{path}: not a run record (missing run_id/kind/created_at)"
        )
    print(header)
    for section in ("config", "metrics"):
        entries = record.get(section) or {}
        if entries:
            print(f"{section}: " + ", ".join(
                f"{key}={value}" for key, value in entries.items()
            ))
    block = record.get("obs")
    if block:
        print(obs.render(block))
    else:
        print("(record carries no obs block; critical path needs a .jsonl trace)")
    return 0


def _trace_error(message: str) -> int:
    print(f"repro trace: {message}", file=sys.stderr)
    return 2


def _render_trace_payload(payload: dict, args: argparse.Namespace) -> int:
    """Render one ``/trace`` JSON body (fetched or stored)."""
    spans = payload.get("spans")
    if not isinstance(spans, list):
        return _trace_error("payload has no 'spans' list (not a /trace body?)")
    header = "trace: " + str(payload.get("trace_id", "?"))
    meta = [
        f"{key}={payload[key]}"
        for key in ("state", "method", "path", "status", "wall_s")
        if key in payload
    ]
    if meta:
        header += " (" + ", ".join(meta) + ")"
    print(header)
    if not spans:
        return _trace_error("trace has no spans (still open, or evicted)")
    roots = obs.forest_from_payload(spans)
    analysis = obs.analyze_forest(roots)
    print(obs.render_analysis(analysis, top_counters=args.top))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a request's span tree from a service or a stored artifact.

    ``source`` is one of:

    * ``http(s)://host:port`` — fetch ``GET /trace/<trace_id>`` from a
      running service (``trace_id`` required), or list ``GET /traces``
      when no id is given;
    * a ``.json`` file holding a stored ``/trace`` body (the serve-smoke
      artifact, or a saved ``curl`` response);
    * a ``.jsonl`` trace — analyzed like ``repro report``, id-linked.

    Exits 2 on fetch/parse failures or an unknown trace id.
    """
    import json

    source = args.source
    if source.startswith(("http://", "https://")):
        import urllib.error
        import urllib.request

        base = source.rstrip("/")
        url = (
            f"{base}/trace/{args.trace_id}" if args.trace_id
            else f"{base}/traces"
        )
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                payload = json.load(resp)
        except urllib.error.HTTPError as exc:
            return _trace_error(f"{url}: HTTP {exc.code} {exc.reason}")
        except (urllib.error.URLError, OSError) as exc:
            return _trace_error(f"{url}: {exc}")
        except ValueError as exc:
            return _trace_error(f"{url}: invalid JSON ({exc})")
        if args.trace_id:
            return _render_trace_payload(payload, args)
        completed = payload.get("traces", [])
        print(f"completed traces ({len(completed)}, newest first):")
        for entry in completed:
            line = "  " + str(entry.get("trace_id", "?"))
            meta = [
                f"{key}={entry[key]}"
                for key in ("method", "path", "status", "wall_s", "spans")
                if key in entry
            ]
            if meta:
                line += "  " + " ".join(meta)
            print(line)
        open_ids = payload.get("open", [])
        if open_ids:
            print(f"open traces ({len(open_ids)}):")
            for trace_id in open_ids:
                print(f"  {trace_id}")
        return 0
    path = Path(source)
    if not path.exists():
        return _trace_error(f"{path}: no such file")
    if path.suffix == ".jsonl":
        try:
            analysis = obs.analyze(path)
        except (ValueError, KeyError) as exc:
            return _trace_error(f"{path}: truncated or corrupt trace ({exc})")
        if not analysis.roots and not analysis.counters:
            return _trace_error(f"{path}: trace has no spans or counters")
        print(f"trace: {path}")
        print(obs.render_analysis(analysis, top_counters=args.top))
        return 0
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:
        return _trace_error(f"{path}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        return _trace_error(f"{path}: expected a /trace JSON object")
    return _render_trace_payload(payload, args)


def _compare_error(message: str) -> int:
    print(f"repro compare: {message}", file=sys.stderr)
    return 2


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare a candidate run against a baseline; exit 1 on regression.

    The baseline is ``--against PATH`` when given, otherwise the most
    recent registry run with the candidate's label (excluding the
    candidate itself) — the run-vs-registry-baseline mode.

    Exits 2 with a one-line diagnostic when the candidate or ``--against``
    file is missing, truncated or not a run record: unreadable input must
    never pass for a regression (exit 1) in a CI gate.
    """
    records = {}
    for path in filter(None, (args.candidate, args.against)):
        try:
            records[path] = obs.load_run(path)
        except OSError as exc:
            return _compare_error(f"{path}: {exc.strerror or exc}")
        except ValueError as exc:
            # json.JSONDecodeError is a ValueError, as is a non-record.
            return _compare_error(f"{path}: unreadable run record ({exc})")
    candidate = records[args.candidate]
    if args.against:
        baseline = records[args.against]
    else:
        registry = obs.RunRegistry(args.registry)
        baseline = registry.latest(
            label=args.label or candidate.get("label"),
            exclude_run_id=candidate.get("run_id"),
        )
        if baseline is None:
            print(
                f"no baseline run labelled "
                f"{args.label or candidate.get('label')!r} in {registry.root}"
            )
            return 2
    comparison = obs.compare_runs(
        baseline, candidate, threshold=args.threshold,
        min_baseline_s=args.min_baseline,
    )
    print(obs.render_comparison(comparison))
    return 0 if comparison.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import harness, reporting

    runners = {
        "table4": lambda: reporting.format_table(harness.table4_characteristics()),
        "fig4ab": lambda: _two_tables(harness.fig4ab_vs_nconstraints()),
        "fig4c": lambda: _two_tables(harness.fig4c_vs_conflict()),
        "fig4d": lambda: _two_tables(harness.fig4d_vs_distribution()),
        "fig5ab": lambda: _two_tables(harness.fig5ab_vs_k()),
        "fig5cd": lambda: _two_tables(harness.fig5cd_vs_size()),
    }
    try:
        runner = runners[args.artifact]
    except KeyError:
        raise SystemExit(
            f"unknown artifact {args.artifact!r}; one of {sorted(runners)}"
        )
    print(runner())
    return 0


def _two_tables(experiment) -> str:
    from .bench.reporting import experiment_table

    return (
        "runtime (s):\n"
        + experiment_table(experiment, "runtime")
        + "\naccuracy:\n"
        + experiment_table(experiment, "accuracy")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIVA: diversity-preserving k-anonymization (EDBT 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="run DIVA on a relation")
    p.add_argument(
        "input",
        help="input backend spec: CSV path, sqlite:DB::TABLE, "
        "columnar:DIR, or descriptor .json",
    )
    p.add_argument("output", help="output CSV path")
    p.add_argument("-k", type=int, required=True, help="privacy parameter k")
    p.add_argument("-c", "--constraints", help="diversity constraints file")
    p.add_argument(
        "--strategy", default="maxfanout",
        choices=["basic", "minchoice", "maxfanout"],
    )
    p.add_argument("--anonymizer", default="k-member")
    p.add_argument("--best-effort", action="store_true")
    p.add_argument(
        "--solver", default="exact", choices=["exact", "approx", "auto"],
        help="DiverseClustering tier: exact backtracking, poly-time "
        "approximation, or auto (exact with escalation to a warm-started "
        "approx pass on budget exhaustion)",
    )
    p.add_argument(
        "--max-steps", type=int, default=100_000,
        help="candidate-evaluation budget of the exact search "
        "(default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None,
        help="color constraint-graph components on a pool of this size",
    )
    p.add_argument(
        "--executor", default="thread", choices=["thread", "process"],
        help="pool flavor for --workers (process ships the relation via "
        "shared memory)",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print per-phase span timings and search counters",
    )
    p.add_argument(
        "--trace", metavar="FILE",
        help="write span/counter events as replayable JSONL to FILE",
    )
    p.add_argument(
        "--registry", metavar="DIR",
        help="append a schema-versioned run record (config, metrics, obs "
        "summary) to the run registry rooted at DIR",
    )
    p.add_argument(
        "--label", default="anonymize",
        help="registry label for this run (default: anonymize)",
    )
    p.set_defaults(fn=cmd_anonymize)

    p = sub.add_parser("check", help="validate an anonymized relation")
    p.add_argument("input", help="anonymized relation (backend spec)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-c", "--constraints", help="diversity constraints file")
    p.add_argument(
        "--original", help="original relation (backend spec) for R ⊑ R* checking"
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "convert", help="copy a relation between storage backends"
    )
    p.add_argument("source", help="source backend spec")
    p.add_argument(
        "dest",
        help="destination backend spec (unprefixed paths write CSV; use "
        "sqlite:DB::TABLE or columnar:DIR for the other stores)",
    )
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("dataset", help="generate an evaluation dataset")
    p.add_argument("name", choices=sorted(DATASETS))
    p.add_argument("output", help="output CSV path")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser(
        "stream",
        help="replay a relation as micro-batches through the streaming engine",
    )
    p.add_argument("input", help="input relation (backend spec)")
    p.add_argument("outdir", help="directory for release_NNNN.csv outputs")
    p.add_argument("-k", type=int, required=True, help="privacy parameter k")
    p.add_argument("-c", "--constraints", help="diversity constraints file")
    p.add_argument(
        "--batch-size", type=int, default=100,
        help="tuples per micro-batch (default 100)",
    )
    p.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to sleep between batches (timed replay)",
    )
    p.add_argument(
        "--bootstrap", type=int, default=None,
        help="buffered tuples required before the first release (default k)",
    )
    p.add_argument(
        "--max-deferrals", type=int, default=2,
        help="publishes a stranded sub-k residual may wait before a full recompute",
    )
    p.add_argument(
        "--scoped-batch", type=int, default=1,
        help="defer scoped recomputes and drain the accumulated residual "
        "queue every Nth round in one pooled run (default 1 = every batch)",
    )
    p.add_argument(
        "--strategy", default="maxfanout",
        choices=["basic", "minchoice", "maxfanout"],
    )
    p.add_argument("--anonymizer", default="k-member")
    p.add_argument(
        "--solver", default="exact", choices=["exact", "approx", "auto"],
        help="solver tier for recompute runs (see anonymize --solver)",
    )
    p.add_argument(
        "--max-steps", type=int, default=100_000,
        help="candidate-evaluation budget of the exact search "
        "(default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None,
        help="pool size for recompute runs (see anonymize --workers)",
    )
    p.add_argument(
        "--executor", default="thread", choices=["thread", "process"],
        help="pool flavor for --workers",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print stream span timings and stream.* counters",
    )
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser(
        "serve", help="run the long-running anonymization service"
    )
    p.add_argument(
        "source",
        help="backend spec providing the stream schema (and optionally "
        "the replayed history / release write-back target)",
    )
    p.add_argument("-k", type=int, required=True, help="privacy parameter k")
    p.add_argument("-c", "--constraints", help="diversity constraints file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = pick a free port and print it)",
    )
    p.add_argument(
        "--micro-batch", type=int, default=100,
        help="ingested rows accumulated before the engine publishes "
        "(default 100)",
    )
    p.add_argument(
        "--replay", action="store_true",
        help="feed the backend's existing rows through the engine before "
        "serving, so the service starts with a published release",
    )
    p.add_argument(
        "--write-releases", action="store_true",
        help="write every published release back to the source backend "
        "(sequence-numbered targets)",
    )
    p.add_argument(
        "--bootstrap", type=int, default=None,
        help="buffered tuples required before the first release (default k)",
    )
    p.add_argument(
        "--max-deferrals", type=int, default=2,
        help="publishes a stranded sub-k residual may wait before a full recompute",
    )
    p.add_argument(
        "--scoped-batch", type=int, default=1,
        help="scoped-recompute coalescing factor (see stream --scoped-batch)",
    )
    p.add_argument(
        "--strategy", default="maxfanout",
        choices=["basic", "minchoice", "maxfanout"],
    )
    p.add_argument("--anonymizer", default="k-member")
    p.add_argument(
        "--solver", default="auto", choices=["exact", "approx", "auto"],
        help="solver tier for recompute runs (default auto: a service "
        "should degrade to an approx-quality release rather than buffer "
        "a hard batch indefinitely)",
    )
    p.add_argument(
        "--max-steps", type=int, default=100_000,
        help="candidate-evaluation budget of the exact search "
        "(default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None,
        help="pool size for recompute runs (see anonymize --workers)",
    )
    p.add_argument(
        "--executor", default="thread", choices=["thread", "process"],
        help="pool flavor for --workers",
    )
    p.add_argument(
        "--slo-p99", type=float, default=0.5,
        help="ingest-to-publish p99 latency objective in seconds; /healthz "
        "degrades when observed p99 exceeds it (default %(default)s)",
    )
    p.add_argument(
        "--error-budget", type=float, default=0.01,
        help="tolerated request error rate; /healthz degrades when burn "
        "exceeds 1.0 (default %(default)s)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "report",
        help="analyze a JSONL trace (critical path, flamegraph stacks, "
        "histograms) or render a registry run record",
    )
    p.add_argument("input", help="trace .jsonl or registry record .json")
    p.add_argument(
        "--top", type=int, default=20,
        help="counters/stacks rows to show (default 20)",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "trace",
        help="render one request's span tree from a live service "
        "(/trace/<id>), a stored /trace JSON body, or a JSONL trace",
    )
    p.add_argument(
        "source",
        help="service base URL (http://host:port), a stored /trace .json, "
        "or a trace .jsonl",
    )
    p.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to fetch from a service URL (omit to list /traces)",
    )
    p.add_argument(
        "--top", type=int, default=20,
        help="counters/stacks rows to show (default 20)",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "compare",
        help="compare a run record against a baseline; exit 1 on regression",
    )
    p.add_argument("candidate", help="candidate run record .json")
    p.add_argument(
        "--against", metavar="FILE",
        help="explicit baseline run record (otherwise the latest registry "
        "run with the candidate's label)",
    )
    p.add_argument(
        "--registry", metavar="DIR", default="benchmarks/results",
        help="registry root to pick the baseline from "
        "(default: benchmarks/results)",
    )
    p.add_argument(
        "--label", default=None,
        help="baseline label to match (default: the candidate's label)",
    )
    p.add_argument(
        "--threshold", type=float, default=obs.registry.DEFAULT_THRESHOLD,
        help="slowdown ratio that counts as a regression (default %(default)s)",
    )
    p.add_argument(
        "--min-s", dest="min_baseline", type=float,
        default=obs.registry.DEFAULT_MIN_BASELINE_S,
        help="ignore durations below this baseline floor, in seconds "
        "(default %(default)s)",
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bench", help="regenerate one paper artifact")
    p.add_argument(
        "artifact",
        help="table4 | fig4ab | fig4c | fig4d | fig5ab | fig5cd",
    )
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
