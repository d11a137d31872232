"""The traced run: the same seeded streams, in-process, tier by tier.

The run replays one workload's set-up, warm-up and timed sessions
through each serving tier's public API, each on a fresh catalog and in
a fresh ``spawn`` process:

1. ``Interpreter.execute`` over a directory ``Database``, spans off,
   for a share of ``--seconds``: the sessions it completes are what
   every later pass replays;
2. two passes side by side, one per core: the same tier with spans off,
   and with every layer span on — the per-layer ledger, and between the
   two the tracing overhead;
3. ``PXQLServer.execute`` (one worker, as each shard runs) with only the
   two tier spans on — admission wait;
4. ``ShardedServer.execute`` (2 shard processes) — router cost, and the
   shards' own counters through ``metrics_snapshot()``;
5. ``POST /execute`` against ``python -m repro.server`` — HTTP cost.

Every pass replays the same statements in the same order over one
connection, so tier costs are paired per statement and the serving
overheads are medians of per-statement differences.

Spans are recorded by this module around the public functions of each
layer (:data:`LAYERS`); nothing inside ``src/`` is changed.  A function
is patched wherever it is looked up — its defining module, every module
that imported it by name, and module-level dicts that hold it — and the
originals are restored when the pass ends.  Spans of one statement share
its id, nest through a context variable (which ``PXQLServer`` carries
into its worker threads), and live in memory until the pass ends.
"""

from __future__ import annotations

import contextvars
import gc
import importlib
import math
import multiprocessing
import shutil
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from perfbench.client import WORKERS
from perfbench.drive import Execute, Outcome, Record, drive
from perfbench.e2e import http_execute, start_server
from perfbench.plan import CHECKPOINT_RECORDS, JOURNAL_PHASE, Plan
from perfbench.streams import WRITE

#: Share of ``--seconds`` the untraced interpreter pass may take.
FIRST_PASS_SHARE = 1 / 4

#: Ops per session, to turn the first pass's op count into sessions.
SESSION_OPS = {"probe-hot": 1, "derive-cold": 2, "write-churn": 4}

#: write-churn replays at least enough cycles (4 journal records each,
#: alternating shards) for every shard to cross the checkpoint from
#: JOURNAL_PHASE, with a few to spare.
MIN_SESSIONS = {
    "write-churn": 2 * math.ceil((CHECKPOINT_RECORDS - JOURNAL_PHASE) / 4) + 8,
}

#: layer -> functions ("module:qualname") whose spans are its own time.
LAYERS: dict[str, tuple[str, ...]] = {
    "tier.server": ("repro.server.server:PXQLServer.execute",),
    "pxql": ("repro.pxql.interpreter:Interpreter.execute",),
    "pxql.parse": ("repro.pxql.parser:parse", "repro.pxql.parser:parse_spanned"),
    "check": ("repro.check.query:check_statement",),
    "check.dataguide": ("repro.check.dataguide:build_dataguide",),
    "check.certify": ("repro.check.absint:certify_plan",),
    "engine": (
        "repro.engine.executor:Engine.plan_statement",
        "repro.engine.executor:Engine.execute_plan",
    ),
    "index.build": ("repro.index.columnar:ColumnarInstance.from_instance",),
    "algebra": (
        "repro.algebra.projection_prob:ancestor_projection_local",
        "repro.algebra.projection_prob:epsilon_pass",
        "repro.algebra.projection_prob:instance_from_epsilon_pass",
        "repro.algebra.projection_more:descendant_projection_local",
        "repro.algebra.selection:select_local",
        "repro.algebra.product:cartesian_product",
    ),
    "queries": (
        "repro.queries.engine:QueryEngine.point",
        "repro.queries.engine:QueryEngine.exists",
        "repro.queries.engine:QueryEngine.chain",
        "repro.queries.engine:QueryEngine.object_exists",
        "repro.queries.aggregates:expected_match_count",
        "repro.queries.aggregates:match_count_distribution",
        "repro.queries.chain:chain_probability",
    ),
    "storage.save": ("repro.storage.database:Database.save",),
    "storage.drop": ("repro.storage.database:Database.drop",),
    "journal.read": ("repro.storage.journal:Journal.read",),
    "storage.publish": ("repro.io.json_codec:write_payload",),
    "codec.encode": (
        "repro.io.json_codec:dumps",
        "repro.io.json_codec:encode_instance",
    ),
    "codec.decode": (
        "repro.io.json_codec:loads",
        "repro.io.json_codec:decode_instance",
    ),
    "fsync": ("os:fsync",),
}

#: The layers each in-process tier records: all of them in the traced
#: interpreter pass, only the two tier boundaries in the server pass.
TIER_LAYERS = {
    "interp": (),
    "traced": tuple(LAYERS),
    "server": ("tier.server", "pxql"),
    "sharded": (),
}

#: Shard counters summed from ``metrics_snapshot()``.
SHARD_COUNTERS = (
    "index.builds", "db.journal_records", "db.journal_compactions",
    "engine.executions", "engine.objects_scanned",
)

#: What a span counts for the few functions whose result is a size.
_MEASURES = {
    "Journal.read": lambda result: len(result[0]),
    "write_payload": lambda result: int(result),
}

_STATEMENT: contextvars.ContextVar[object] = contextvars.ContextVar(
    "perfbench_statement", default=None)
_PARENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_parent", default=None)


@dataclass(eq=False)
class Span:
    """One call of a patched function."""

    layer: str
    statement: object
    parent: "Span | None"
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    #: Records a ``Journal.read`` returned, characters a
    #: ``write_payload`` published.
    count: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Ledger:
    """Spans in memory, and the patches that record them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._undo: list = []

    def _wrap(self, layer: str, function):
        spans, lock = self.spans, self._lock
        measure = _MEASURES.get(function.__qualname__)

        def traced(*args, **kwargs):
            parent = _PARENT.get()
            span = Span(layer, _STATEMENT.get(), parent, 0)
            token = _PARENT.set(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
                if measure is not None:
                    span.count = measure(result)
                return result
            finally:
                span.end_ns = time.perf_counter_ns()
                _PARENT.reset(token)
                with lock:
                    spans.append(span)
                    if parent is not None:
                        parent.child_ns += span.end_ns - span.start_ns

        traced.__wrapped__ = function
        return traced

    def install(self, layers=LAYERS) -> list[str]:
        """Patch the functions of ``layers``; returns targets not found."""
        missing = []
        for layer in layers:
            for target in LAYERS[layer]:
                if not self._patch(layer, target):
                    missing.append(target)
        return missing

    def _patch(self, layer: str, target: str) -> bool:
        module_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, name = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(name)
        if raw is None:
            return False
        if isinstance(owner, type):
            # A method: patch the class attribute itself.
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            setattr(owner, name, wrapped)
            self._undo.append((setattr, owner, name, raw))
            return True
        wrapped = self._wrap(layer, raw)
        for module in list(sys.modules.values()):
            if module is not owner and not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    self._undo.append((setattr, module, key, raw))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is raw:
                            value[dkey] = wrapped
                            self._undo.append((dict.__setitem__, value, dkey, raw))
        return True

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)


@dataclass
class Pass:
    """One tier's replay: records, elapsed time, and extras."""

    warm: list[Record]
    timed: list[Record]
    elapsed: float
    extra: dict = field(default_factory=dict)


def _in_process(call) -> Execute:
    """An ``execute`` over a tier's ``execute(text) -> Result``."""
    from repro.errors import PXMLError

    def execute(text: str) -> Outcome:
        try:
            result = call(text)
        except PXMLError as exc:
            return Outcome(False, error=f"{type(exc).__name__}: {exc}")
        value = result.value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            value = None
        return Outcome(True, value, result.instance_name)

    return execute


def _labelled(execute, phase: str):
    """Tag every statement's spans with ``(phase, index)``."""
    counter = iter(range(1 << 62))

    def run(text: str) -> Outcome:
        token = _STATEMENT.set((phase, next(counter)))
        try:
            return execute(text)
        finally:
            _STATEMENT.reset(token)

    return run


def _replay(plan: Plan, execute, catalog: Path, seconds=None, sessions=None) -> Pass:
    """Set-up, warm-up and timed phases through one tier."""
    setup = _labelled(execute, "setup")
    for op in plan.setup_ops():
        outcome = setup(op.text)
        if not outcome.ok:
            raise RuntimeError(f"set-up statement {op.text!r} failed: {outcome.error}")
    warm_streams, timed_streams = plan.streams(connections=1)
    warm_runs, _ = drive(_labelled(execute, "warm"), warm_streams)
    warm = warm_runs[0] + plan.advance_journals(_labelled(execute, "warm"), catalog)
    written = _write_bytes()
    timed_runs, elapsed = drive(
        _labelled(execute, "timed"), timed_streams, seconds=seconds, sessions=sessions)
    return Pass(warm, timed_runs[0], elapsed, {"written": _write_bytes() - written})


def _tier_pass(tier: str, workload: str, seed: int, work: Path,
               seconds: float | None, sessions: int | None,
               smoke: bool = False) -> dict:
    """One in-process tier's replay, in a fresh interpreter process
    (see :func:`_spawned`); returns a picklable summary."""
    catalog = work / tier
    shutil.rmtree(catalog, ignore_errors=True)
    plan = Plan.build(workload, seed, work / f"{tier}-fixtures", smoke=smoke)
    # The benchmark's own objects (fixtures, streams) are not the
    # program's: keep them out of its garbage collections.
    gc.freeze()
    ledger = Ledger()
    missing = ledger.install(TIER_LAYERS[tier])
    try:
        if tier in ("interp", "traced"):
            from repro.pxql.interpreter import Interpreter
            from repro.storage.database import Database

            interpreter = Interpreter(Database(catalog))
            result = _replay(plan, _in_process(interpreter.execute), catalog,
                             seconds, sessions)
            result.extra["registry"] = interpreter.metrics.as_dict()
        elif tier == "server":
            from repro.server.server import PXQLServer
            from repro.storage.database import Database

            server = PXQLServer(database=Database(catalog), workers=WORKERS).start()
            try:
                result = _replay(plan, _in_process(server.execute), catalog,
                                 sessions=sessions)
            finally:
                server.stop()
        else:
            from repro.server.shard import ShardedServer

            sharded = ShardedServer(catalog, shards=2, workers_per_shard=WORKERS).start()
            try:
                result = _replay(plan, _in_process(sharded.execute), catalog,
                                 sessions=sessions)
                result.extra["snapshot"] = sharded.metrics_snapshot()
            finally:
                sharded.stop()
    finally:
        ledger.uninstall()
        gc.unfreeze()
    summary = {"pass": result, "missing": missing}
    if tier == "traced":
        summary["ledger"] = ledger_metrics(plan, ledger, result)
    if tier == "server":
        summary["queue_ms"] = [
            span.self_ns / 1e6 for span in ledger.spans
            if span.layer == "tier.server" and _phase(span) == "timed"
        ]
    return summary


def _spawned(*calls: tuple) -> list[dict]:
    """Run each :func:`_tier_pass` call in its own new ``spawn`` process,
    all at once, so every tier starts from the same clean heap."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(calls), mp_context=context) as pool:
        futures = [pool.submit(_tier_pass, *call) for call in calls]
        return [future.result() for future in futures]


def _http_pass(plan: Plan, src: Path, work: Path, sessions: int) -> Pass:
    catalog = work / "http"
    server = start_server(plan, src, catalog, work)
    try:
        execute = http_execute(server.port)
        warm_streams, timed_streams = plan.streams(connections=1)
        warm_runs, _ = drive(execute, warm_streams)
        warm = warm_runs[0] + plan.advance_journals(execute, catalog)
        timed_runs, elapsed = drive(execute, timed_streams, sessions=sessions)
    finally:
        server.stop()
    return Pass(warm, timed_runs[0], elapsed)


def _phase(span: Span) -> str | None:
    return span.statement[0] if isinstance(span.statement, tuple) else None


def _paired_ms(slow: Pass, fast: Pass) -> float:
    """Median per-statement latency difference (ms)."""
    return median([
        (a.latency_s - b.latency_s) * 1000.0 for a, b in zip(slow.timed, fast.timed)
    ])


def _counter_total(snapshot: dict, name: str) -> tuple[float, list[float]]:
    """Sum over shards of ``shardN.<name>``, and the per-shard values."""
    per_shard = []
    for key, value in sorted(snapshot.items()):
        head, _, rest = key.partition(".")
        if head.startswith("shard") and head[5:].isdigit() and rest == name:
            per_shard.append(float(value.get("value", 0.0)))
    return sum(per_shard), per_shard


def _cache_counts(snapshot: dict, prefix: str) -> tuple[float, float]:
    """``(hits, lookups)`` of a shard cache counter family."""
    hits = _counter_total(snapshot, f"{prefix}hits")[0]
    misses = _counter_total(snapshot, f"{prefix}misses")[0]
    return hits, hits + misses


def ledger_metrics(plan: Plan, ledger: Ledger, traced: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced interpreter pass's spans."""
    timed_ops = {("timed", i): r.op for i, r in enumerate(traced.timed)}
    statements = max(len(timed_ops), 1)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    setup_decode_ns = 0
    write_fsyncs = 0
    journal_records_read = 0
    user_bytes = 0
    for span in ledger.spans:
        if span.statement in timed_ops:
            self_ns[span.layer] += span.self_ns
            calls[span.layer] += 1
            if timed_ops[span.statement].cls == WRITE:
                write_fsyncs += span.layer == "fsync"
            if span.layer == "journal.read":
                journal_records_read += span.count
            elif span.layer == "storage.publish":
                user_bytes += span.count
        elif span.layer == "codec.decode" and isinstance(span.statement, tuple) \
                and span.statement[0] == "setup":
            setup_decode_ns += span.self_ns

    def per_op_ms(layer: str) -> float:
        return self_ns[layer] / 1e6 / statements

    writes = sum(r.op.cls == WRITE for r in traced.timed)
    saves = sum(r.op.text.startswith("SAVE ") for r in traced.timed)
    drops = sum(r.op.text.startswith("DROP ") for r in traced.timed)
    client_ns = sum(r.latency_s for r in traced.timed) * 1e9
    return {
        "trace.statements": (float(len(timed_ops)), "count"),
        "pxql.parse_ms": (per_op_ms("pxql.parse"), "ms"),
        "pxql.self_ms": (per_op_ms("pxql"), "ms"),
        "check.statement_ms": (per_op_ms("check"), "ms"),
        "check.dataguide_ms": (per_op_ms("check.dataguide"), "ms"),
        "check.dataguide_builds_per_op": (calls["check.dataguide"] / statements, "count"),
        "check.certify_ms": (per_op_ms("check.certify"), "ms"),
        "engine.self_ms": (per_op_ms("engine"), "ms"),
        "index.build_ms": (per_op_ms("index.build"), "ms"),
        "index.builds_per_op": (calls["index.build"] / statements, "count"),
        "algebra.ms": (per_op_ms("algebra"), "ms"),
        "queries.ms": (per_op_ms("queries"), "ms"),
        "useful_work_share": (
            (self_ns["algebra"] + self_ns["queries"]) / client_ns if client_ns else 0.0,
            "ratio"),
        "storage.writes": (float(writes), "count"),
        "storage.save_ms": (self_ns["storage.save"] / 1e6 / max(saves, 1), "ms"),
        "storage.drop_ms": (self_ns["storage.drop"] / 1e6 / max(drops, 1), "ms"),
        "journal.read_ms": (self_ns["journal.read"] / 1e6 / max(writes, 1), "ms"),
        "journal.records_read_per_write": (journal_records_read / max(writes, 1), "count"),
        "storage.fsyncs_per_write": (write_fsyncs / max(writes, 1), "count"),
        "codec.encode_ms": (per_op_ms("codec.encode"), "ms"),
        "codec.decode_ms": (setup_decode_ns / 1e6, "ms"),
        "journal.compactions": (
            float(traced.extra["registry"].get("db.journal_compactions", {}).get("value", 0)),
            "count"),
        "storage.user_bytes": (float(user_bytes), "bytes"),
        "storage.bytes_written_per_user_byte": (
            traced.extra["written"] / user_bytes if user_bytes else 0.0, "ratio"),
    }


def run(workload: str, seed: int, seconds: float, src: Path, work: Path) -> dict:
    """The traced run; returns the result object to print."""
    plan = Plan.build(workload, seed, work / "fixtures")
    (first,) = _spawned(("interp", workload, seed, work, seconds * FIRST_PASS_SHARE, None))
    sessions = max(len(first["pass"].timed) // SESSION_OPS[workload],
                   MIN_SESSIONS.get(workload, 1))
    # Untraced and traced side by side, on one core each, so a drift in
    # machine speed hits both alike.
    untraced, traced = _spawned(
        ("interp", workload, seed, work, None, sessions),
        ("traced", workload, seed, work, None, sessions))
    baseline = untraced["pass"]
    (served,) = _spawned(("server", workload, seed, work, None, sessions))
    (sharded,) = _spawned(("sharded", workload, seed, work, None, sessions))
    http = _http_pass(plan, src, work, sessions)
    missing = sorted(set(traced["missing"]) | set(served["missing"]))
    if missing:
        print(f"perfbench: layer functions not found: {missing}", file=sys.stderr)

    passes = [traced["pass"], served["pass"], sharded["pass"], http]
    failed = 0
    correct = True
    for one in [first["pass"], baseline, *passes]:
        failed_warm, failed_timed = plan.check(one.warm, one.timed)
        failed += failed_timed
        correct = correct and failed_warm == 0 and failed_timed == 0
    correct = correct and all(len(p.timed) == len(passes[0].timed) for p in passes)

    metrics = dict(traced["ledger"])
    traced_rate = len(traced["pass"].timed) / traced["pass"].elapsed
    metrics["trace.overhead_frac"] = (
        1.0 - traced_rate / (len(baseline.timed) / baseline.elapsed), "ratio")
    metrics["server.queue_ms"] = (median(served["queue_ms"]), "ms")
    metrics["router.overhead_ms"] = (_paired_ms(sharded["pass"], served["pass"]), "ms")
    metrics["http.overhead_ms"] = (_paired_ms(http, sharded["pass"]), "ms")
    metrics["tier.http_ms"] = (
        sum(r.latency_s for r in http.timed) * 1000.0 / len(http.timed), "ms")
    metrics.update(shard_metrics(sharded["pass"].extra["snapshot"]))
    return {
        "correct": correct,
        "attempted": sum(len(p.timed) for p in [first["pass"], baseline, *passes]),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }


def shard_metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Counts and ratios from the shards' registries."""
    metrics = {}
    for name in SHARD_COUNTERS:
        metrics[f"shards.{name}"] = (_counter_total(snapshot, name)[0], "count")
    compactions = _counter_total(snapshot, "db.journal_compactions")[1]
    metrics["shards.db.journal_compactions_min"] = (
        min(compactions) if compactions else 0.0, "count")
    for label, prefix in (("result", "engine.cache.results."),
                          ("disk", "engine.cache.disk_")):
        hits, lookups = _cache_counts(snapshot, prefix)
        metrics[f"engine.{label}_lookups"] = (lookups, "count")
        metrics[f"engine.{label}_hit_ratio"] = (
            hits / lookups if lookups else 0.0, "ratio")
    executions = _counter_total(snapshot, "engine.executions")[0]
    scanned = _counter_total(snapshot, "engine.objects_scanned")[0]
    metrics["engine.objects_scanned_per_op"] = (
        scanned / executions if executions else 0.0, "count")
    return metrics


def _write_bytes() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0
