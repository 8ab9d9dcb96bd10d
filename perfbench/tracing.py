"""Spans recorded from outside the program, and the per-layer report.

The benchmark never edits ``src/``.  It measures a layer by replacing
the layer's public functions with timing wrappers before the program
runs (:func:`install_server_layers` in the served process,
:func:`install_client_layer` in the load generator).  Each call records
one span: name, start, end, span id, parent span id and, where the call
carries it, the wire request id.  Spans live in flat ``array('q')``
columns (56 bytes each) and are written once, at exit.

The parent comes from a :class:`contextvars.ContextVar`.  It behaves as
a per-thread stack for threads and as a per-task stack for asyncio
tasks, which matters because the server interleaves requests on one
loop thread.  Work handed to an executor thread starts without a
parent; the one such wait that matters (the commit-ticket wait) is
timed where the server awaits it instead.

All times are ``time.perf_counter_ns()``, which reads CLOCK_MONOTONIC on
Linux and is therefore comparable between the server and the generator.
"""

from __future__ import annotations

import array
import contextvars
import functools
import gc
import inspect
import itertools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

_COLUMNS = ("name", "start", "end", "id", "parent", "rid", "n")


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array.array("q") for c in _COLUMNS}
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self.extra: dict[str, Any] = {}
        #: Called by :meth:`dump` first, to add end-of-run state to
        #: :attr:`extra`.
        self.before_dump: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: int, end: int, *, parent: int = 0,
               rid: int = 0, n: int = 0) -> int:
        """Record a span whose bounds the caller measured itself."""
        sid = next(self._ids)
        self._append(self.name_id(name), start, end, sid, parent, rid, n)
        return sid

    def call(self, name: str, fn: Callable, *args: Any) -> tuple[Any, int]:
        """Call ``fn`` as span ``name`` (the parent of every span inside
        it) and return ``(result, nanoseconds)``."""
        parent = self.current.get()
        sid = next(self._ids)
        token = self.current.set(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.current.reset(token)
            self._append(self.name_id(name), t0, t1, sid, parent, 0, 0)
        return result, t1 - t0

    def _append(self, nid: int, start: int, end: int, sid: int,
                parent: int, rid: int, n: int) -> None:
        c = self.cols
        c["name"].append(nid)
        c["start"].append(start)
        c["end"].append(end)
        c["id"].append(sid)
        c["parent"].append(parent)
        c["rid"].append(rid)
        c["n"].append(n)

    def wrap(self, fn: Callable, name: str, *,
             rid: Optional[Callable[[tuple, Any], int]] = None,
             n: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``rid(args, result)`` and ``n(args, result)`` extract the wire
        request id and a work amount (keys or bytes) from the call.
        Coroutine functions get an awaiting wrapper and generator
        functions a wrapper that spans the whole iteration.
        """
        nid = self.name_id(name)
        current = self.current
        ids = self._ids
        append = self._append
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                sid = next(ids)
                token = current.set(sid)
                t0 = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    current.reset(token)
                    append(nid, t0, t1, sid, parent,
                           rid(args, result) if rid else 0,
                           n(args, result) if n else 0)
            return awrapper

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gwrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                sid = next(ids)
                t0 = clock()
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    append(nid, t0, clock(), sid, parent, 0, items)
            return gwrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                current.reset(token)
                append(nid, t0, t1, sid, parent,
                       rid(args, result) if rid else 0,
                       n(args, result) if n else 0)
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **extract: Any) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **extract))

    def track_gc(self) -> None:
        """Record each cyclic-GC pass as a parentless ``py.gc`` span."""
        started = [0]

        def callback(phase: str, info: dict) -> None:
            if phase == "start":
                started[0] = time.perf_counter_ns()
            elif started[0]:
                self.record("py.gc", started[0], time.perf_counter_ns())
                started[0] = 0

        gc.callbacks.append(callback)

    def dump(self, path: Path) -> None:
        """Write the spans as ``<path>`` (header) + ``<path>.bin``."""
        for hook in self.before_dump:
            hook()
        path = Path(path)
        count = len(self.cols["id"])
        with open(path.with_suffix(".bin"), "wb") as fh:
            for c in _COLUMNS:
                self.cols[c].tofile(fh)
        path.write_text(json.dumps(
            {"names": self.names, "count": count, "columns": _COLUMNS,
             "extra": self.extra}
        ))

    def spans(self) -> "Spans":
        return Spans(self.names, self.cols, self.extra)


class Spans:
    """Read-only view over recorded span columns."""

    def __init__(self, names: list[str], cols: dict[str, array.array],
                 extra: dict[str, Any]) -> None:
        self.names = names
        self.cols = cols
        self.extra = extra

    @classmethod
    def load(cls, path: Path) -> "Spans":
        path = Path(path)
        head = json.loads(path.read_text())
        count = head["count"]
        cols = {}
        with open(path.with_suffix(".bin"), "rb") as fh:
            for c in head["columns"]:
                cols[c] = array.array("q")
                cols[c].fromfile(fh, count)
        return cls(head["names"], cols, head["extra"])

    def rows(self, window: Optional[tuple[int, int]] = None) -> list[tuple]:
        """``(name, start, end, id, parent, rid, n)`` tuples, keeping
        only spans that end inside ``window`` when one is given."""
        c = self.cols
        names = self.names
        out = []
        for nid, s, e, sid, par, rid, n in zip(
            c["name"], c["start"], c["end"], c["id"], c["parent"],
            c["rid"], c["n"],
        ):
            if window is not None and not window[0] <= e <= window[1]:
                continue
            out.append((names[nid], s, e, sid, par, rid, n))
        return out


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _one(args: tuple, result: Any) -> int:
    return 1


def _len_arg1(args: tuple, result: Any) -> int:
    return len(args[1])


def _len_result(args: tuple, result: Any) -> int:
    return len(result) if result is not None else 0


def install_storage_layers(rec: Recorder, tree_class: type) -> None:
    """Wrap the durable facade, the WAL, the tree and persistence.

    Used in the served process and in the embedded generator alike.
    """
    from repro.concurrency.locks import RWLock
    from repro.core import durable as durable_mod
    from repro.core.durable import DurableTree
    from repro.core.wal import WriteAheadLog
    from repro.testing import iofaults

    for attr in ("submit_insert", "submit_delete", "submit_many"):
        rec.patch(DurableTree, attr, "durable.submit")
    rec.patch(RWLock, "acquire_read", "durable.gate")
    rec.patch(WriteAheadLog, "submit_insert", "wal.submit", n=_one)
    rec.patch(WriteAheadLog, "submit_delete", "wal.submit", n=_one)
    rec.patch(WriteAheadLog, "submit_insert_many", "wal.submit",
              n=_len_arg1)
    rec.patch(iofaults, "fsync", "wal.fsync")
    rec.patch(tree_class, "insert", "tree.insert", n=_one)
    rec.patch(tree_class, "insert_many", "tree.insert", n=_len_arg1)
    rec.patch(tree_class, "get", "tree.get", n=_one)
    rec.patch(tree_class, "get_many", "tree.get", n=_len_result)
    rec.patch(tree_class, "range_iter", "tree.range")
    # durable.py imported these by name; patch the names it calls.
    rec.patch(durable_mod, "load_tree", "persist.load")
    rec.patch(durable_mod, "save_tree", "persist.save")
    rec.track_gc()


def install_server_layers(rec: Recorder, tree_class: type) -> None:
    """Wrap every layer the served process runs, wire to tree."""
    from repro.core.durable import DurableTree
    from repro.net import protocol
    from repro.net.admission import AdmissionController
    from repro.net.server import QuitServer

    install_storage_layers(rec, tree_class)
    rec.patch(protocol, "decode_request", "protocol.decode",
              rid=lambda a, r: r[1] if r else 0,
              n=lambda a, r: len(a[0]) + 4)
    rec.patch(protocol, "encode_response", "protocol.encode",
              rid=lambda a, r: a[1], n=_len_result)
    rec.patch(AdmissionController, "admit", "admission.admit")
    rec.patch(QuitServer, "_serve_frame", "server.request")
    rec.patch(QuitServer, "_await_ticket", "server.ticket_wait")

    # The generator brackets its timed phase with STATUS requests; each
    # one snapshots the tree and WAL counters so their deltas cover
    # exactly that phase.  The facade is caught at construction.
    holder: dict[str, Any] = {}
    init = DurableTree.__init__

    def capture_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        holder["durable"] = self

    DurableTree.__init__ = capture_init  # type: ignore[method-assign]
    status_payload = QuitServer._status_payload
    snapshots = rec.extra.setdefault("counters", [])

    def counting_status(self: Any) -> dict:
        snapshots.append(counters(holder["durable"]))
        return status_payload(self)

    QuitServer._status_payload = counting_status  # type: ignore[method-assign]

    def leaf_fill() -> None:
        durable = holder.get("durable")
        if durable is not None:
            rec.extra["leaf_fill"] = durable.tree.occupancy().avg_occupancy

    rec.before_dump.append(leaf_fill)


def install_client_layer(rec: Recorder) -> None:
    """Wrap the generator's side of ``repro.net.client``."""
    from repro.net import protocol
    from repro.net.client import QuitClient

    rec.patch(QuitClient, "request", "client.request")
    rec.patch(QuitClient, "_exchange", "client.attempt")
    rec.patch(protocol, "encode_request", "client.encode",
              rid=lambda a, r: a[1], n=_len_result)
    rec.patch(protocol, "decode_response", "client.decode",
              rid=lambda a, r: r[1] if r else 0,
              n=lambda a, r: len(a[0]) + 4)


def counters(durable: Any) -> dict[str, float]:
    """Tree and WAL counters that per-layer ratios are taken from."""
    stats = durable.stats
    return {
        "inserts": stats.inserts,
        "fast_inserts": stats.fast_inserts,
        "wal_batches": stats.wal_group_batches,
        "wal_records": stats.wal_group_batch_records,
    }


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------

def _union_within(intervals: Iterable[tuple[int, int]], lo: int,
                  hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _Tree:
    """Parent/child index over one process's spans."""

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self.by_id = {r[3]: r for r in rows}
        self.children: dict[int, list[tuple]] = {}
        for r in rows:
            self.children.setdefault(r[4], []).append(r)

    def named(self, prefix: str) -> list[tuple]:
        return [r for r in self.rows if r[0].startswith(prefix)]

    def outermost(self, prefix: str) -> list[tuple]:
        """Spans named ``prefix*`` whose parent is not of the same layer
        (insert_many calling insert must not count twice)."""
        layer = prefix.split(".")[0] + "."
        out = []
        for r in self.named(prefix):
            parent = self.by_id.get(r[4])
            if parent is None or not parent[0].startswith(layer):
                out.append(r)
        return out

    def descendants(self, row: tuple) -> list[tuple]:
        out, stack = [], [row[3]]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                out.append(child)
                stack.append(child[3])
        return out


def _median_us(durations: list[int]) -> float:
    return statistics.median(durations) / 1e3 if durations else 0.0


def _sum_ns(rows: list[tuple]) -> int:
    return sum(r[2] - r[1] for r in rows)


CONTAINERS = ("client.request", "client.attempt")


def layer_report(gen: Spans, server: Optional[Spans],
                 window: tuple[int, int], keys: int) -> dict[str, float]:
    """Per-layer metrics from one traced timed phase.

    ``gen`` holds the generator's spans (its measured requests as
    ``gen.*`` plus the client layer, or the whole storage stack for the
    embedded workload); ``server`` the served process's, or ``None``.
    ``keys`` is the number of keys acknowledged or returned.
    """
    g = _Tree(gen.rows(window))
    s = _Tree(server.rows(window)) if server is not None else _Tree([])
    # In the embedded workload the storage stack runs in the generator.
    storage = s if server is not None else g
    per_key = 1.0 / max(1, keys)
    out: dict[str, float] = {}

    codec = g.named("client.encode") + g.named("client.decode")
    out["client.codec_us_per_key"] = _sum_ns(codec) / 1e3 * per_key
    out["client.retries"] = float(
        len(g.named("client.attempt")) - len(g.named("client.request"))
    )
    dec, enc = s.named("protocol.decode"), s.named("protocol.encode")
    out["protocol.decode_us_per_key"] = _sum_ns(dec) / 1e3 * per_key
    out["protocol.encode_us_per_key"] = _sum_ns(enc) / 1e3 * per_key
    out["protocol.bytes_per_key"] = sum(r[6] for r in dec + enc) * per_key
    out["admission.wait_us"] = _median_us(
        [r[2] - r[1] for r in s.named("admission.admit")]
    )

    # server.self_us: decode start to response-encode end, minus every
    # span beneath the request.
    selfs = []
    for req in s.named("server.request"):
        below = s.descendants(req)
        starts = [r[1] for r in below if r[0] == "protocol.decode"]
        ends = [r[2] for r in below if r[0] == "protocol.encode"]
        if not starts or not ends:
            continue
        lo, hi = min(starts), max(ends)
        covered = _union_within(((r[1], r[2]) for r in below), lo, hi)
        selfs.append(hi - lo - covered)
    out["server.self_us"] = _median_us(selfs)
    out["server.ticket_wait_us"] = _median_us(
        [r[2] - r[1] for r in s.named("server.ticket_wait")]
    )

    durable_selfs = []
    for sub in storage.named("durable.submit"):
        inner = [r for r in storage.children.get(sub[3], ())
                 if r[0].startswith(("wal.", "tree."))]
        durable_selfs.append(sub[2] - sub[1] - _sum_ns(inner))
    out["durable.self_us"] = _median_us(durable_selfs)
    out["durable.gate_us"] = _median_us(
        [r[2] - r[1] for r in storage.named("durable.gate")]
    )

    wal_sub = storage.named("wal.submit")
    out["wal.submit_us_per_key"] = (
        _sum_ns(wal_sub) / 1e3 / max(1, sum(r[6] for r in wal_sub))
    )
    out["wal.fsync_ms"] = _median_us(
        [r[2] - r[1] for r in storage.named("wal.fsync")]
    ) / 1e3

    for metric, prefix in (("tree.insert_us_per_key", "tree.insert"),
                           ("tree.get_us_per_key", "tree.get"),
                           ("tree.range_us_per_key", "tree.range")):
        rows = storage.outermost(prefix)
        out[metric] = _sum_ns(rows) / 1e3 / max(1, sum(r[6] for r in rows))

    gc_rows = storage.named("py.gc")
    out["py.gc_ms"] = _sum_ns(gc_rows) / 1e6

    # Coverage: how much of each measured request some span explains.
    # Container spans (the client's request/attempt loops) wait on the
    # server and would cover everything, so they do not count.
    server_root: dict[int, tuple] = {}
    for req in s.named("server.request"):
        for r in s.descendants(req):
            if r[5]:
                server_root[r[5]] = req
    # A pipelined frame's span is stamped from outside the client call,
    # so its codec spans are found by request id, not by parentage.
    by_rid: dict[int, list[tuple]] = {}
    for r in g.rows:
        if r[5] and not r[0].startswith("gen."):
            by_rid.setdefault(r[5], []).append(r)
    total = covered = 0
    for req in g.named("gen."):
        below = [r for r in g.descendants(req) if r[0] not in CONTAINERS]
        if req[5]:
            below += by_rid.get(req[5], [])
        intervals = [(r[1], r[2]) for r in below]
        for rid in {r[5] for r in below if r[5]}:
            root = server_root.get(rid)
            if root is not None:
                intervals.append((root[1], root[2]))
        total += req[2] - req[1]
        covered += _union_within(intervals, req[1], req[2])
    out["trace.unaccounted_frac"] = (total - covered) / total if total else 0.0
    return out
