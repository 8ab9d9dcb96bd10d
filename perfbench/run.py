"""Benchmark of the served and embedded QuIT stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ingest,oltp,scan,embedded} \\
        --seed N --seconds S --trace {0,1}

``ingest``, ``oltp`` and ``scan`` drive a ``quit-serve serve`` process
(wire protocol, admission, asyncio server, durable facade, WAL with
``fsync="group"``, QuIT tree, snapshot persistence) from one closed-loop
client connection; ``embedded`` drives ``DurableTree`` in-process.  See
``workloads.py`` for the traffic and ``design.json`` for why each
workload exists, which layer metric should move which end-to-end one,
and why ``oltp`` runs but is left out of ``BENCHMARK.json``.

Every run starts from a fresh copy of the seed's preloaded snapshot
(built once per seed, untimed, into ``.perfbench_work/``), checks every
answer against a dict oracle, drains, recovers the directory and checks
that every acknowledged write survived.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer split, the tracing overhead and the
share of request time no span covers.  Each metric is printed as
``metric NAME VALUE UNIT``; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

PRELOAD = 100_000
#: Start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WARMUP_S = 0.5
FSYNC = "group"
WORKLOADS = ("ingest", "oltp", "scan", "embedded")

END_TO_END = {
    "keys_s": "1/s",
    "p50_ms": "ms",
    "get_p50_ms": "ms",
    "setup_s": "s",
    "rss_bytes_per_key": "B",
    "disk_bytes_per_key": "B",
}
#: Read in the untraced run too, but not bounded: printed, not judged.
UNTRACED_EXTRA = {
    "drain_s": "s",
    "drain_us_per_key": "us",
    "rss_mb": "MB",
    "p99_ms": "ms",
    "p99_samples": "count",
    "err_frac": "1",
    "client.cpu_us_per_key": "us",
    "server.cpu_us_per_key": "us",
    "admission.sheds": "count",
}
PER_LAYER = {
    "client.codec_us_per_key": "us",
    "client.retries": "count",
    "client.cpu_us_per_key": "us",
    "protocol.decode_us_per_key": "us",
    "protocol.encode_us_per_key": "us",
    "protocol.bytes_per_key": "B",
    "admission.wait_us": "us",
    "admission.sheds": "count",
    "server.self_us": "us",
    "server.ticket_wait_us": "us",
    "server.cpu_us_per_key": "us",
    "durable.self_us": "us",
    "durable.gate_us": "us",
    "wal.submit_us_per_key": "us",
    "wal.fsync_ms": "ms",
    "wal.records_per_fsync": "count",
    "wal.bytes_per_key": "B",
    "tree.insert_us_per_key": "us",
    "tree.fast_insert_frac": "1",
    "tree.get_us_per_key": "us",
    "tree.range_us_per_key": "us",
    "tree.leaf_fill": "1",
    "persist.load_s": "s",
    "persist.save_s": "s",
    "persist.bytes_per_key": "B",
    "py.gc_ms": "ms",
    "trace.unaccounted_frac": "1",
    "trace.overhead_frac": "1",
    "p99_ms": "ms",
    "err_frac": "1",
}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _proc_status(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field, in bytes."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(field)


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _median(values: Sequence[int], scale: float) -> float:
    return statistics.median(values) / scale if values else 0.0


def _p99(values: Sequence[int], scale: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] / scale


class Served:
    """One ``quit-serve serve`` process started through ``launch.py``."""

    def __init__(self, data: Path, probe: int,
                 spans: Optional[Path] = None) -> None:
        from repro.net.client import QuitClient

        cmd = [sys.executable, str(HERE / "launch.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["serve", str(data), "--port", "0", "--fsync", FSYNC]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            address = self._address()
            host, _, port = address.rpartition(":")
            self.client = QuitClient(host, int(port), deadline=30.0)
            if self.client.get(probe) != probe:
                raise RuntimeError(f"probe key {probe} not served")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _address(self) -> str:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("serving ") and " on " in line:
                return line.rsplit(" on ", 1)[1].strip()
        raise RuntimeError(
            f"server exited with {self.proc.wait()} before serving"
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def drain(self) -> float:
        """SIGTERM, then wait for the graceful drain to exit."""
        self.client.close()
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.communicate(timeout=150)
        elapsed = time.perf_counter() - t0
        if self.proc.returncode != 0:
            raise RuntimeError(f"drain exited {self.proc.returncode}")
        return elapsed

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=30)


class Bench:
    """One benchmark invocation: a seed's stream and snapshot."""

    def __init__(self, seed: int, seconds: float, preload: int) -> None:
        import workloads

        self.seed = seed
        self.seconds = seconds
        self.preload = preload
        self.keys = workloads.stream_keys(seed)
        self.snapshot = self._snapshot()
        self._runs = 0

    def _snapshot(self) -> Path:
        path = WORK / "snapshots" / f"seed{self.seed}-n{self.preload}"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            subprocess.run(
                [sys.executable, str(HERE / "prepare.py"), str(self.seed),
                 str(self.preload), str(path)],
                check=True, timeout=600,
            )
        return path

    def fresh_dir(self) -> Path:
        self._runs += 1
        path = WORK / "runs" / f"{os.getpid()}-{self._runs}"
        shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(self.snapshot, path)
        return path

    def driver(self, rec: Any, failures: tuple) -> Any:
        import workloads

        preload = self.keys[:self.preload]
        driver = workloads.Driver(
            stream=workloads.Stream(self.keys, self.preload),
            oracle=workloads.Oracle(dict(zip(preload, preload))),
            rng=random.Random(self.seed),
            failures=failures,
            rec=rec,
            preload_keys=sorted(preload),
        )
        # The generator's own key lists and oracle are large; keep them
        # out of every later collection so its GC pauses do not depend
        # on them.  Objects the program creates afterwards (the embedded
        # tree among them) are collected as usual.
        gc.collect()
        gc.freeze()
        return driver

    def verify(self, data: Path, oracle: Any) -> None:
        """Recover the drained directory (untimed) and compare it with
        every acknowledged write."""
        from repro import QuITTree
        from repro.core import DurableTree

        import workloads

        try:
            durable, _ = DurableTree.recover(data, QuITTree, fsync="none")
        except ValueError as exc:  # PersistenceError, WALError, bulk_load
            raise workloads.WrongAnswer(
                f"the drained directory does not recover: {exc}"
            ) from exc
        try:
            oracle.check_state(dict(durable.items()))
        finally:
            durable.close()


def run_network(bench: Bench, workload: str, repeats: int,
                spans: Optional[Path]) -> dict[str, Any]:
    import tracing
    from repro.net.client import NetError

    rec = None
    if spans is not None:
        rec = tracing.Recorder()
        tracing.install_client_layer(rec)
    driver = bench.driver(rec, (NetError, OSError))
    loop = getattr(driver, workload)
    probe = driver.preload_keys[0]
    setups = []
    srv = None
    data = bench.snapshot
    try:
        for i in range(repeats):
            if srv is not None:
                srv.stop()
                shutil.rmtree(data)
            data = bench.fresh_dir()
            srv = Served(data, probe, spans if i == repeats - 1 else None)
            setups.append(srv.setup_s)
        client = srv.client
        loop(client, WARMUP_S)
        client.status()
        cpu0 = (_own_cpu_s(), _proc_cpu_s(srv.pid))
        ph = loop(client, bench.seconds)
        cpu1 = (_own_cpu_s(), _proc_cpu_s(srv.pid))
        status = client.status()
        if workload == "ingest":
            driver.ingest_check(client)
        peak_rss = _proc_status(srv.pid, "VmHWM")
        wal_bytes = _dir_bytes(data / "wal")
        drain_s = srv.drain()
    finally:
        if srv is not None:
            srv.stop()
    out = _common(bench, driver, ph, data, setups, drain_s, peak_rss,
                  wal_bytes)
    out["client.cpu_us_per_key"] = (cpu1[0] - cpu0[0]) * 1e6 / ph.keys
    out["server.cpu_us_per_key"] = (cpu1[1] - cpu0[1]) * 1e6 / ph.keys
    out["admission.sheds"] = status["stats"]["net_sheds"]
    if rec is not None:
        rec.dump(spans.with_name(spans.name.replace("server", "generator")))
        server = tracing.Spans.load(spans)
        counters = server.extra["counters"]
        out.update(_layers(rec, server, ph, counters[0], counters[-1]))
        out["tree.leaf_fill"] = server.extra["leaf_fill"]
    shutil.rmtree(data)
    return out


def run_embedded(bench: Bench, repeats: int,
                 traced: bool) -> dict[str, Any]:
    import tracing
    from repro import QuITTree
    from repro.core import DurableTree
    from repro.core.health import ReadOnlyError
    from repro.core.wal import WALError

    rec = None
    if traced:
        rec = tracing.Recorder()
        tracing.install_storage_layers(rec, QuITTree)
    driver = bench.driver(rec, (ReadOnlyError, WALError, OSError))
    probe = driver.preload_keys[0]
    rss0 = _proc_status(os.getpid(), "VmRSS")
    setups = []
    durable = None
    data = bench.snapshot
    try:
        for _ in range(repeats):
            if durable is not None:
                durable.close()
                durable = None
                # The tree's parent links are cycles: free the discarded
                # start-up's tree now, not at some later collection that
                # would put two trees into the peak RSS.
                gc.collect()
                shutil.rmtree(data)
            data = bench.fresh_dir()
            t0 = time.perf_counter()
            durable, _ = DurableTree.recover(data, QuITTree, fsync=FSYNC)
            if durable.get(probe) != probe:
                raise RuntimeError(f"probe key {probe} not served")
            setups.append(time.perf_counter() - t0)
        driver.embedded(durable, WARMUP_S)
        before = tracing.counters(durable)
        cpu0 = _own_cpu_s()
        ph = driver.embedded(durable, bench.seconds)
        cpu1 = _own_cpu_s()
        after = tracing.counters(durable)
        driver.embedded_check(durable)
        peak_rss = _proc_status(os.getpid(), "VmHWM") - rss0
        leaf_fill = durable.tree.occupancy().avg_occupancy
        wal_bytes = _dir_bytes(data / "wal")
        t0 = time.perf_counter()
        durable.checkpoint()
        durable.close()
        drain_s = time.perf_counter() - t0
        durable = None
    finally:
        if durable is not None:
            durable.close()
    out = _common(bench, driver, ph, data, setups, drain_s, peak_rss,
                  wal_bytes)
    out["client.cpu_us_per_key"] = (cpu1 - cpu0) * 1e6 / ph.keys
    out["server.cpu_us_per_key"] = 0.0
    out["admission.sheds"] = 0
    if rec is not None:
        rec.dump(WORK / "spans" / f"embedded-seed{bench.seed}-generator.json")
        out.update(_layers(rec, None, ph, before, after))
        out["tree.leaf_fill"] = leaf_fill
    shutil.rmtree(data)
    return out


def _common(bench: Bench, driver: Any, ph: Any, data: Path,
            setups: list[float], drain_s: float, peak_rss: int,
            wal_bytes: int) -> dict[str, Any]:
    # Drain time and memory grow with the keys a run wrote, and the
    # write workloads write more the faster they run; per live key they
    # do not penalise a faster run.
    live = len(driver.oracle)
    bench.verify(data, driver.oracle)
    return {
        "phase": ph,
        "keys_s": ph.keys / ph.seconds,
        "p50_ms": _median(ph.primary_ns, 1e6),
        "get_p50_ms": _median(ph.get_ns, 1e6),
        "setup_s": statistics.median(setups),
        "drain_s": drain_s,
        "drain_us_per_key": drain_s * 1e6 / live,
        "rss_mb": peak_rss / 2**20,
        "rss_bytes_per_key": peak_rss / live,
        "disk_bytes_per_key": _dir_bytes(data) / live,
        "p99_ms": _p99(ph.primary_ns, 1e6),
        "p99_samples": len(ph.primary_ns),
        "err_frac": ph.failed / max(1, ph.attempted),
        "wal.bytes_per_key": wal_bytes / max(1, driver.writes),
        "persist.bytes_per_key": (data / "snapshot.quit").stat().st_size / live,
    }


def _layers(rec: Any, server: Any, ph: Any, before: dict,
            after: dict) -> dict[str, float]:
    import tracing

    window = (ph.start, ph.end)
    out = tracing.layer_report(rec.spans(), server, window, ph.keys)
    inserts = after["inserts"] - before["inserts"]
    batches = after["wal_batches"] - before["wal_batches"]
    out["tree.fast_insert_frac"] = (
        (after["fast_inserts"] - before["fast_inserts"]) / inserts
        if inserts else 0.0
    )
    out["wal.records_per_fsync"] = (
        (after["wal_records"] - before["wal_records"]) / batches
        if batches else 0.0
    )
    storage = (server or rec.spans()).rows()
    loads = [r for r in storage if r[0] == "persist.load" and r[2] < ph.start]
    saves = [r for r in storage if r[0] == "persist.save" and r[1] > ph.end]
    out["persist.load_s"] = (loads[-1][2] - loads[-1][1]) / 1e9 if loads else 0.0
    out["persist.save_s"] = (saves[0][2] - saves[0][1]) / 1e9 if saves else 0.0
    return out


def measure(bench: Bench, workload: str, repeats: int,
            traced: bool) -> dict[str, Any]:
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    if workload == "embedded":
        return run_embedded(bench, repeats, traced)
    spans = None
    if traced:
        spans = WORK / "spans" / f"{workload}-seed{bench.seed}-server.json"
    return run_network(bench, workload, repeats, spans)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--preload", type=int, default=PRELOAD,
        help="preloaded keys (default: %(default)s; smaller for smoke runs)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import delays
    import workloads

    delays.install_from_env()
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    bench = Bench(args.seed, args.seconds, args.preload)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        plain = measure(bench, args.workload, repeats, traced=False)
        runs = [plain]
        report = {k: plain[k] for k in {**END_TO_END, **UNTRACED_EXTRA}}
        units = {**END_TO_END, **UNTRACED_EXTRA}
        judged = END_TO_END
        if args.trace:
            traced = measure(bench, args.workload, 1, traced=True)
            runs.append(traced)
            report.update({k: traced[k] for k in PER_LAYER if k in traced})
            report["p99_ms"] = plain["p99_ms"]
            report["err_frac"] = plain["err_frac"]
            report["trace.overhead_frac"] = 1 - traced["keys_s"] / plain["keys_s"]
            units = {**END_TO_END, **PER_LAYER}
            judged = PER_LAYER
    except workloads.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for name, unit in units.items():
        print(f"metric {name} {report[name]!r} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["phase"].attempted for r in runs),
        "failed": sum(r["phase"].failed for r in runs),
        "metrics": {k: {"value": report[k], "unit": u}
                    for k, u in judged.items()},
    }))
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds through the finally blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
