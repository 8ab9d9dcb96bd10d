"""Must-bite tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every run here is smoke-sized (20k preloaded keys, 2-second phases), so
the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SMOKE = ["--seconds", "2", "--preload", "20000"]
WAL_DELAY = "repro.core.wal:WriteAheadLog.submit_insert=100"


def bench(workload: str, *extra: str, seed: int = 7, delay: str = "",
          size: list[str] = SMOKE) -> tuple[int, dict, dict]:
    """Run the benchmark; return (exit code, printed metrics, result)."""
    env = dict(os.environ, PERFBENCH_DELAY=delay)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), *size, *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env,
    )
    metrics = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, _unit = line.split()
            metrics[name] = float(value)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, metrics, result


@pytest.mark.parametrize("workload", ["ingest", "oltp", "scan", "embedded"])
def test_smoke_run_passes(workload: str) -> None:
    code, metrics, result = bench(workload)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert metrics["err_frac"] == 0.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload,target", [
    ("oltp", "repro.net.client:QuitClient.get"),
    ("embedded", "repro.core.durable:DurableTree.get"),
])
def test_one_wrong_get_fails_the_run(workload: str, target: str,
                                     monkeypatch: pytest.MonkeyPatch,
                                     capsys: pytest.CaptureFixture) -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import run

    module_name, _, qualname = target.partition(":")
    owner_name, attr = qualname.split(".")
    owner = getattr(importlib.import_module(module_name), owner_name)
    original = getattr(owner, attr)
    calls = [0]

    def corrupt_one(self, key, *args, **kwargs):
        value = original(self, key, *args, **kwargs)
        calls[0] += 1
        return value + 1 if calls[0] == 50 else value

    monkeypatch.setattr(owner, attr, corrupt_one)
    code = run.main(["--workload", workload, "--seed", "7", *SMOKE])
    out = capsys.readouterr().out
    assert calls[0] >= 50
    assert code != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_one_wrong_ingest_read_fails_the_run(
        monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture) -> None:
    """The ``get_many`` reads between ``ingest`` rounds are checked."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from repro.net.client import QuitClient

    original = QuitClient.get_many
    calls = [0]

    def corrupt_one(self, keys, *args, **kwargs):
        values = original(self, keys, *args, **kwargs)
        calls[0] += 1
        if calls[0] == 3:
            values[0] = values[0] + 1
        return values

    monkeypatch.setattr(QuitClient, "get_many", corrupt_one)
    code = run.main(["--workload", "ingest", "--seed", "7", *SMOKE])
    out = capsys.readouterr().out
    assert code != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "WRONG ANSWER: get(" in out


def test_wal_delay_moves_embedded_but_not_scan() -> None:
    """A delay in ``WriteAheadLog.submit_insert`` must show in the WAL
    layer metric and in ``embedded`` throughput, and must leave ``scan``
    (which never writes) within its end-to-end bound."""
    _, base, _ = bench("embedded", "--trace", "1")
    _, slow, _ = bench("embedded", "--trace", "1", delay=WAL_DELAY)
    assert slow["wal.submit_us_per_key"] - base["wal.submit_us_per_key"] > 60
    assert slow["keys_s"] < 0.7 * base["keys_s"]

    bound = next(m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "keys_s")
    # Two-second runs of scan differ by up to a quarter on a shared
    # host, so compare medians of three interleaved longer pairs.
    size = ["--seconds", "4", "--preload", "20000"]
    plain, slowed = [], []
    for seed in (7, 8, 9):
        plain.append(bench("scan", seed=seed, size=size)[1]["keys_s"])
        slowed.append(bench("scan", seed=seed, size=size,
                            delay=WAL_DELAY)[1]["keys_s"])
    ratio = statistics.median(slowed) / statistics.median(plain)
    assert abs(ratio - 1) < bound


def test_metric_tables_match_benchmark_json() -> None:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "scan", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unrecoverable_directory_is_a_wrong_answer(tmp_path: Path) -> None:
    """A drained directory whose snapshot is out of key order (what a
    tree with a broken leaf chain writes) must fail the run's answer
    check, not pass or crash it."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads
    from repro import QuITTree
    from repro.core import DurableTree

    tree = QuITTree()
    for key in range(200):
        tree.insert(key, key)
    durable = DurableTree(tree, tmp_path, fsync="none")
    durable.checkpoint()
    durable.close()
    snapshot = tmp_path / "snapshot.quit"
    lines = snapshot.read_text().split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    snapshot.write_text("\n".join(lines))
    oracle = workloads.Oracle({key: key for key in range(200)})
    with pytest.raises(workloads.WrongAnswer, match="does not recover"):
        run.Bench.__new__(run.Bench).verify(tmp_path, oracle)
