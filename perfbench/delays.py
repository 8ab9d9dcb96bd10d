"""Inject a fixed CPU delay into one function, for the benchmark's own
must-bite tests.

``PERFBENCH_DELAY=repro.core.wal:WriteAheadLog.submit_insert=50`` makes
every call of that method busy-wait 50 microseconds first, in the load
generator and in a served process alike (the server inherits the
environment).  A busy wait, not ``time.sleep``, so the cost is CPU held
under the interpreter lock, like real work in the layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable

ENV = "PERFBENCH_DELAY"


def delayed(fn: Callable, micros: float) -> Callable:
    ns = int(micros * 1000)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        until = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < until:
            pass
        return fn(*args, **kwargs)

    return wrapper


def install_from_env() -> None:
    spec = os.environ.get(ENV, "")
    for item in filter(None, spec.split(",")):
        target, _, micros = item.rpartition("=")
        module_name, _, qualname = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, attr, delayed(getattr(owner, attr), float(micros)))
