"""Start ``quit-serve serve``, optionally with per-layer span tracing.

Usage::

    python3 perfbench/launch.py [--spans FILE] serve DIR [quit-serve args]

Without ``--spans`` this only calls ``repro.net.cli.main``, so an
untraced server pays the same start-up cost as a plain ``quit-serve``.
With it, timing wrappers go onto every layer first and the spans are
written to FILE when the server exits after its graceful drain.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    import delays
    from repro.bench.harness import VARIANTS
    from repro.net import cli

    delays.install_from_env()
    if argv[:1] == ["--spans"]:
        import tracing

        spans_path = Path(argv[1])
        argv = argv[2:]
        rec = tracing.Recorder()
        tracing.install_server_layers(rec, VARIANTS["QuIT"])
        atexit.register(rec.dump, spans_path)
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
