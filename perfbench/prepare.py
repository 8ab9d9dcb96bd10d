"""Build the preloaded snapshot directory for one seed.

Usage::

    python3 perfbench/prepare.py SEED PRELOAD OUT_DIR

Inserts the first PRELOAD keys of the seed's BoDS stream into a QuIT
tree (leaf capacity 64), checkpoints it into OUT_DIR and exits.  It
runs in its own process so the load generator's peak RSS never includes
the build.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    from repro import QuITTree, TreeConfig
    from repro.core import DurableTree

    import workloads

    seed, preload, out = int(argv[0]), int(argv[1]), Path(argv[2])
    keys = workloads.stream_keys(seed)[:preload]
    tree = QuITTree(TreeConfig(leaf_capacity=workloads.LEAF_CAPACITY,
                               internal_capacity=workloads.LEAF_CAPACITY))
    for key in keys:
        tree.insert(key, key)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    durable = DurableTree(tree, tmp, fsync="none")
    durable.checkpoint()
    durable.close()
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
