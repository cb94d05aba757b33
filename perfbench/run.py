"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The library is imported from ``src/`` next to this
directory; without it the command fails before measuring anything.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}/repro", file=sys.stderr)
        return 3
    sys.path[:0] = [str(src), str(root)]
    from perfbench import THREAD_VARS

    # BLAS/OpenMP pools are capped before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = str(os.cpu_count() or 1)
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 3
    from perfbench.harness import main as harness_main

    return harness_main(sys.argv[1:], root=root)


if __name__ == "__main__":
    sys.exit(main())
