"""Benchmark entry point: `python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`, run from the root of a source checkout.

It measures the slosim sources in `src/` of that checkout and nothing else,
so it refuses to run where they are missing.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "slosim" / "__init__.py").is_file():
        sys.exit(f"error: no slosim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import slosim
    if Path(slosim.__file__).resolve().parent != SRC / "slosim":
        sys.exit(f"error: imported slosim from {slosim.__file__}, not {SRC}")
    import bench
    sys.exit(bench.main())
