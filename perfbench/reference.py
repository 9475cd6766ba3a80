"""Regenerate ``perfbench/reference.json``, the stored canary outputs.

Run from the repository root:

    python3 perfbench/reference.py

Regenerate only when a change is meant to move the canary outputs by more
than ``workloads.REFERENCE_RTOL`` (for example a different training data
split), and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path


def main() -> int:
    import run

    run.pin_blas_threads()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads as wl

    workdir = Path(".bench_work") / "reference"
    try:
        payload = {
            "seed": wl.REFERENCE_SEED,
            "rtol": wl.REFERENCE_RTOL,
            "datagen": wl.datagen_canary(workdir / "datagen"),
            "train": wl.train_canary(workdir / "train"),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
