"""Record the reference outputs the benchmark's gates compare against.

Run from the repository root, with BLAS pinned as the benchmark pins it:

    OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py

It runs ``qbat`` from ``src/`` and rewrites ``bench/reference/*.json``.  Only
rerun it when a change to the program is meant to change these outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
DRIVE_SAMPLE_EVERY = 1024


def run(cli, argv, out: Path) -> str:
    code = cli.main([*argv, "--output", str(out)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.read_text(encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qbat import cli

    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        header, rows = workloads.parse_csv(run(cli, workloads.DRIVE_ARGV, out))
        refs["drive"] = {
            "argv": list(workloads.DRIVE_ARGV), "header": header, "n_rows": len(rows),
            "sampled_rows": {str(k): [float(v) for v in rows[k]]
                             for k in range(0, len(rows), DRIVE_SAMPLE_EVERY)}}
        refs["sweep"] = {"argv": list(workloads.SWEEP_ARGV),
                         "output": run(cli, workloads.SWEEP_ARGV, out)}
        refs["calls"] = {" ".join(argv): run(cli, argv, out) for argv in workloads.catalogue()}

    target = Path(__file__).resolve().parent / "reference"
    target.mkdir(exist_ok=True)
    for name, data in refs.items():
        with open(target / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
