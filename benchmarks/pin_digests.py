"""Regenerate benchmarks/digests.json from the code in this checkout.

For every workload and each seed in [0, --seeds), runs one replication
and pins the sha256 of its `*_records.jsonl`. run.py then counts every
record of a replication whose file differs from the pin as failed.

    python3 benchmarks/pin_digests.py --seeds 32

Re-pin only for a change that is meant to alter the records, and say
why in CHANGES.md.
"""

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    pkg = run.Package()
    pins = {}
    out_root = run.ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        pins[name] = {}
        for seed in range(args.seeds):
            out_dir = Path(tempfile.mkdtemp(dir=out_root))
            try:
                runner = run.Runner(pkg, workload, seed, out_dir, pinned=None)
                runner.replicate()
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if runner.check.failed:
                raise SystemExit(f"{name} seed {seed}: records fail the checks; not pinned")
            pins[name][str(seed)] = runner.check.digests[0]
            print(name, seed, pins[name][str(seed)], flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
