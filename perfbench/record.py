"""Record reference digests of workload outputs for some seeds.

    python3 perfbench/record.py 1 2 3

For each seed, runs one pass per input variant of ``scale_fronts``, ``scale_images`` and
``cli_cold`` at full size, checks the outputs against the oracles, and stores
one SHA-256 digest per op group in ``perfbench/reference.json``.  Later runs
with a recorded seed fail every op of a group whose digest differs, so a
change that alters outputs (a different witness, image point or byte of CLI
output) shows even where the oracles would accept it.  Seeds whose outputs
fail the oracle checks are not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

RECORDED = ("scale_fronts", "scale_images", "cli_cold")


def record(seed: int) -> dict[str, dict[str, str]]:
    out = {}
    for name in RECORDED:
        wl = workloads.WORKLOADS[name](seed, "full")
        wl.use_recorded = False
        wl.setup()
        out[name] = {}
        for v in range(wl.variants):
            outs = [thunk() for _, thunk in wl.ops(v)]
            if not all(wl.check(v, outs)):
                raise SystemExit(f"record: {name} seed {seed} fails its oracle checks")
            out[name].update(wl.group_digests(outs, v))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    ref = json.loads(workloads.REFERENCE.read_text()) if workloads.REFERENCE.is_file() else {}
    for seed in map(int, argv):
        for name, groups in record(seed).items():
            ref.setdefault(name, {})[str(seed)] = groups
        print(f"recorded seed {seed}", file=sys.stderr)
        workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
