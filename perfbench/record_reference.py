"""Regenerate reference.json: the report bodies the preset jobs must match.

Run from the repository root at a commit whose reports are known good:

    PYTHONPATH=src python3 perfbench/record_reference.py

Every preset of the digit-onb and presets-mixed workloads runs at the
default seed and at four more seeds.  The file keeps the default-seed body
and verdict of each preset, plus the leaf paths whose values changed with
the seed: on a non-default seed those are the only fields not compared.
"""

from __future__ import annotations

import json
import sys

import workloads

SEEDS = (workloads.DEFAULT_SEED, 2, 3, 4, 5)


def main():
    from expsys.presets import PRESETS

    names = workloads.WORKLOADS["digit-onb"] + workloads.WORKLOADS["presets-mixed"]
    presets = {}
    for name in names:
        bodies = []
        for seed in SEEDS:
            PRESETS[name]["config"]["seed"] = seed
            code, text = workloads.run_preset(name)
            bodies.append(workloads.without_meta(json.loads(text)))
            print(f"{name} seed={seed} exit={code}", file=sys.stderr)
        leaves = [dict(workloads.leaves(b)) for b in bodies]
        keys = set().union(*leaves)
        seeded = sorted(k for k in keys if len({json.dumps(lv.get(k)) for lv in leaves}) > 1)
        verdicts = {workloads.verdict_of(b["result"]) for b in bodies}
        if len(verdicts) > 1:
            sys.exit(f"{name}: verdict depends on the seed: {sorted(map(str, verdicts))}")
        presets[name] = {
            "verdict": workloads.verdict_of(bodies[0]["result"]),
            "seeded": seeded,
            "body": bodies[0],
        }
    out = {"seed": workloads.DEFAULT_SEED, "seeds_compared": list(SEEDS), "presets": presets}
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
