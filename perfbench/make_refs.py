"""Regenerate refs.json: the reference answers for the default and held-out seeds.

    python3 perfbench/make_refs.py

Every answer is first checked the way an unreferenced seed is checked (free
ranks against the rational oracle, certificate flags all true, exit code 0),
so a reference never records an answer the oracle disagrees with.  Run it
only at a commit whose answers are trusted: later runs compare against these
exact groups, torsion included, and exact stdout bytes.
"""
from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    refs = {}
    for seed in workloads.REFERENCE_SEEDS:
        refs[str(seed)] = {}
        for name, make in workloads.WORKLOADS.items():
            batch = make(seed, use_refs=False)
            try:
                answers = [op.run() for op in batch.ops]
                for i, answer in enumerate(answers):
                    problem = batch.check(i, answer)
                    if problem is not None:
                        print(f"seed {seed} {batch.ops[i].label}: {problem}", file=sys.stderr)
                        return 1
            finally:
                batch.close()
            if name == "hyper-cli":
                answers = [stdout for _, stdout in answers]
            refs[str(seed)][name] = answers
            print(f"seed {seed} {name}: {len(answers)} answers checked", flush=True)
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
