"""Regenerate ``oracle_pairs.json``, the fixed input list of ``oracle-general``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_oracle_pairs.py

Candidates are drawn from a fixed generator seed: q log-uniform on [0.1, 5],
strictly interior data (the same construction as every other workload) and
an oracle seed.  A candidate is kept only when ``maxent_general_oracle`` at
its default budget meets the 1e-6 residual target, stays within 1e-6 of the
reference entropy, and repeats its evaluation count exactly on a second
call.  Candidates that raise ``BudgetExhausted`` are counted and left out,
so that every operation of the workload succeeds.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import qmaxent as qm

import reference as ref
from workloads import interior_point

GENERATOR_SEED = 9904088
PAIR_COUNT = 12
Q_RANGE = (0.1, 5.0)
TARGET = 1e-6
OUT = Path(__file__).with_name("oracle_pairs.json")


def main() -> int:
    rng = random.Random(GENERATOR_SEED)
    pairs, rejected = [], []
    while len(pairs) < PAIR_COUNT:
        q, b, s2 = interior_point(rng, *Q_RANGE)
        seed = rng.randrange(2**31)
        c = qm.validate_constraints(q, b, s2)
        try:
            first = qm.maxent_general_oracle(c, seed=seed)
            again = qm.maxent_general_oracle(c, seed=seed)
        except qm.BudgetExhausted as exc:
            rejected.append({"q": q, "b": b, "sigma2": s2, "seed": seed, "error": str(exc)})
            continue
        excess = first.achieved_entropy - float(ref.tsallis_entropy(ref.state(q, b, s2), q))
        if (first.constraint_residual <= TARGET and excess <= TARGET
                and first.iterations == again.iterations):
            pairs.append({"q": q, "b": b, "sigma2": s2, "seed": seed,
                          "evals": first.iterations})
        else:
            rejected.append({"q": q, "b": b, "sigma2": s2, "seed": seed,
                             "error": f"residual {first.constraint_residual:.3g}, "
                                      f"excess {excess:.3g}"})
    OUT.write_text(json.dumps({"generator_seed": GENERATOR_SEED, "pairs": pairs,
                               "rejected": rejected}, indent=1) + "\n")
    print(f"{len(pairs)} pairs kept, {len(rejected)} rejected -> {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
