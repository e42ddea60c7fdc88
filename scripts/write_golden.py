#!/usr/bin/env python3
"""Rewrite the golden outcome record, tests/golden_outcomes.json.

Runs the seed-2018 study grid and the outage-71 robustness suite on the
bundled 118-bus case and prints one line per scenario field that moved
beyond its tolerance (see tests/golden.py).  It writes the new record only
when a scenario moved or is missing, or when there is no record yet;
otherwise it prints "no scenario moved" and leaves the record byte for byte
as it is, so roundoff below the tolerances never rewrites it.

    PYTHONPATH=src python scripts/write_golden.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden  # noqa: E402
from gridfdi import bundled_case  # noqa: E402
from gridfdi.harness import (  # noqa: E402
    NetworkCache,
    outage_robustness_suite,
    run_experiment,
    study_118_suite,
)


def main() -> int:
    cache = NetworkCache()
    record = golden.build_record({
        "grid": run_experiment(study_118_suite(bundled_case()), cache).outcomes,
        "outage71": run_experiment(
            outage_robustness_suite(bundled_case(), 71), cache).outcomes,
    })
    print("\n".join(golden.update(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
