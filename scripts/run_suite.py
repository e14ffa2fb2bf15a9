#!/usr/bin/env python3
"""Run the full property-law suite and print the per-law table, with the
seconds of each block (exhaustive, random_oracle, finite_laws, corpus,
gallery) beneath it.

Usage: python scripts/run_suite.py [--seed N] [--quick]
"""

import argparse
import sys

from spectop import SuiteConfig, run_property_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller counts for a fast sanity pass")
    args = parser.parse_args()

    if args.quick:
        config = SuiteConfig(seed=args.seed, exhaustive_max=4,
                             oracle_random_count=100, law_random_count=100,
                             corpus_count=200)
    else:
        config = SuiteConfig(seed=args.seed)

    report = run_property_suite(config)
    print(report.format_table())
    print(f"posets enumerated per size: {report.poset_counts}")
    print(f"elapsed: {report.seconds:.1f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
