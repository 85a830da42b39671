#!/usr/bin/env python3
"""Cross-check the two singularity tests on a batch of generated toric pairs.

For each generated pair (cone, boundary) the script runs the direct klt test
and the canonical test on the index-one cover, and reports whether the two
verdicts agree. They should agree on every input; any disagreement is printed
with the offending rays.
"""

import argparse
import sys
import time

from logcentre.corpus import random_standard_pairs
from logcentre.errors import ResourceLimit
from logcentre.toric import cover_correspondence_check, klt_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--verbose", action="store_true", help="print one line per pair")
    args = parser.parse_args()

    start = time.perf_counter()
    pairs = random_standard_pairs(seed=args.seed, count=args.count)
    generated = time.perf_counter() - start

    agreements = disagreements = skipped = 0
    start = time.perf_counter()
    for k, pair in enumerate(pairs):
        try:
            agreed = cover_correspondence_check(pair)
        except ResourceLimit as exc:
            skipped += 1
            if args.verbose:
                print(f"pair {k:3d}: skipped ({exc})")
            continue
        if agreed:
            agreements += 1
        else:
            disagreements += 1
        if args.verbose or not agreed:
            verdict = klt_check(pair).is_klt
            mark = "agree" if agreed else "DISAGREE"
            print(f"pair {k:3d}: klt={verdict} {mark} rays={pair.cone.rays}")
    checked = time.perf_counter() - start

    print(
        f"{len(pairs)} pairs generated in {generated:.3f}s, "
        f"checked in {checked:.3f}s: "
        f"{agreements} agree, {disagreements} disagree, {skipped} skipped"
    )
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
