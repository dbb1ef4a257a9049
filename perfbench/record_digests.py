"""Record the ladder's reference digests into reference.json.

    python3 perfbench/record_digests.py

Computes exact sigma_product for every input the ladder workload can draw
(each rung's pool magnitudes with every sign of sin and cos) and stores the
SHA-256 of its canonical p/q entries.  The stored digests are the seed
commit's results; re-record only when a result is meant to change.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as W  # noqa: E402


def main() -> int:
    digests = {}
    for r, rung in enumerate(W.LADDER):
        basis = W.G.enumerate_patterns(W.ladder_weight(*rung))
        for i in range(W.LADDER_REPS[r]):
            ks = W.magnitudes(r, i)
            for signs in itertools.product((1, -1), repeat=6):
                texts = tuple(W.point(k, signs[2 * j], signs[2 * j + 1]) for j, k in enumerate(ks))
                m = W.R.sigma_product(W.triple(texts), basis)
                digests[W.ladder_label(rung, texts)] = W.digest(m)
        print(rung, len(digests), flush=True)
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["ladder_digests"] = dict(sorted(digests.items()))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
