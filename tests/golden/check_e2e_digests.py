"""Compare the end-to-end benchmark's output digests with the pinned ones.

Run from the repository root::

    python3 tests/golden/check_e2e_digests.py

For every workload pinned in ``e2e_digests.json`` it runs
``benchmarks/e2e/run.py --workload W --seed 0 --seconds 0 --trace 0``
and compares the iteration's ``digest[0]`` with the pinned value.  Any
mismatch, or a run that fails, exits 1.  After an intended output
change, edit the JSON file by hand from the ``digest[0]`` lines printed.
"""

import json
import os
import re
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(REPO, "benchmarks", "e2e", "run.py")
GOLDEN = os.path.join(HERE, "e2e_digests.json")

_DIGEST = re.compile(r"^\s*digest\[0\] (\S+)$", re.MULTILINE)


def run_digest(workload: str) -> Optional[str]:
    """``digest[0]`` of one untimed benchmark run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, universal_newlines=True,
        check=False,
    )
    match = _DIGEST.search(proc.stdout)
    if proc.returncode or match is None:
        print(proc.stdout)
        return None
    return match.group(1)


def main() -> int:
    with open(GOLDEN, encoding="utf-8") as handle:
        pinned = json.load(handle)
    problems = []
    for name in sorted(pinned):
        digest = run_digest(name)
        if digest is None:
            problems.append(f"{name}: benchmark run failed")
        elif digest != pinned[name]:
            problems.append(f"{name}: digest {digest}, pinned {pinned[name]}")
        print(f"{name}: {digest}")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
