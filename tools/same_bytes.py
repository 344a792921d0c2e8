"""One hash over what every distinct benchmark op returns and writes.

    python3 tools/same_bytes.py 5 23

Run from the root of a source checkout. For each seed given, it builds
the equivalence, transport and symbolic workloads of bench/workloads.py
(imported, never edited) in a temporary directory, runs each distinct op
of their cycles once, in cycle order, and feeds one SHA-256 with the
op's label, the repr of its result and the bytes of its output file. It
prints the number of ops and the hex digest. Two trees that print the
same digest for the same seeds gave every op the same result and the
same output bytes. Input paths are relative to the temporary directory,
so they read the same from any checkout.
"""
import contextlib
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402 - needs the paths above

WORKLOADS = ("equivalence", "transport", "symbolic")


def digest(seeds: list[int]) -> tuple[int, str]:
    sha = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for seed in seeds:
            for name in WORKLOADS:
                workload = workloads.build(name, seed, os.path.join(name, str(seed)))
                done = set()
                for op in workload.cycle:
                    if op.label in done:
                        continue
                    done.add(op.label)
                    result = op.call()
                    sha.update(f"{name} {seed} {op.label}\n{result!r}\n".encode())
                    if op.output is not None:
                        sha.update(op.output(result))
                    count += 1
    return count, sha.hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    count, hexdigest = digest([int(seed) for seed in argv])
    print(f"{count} ops, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
