"""The machine-speed reference kernel, run as a subprocess between jobs.

    python3 -S perfbench/kernel.py

It counts the dominating sets of the cycle C14 in pure Python and exits
1 if the count is wrong.  Like a job it starts an interpreter and then
computes, so its time moves with the machine's speed the way a job's
does; see ``scaled`` in run.py.  It imports nothing, not even the
package under test, so no change to the package can move it.
"""

import sys

N = 14
DOMINATING_SETS = 5071  # of C14


def count_dominating_sets(n: int) -> int:
    closed = [1 << v | 1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]
    full = (1 << n) - 1
    count = 0
    for subset in range(1 << n):
        covered, rest = 0, subset
        while rest:
            low = rest & -rest
            covered |= closed[low.bit_length() - 1]
            rest ^= low
        count += covered == full
    return count


if __name__ == "__main__":
    sys.exit(count_dominating_sets(N) != DOMINATING_SETS)
