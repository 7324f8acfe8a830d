"""Fixed reference work used to gauge the machine's current speed.

The benchmark runs this script as a child process next to each timed
command and divides the command's user-mode CPU time by this script's, so a
machine that slows down or speeds up between runs moves both alike. Like
rankdiff's ingest, it builds a dict keyed by (id, day, group) tuples from
string-formatted ids, then looks every key up again in random order and
sorts the keys. Its working set, about 60 MB, is of the order of a ``run``'s
(85-100 MB), so contention for caches and memory slows it much as it slows
rankdiff; a smaller reference job followed the commands' speed less closely. It depends
on nothing in the repository, so it stays the same on every commit.
"""

import random

N = 200000


def main() -> None:
    rnd = random.Random(1)
    keys = [(f"m{rnd.randrange(10**6):06d}", rnd.randrange(400), rnd.randrange(4))
            for _ in range(N)]
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    order = list(range(N))
    rnd.shuffle(order)
    total = 0
    for i in order:
        total += counts[keys[i]]
    keys.sort()
    assert total >= N


if __name__ == "__main__":
    main()
