"""Reference symmetric state match by trying every query permutation.

Test-only oracle for :func:`rankcomp.dynamics._symmetric_match`.  For each
player permutation that sends a's mover to b's mover (in order), it tries
all m! query permutations (in order) and returns the first pair under
which every emphasis of a equals the mapped emphasis of b.  The cost is
(n-1)! * m! comparisons of whole profiles, so keep n and m small.
"""

from itertools import permutations

from rankcomp.numeric import numbers_equal


def symmetric_match_oracle(state_a, state_b):
    profile_a, mover_a = state_a
    profile_b, mover_b = state_b
    n = len(profile_a)
    m = len(profile_a[0].emphases)
    others_a = [i for i in range(n) if i != mover_a]
    others_b = [i for i in range(n) if i != mover_b]
    for rest in permutations(others_b):
        pperm = [0] * n
        pperm[mover_a] = mover_b
        for src, dst in zip(others_a, rest):
            pperm[src] = dst
        for qperm in permutations(range(m)):
            if all(
                numbers_equal(profile_a[k].emphases[q], profile_b[pperm[k]].emphases[qperm[q]])
                for k in range(n)
                for q in range(m)
            ):
                return tuple(pperm), tuple(qperm)
    return None
