"""Frozen ``Fraction`` copies of the Theorem 5 / Theorem 6 oracles.

These are the exact-rational implementations the library ran before
its oracles moved onto the integer grid, kept verbatim in substance as
*test oracles only*: the differential tests in
``test_grid_oracles.py`` assert that the grid implementations return
the same values, DP cell counts, per-round configuration counts and
witness share rows.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from repro.core.instance import Instance
from repro.core.numerics import ONE, ZERO, frac_sum
from repro.core.schedule import Schedule

_BOTH, _ONLY1, _ONLY2 = "both", "only1", "only2"
_FIN1_SURPLUS2, _FIN2_SURPLUS1 = "fin1", "fin2"
_ADV1, _ADV2 = "adv1", "adv2"


# ----------------------------------------------------------------------
# Theorem 5: the m=2 dynamic program
# ----------------------------------------------------------------------
def _successors(i1, i2, t, r, a1, a2):
    n1, n2 = len(a1), len(a2)

    def nxt1(i):
        return a1[i] if i < n1 else ZERO

    def nxt2(i):
        return a2[i] if i < n2 else ZERO

    out = []
    if i1 >= n1 and i2 >= n2:
        return out
    if i1 >= n1:
        out.append((i1, i2 + 1, t + 1, nxt2(i2 + 1), _ADV2))
    elif i2 >= n2:
        out.append((i1 + 1, i2, t + 1, nxt1(i1 + 1), _ADV1))
    elif r <= ONE:
        out.append((i1 + 1, i2 + 1, t + 1, nxt1(i1 + 1) + nxt2(i2 + 1), _BOTH))
        out.append((i1, i2 + 1, t + 1, nxt2(i2 + 1), _ONLY2))
        out.append((i1 + 1, i2, t + 1, nxt1(i1 + 1), _ONLY1))
    else:
        out.append((i1, i2 + 1, t + 1, (r - ONE) + nxt2(i2 + 1), _FIN2_SURPLUS1))
        out.append((i1 + 1, i2, t + 1, nxt1(i1 + 1) + (r - ONE), _FIN1_SURPLUS2))
    return out


def fraction_opt_two(instance: Instance) -> tuple[int, Schedule, int]:
    """Table DP: ``(makespan, witness schedule, cells expanded)``."""
    a1, a2 = list(instance.requirements(0)), list(instance.requirements(1))
    n1, n2 = len(a1), len(a2)
    best = {(0, 0): (0, a1[0] + a2[0])}
    parent = {}
    expanded = 0
    for level in range(0, n1 + n2):
        for i1 in range(max(0, level - n2), min(level, n1) + 1):
            i2 = level - i1
            key = (i1, i2)
            if key not in best:
                continue
            expanded += 1
            t, r = best[key]
            for s1, s2, st, sr, move in _successors(i1, i2, t, r, a1, a2):
                old = best.get((s1, s2))
                if old is None or (st, sr) < old:
                    best[(s1, s2)] = (st, sr)
                    parent[(s1, s2)] = (i1, i2, move)
    schedule = _reconstruct(instance, a1, a2, parent, (n1, n2))
    return best[(n1, n2)][0], schedule, expanded


def fraction_opt_two_pq(instance: Instance) -> tuple[int, Schedule, int]:
    """Priority-queue DP: ``(makespan, witness schedule, cells expanded)``."""
    a1, a2 = list(instance.requirements(0)), list(instance.requirements(1))
    n1, n2 = len(a1), len(a2)
    best = {(0, 0): (0, a1[0] + a2[0])}
    parent = {}
    heap = [(0, 0, best[(0, 0)][1], 0, 0)]
    settled = set()
    expanded = 0
    while heap:
        _, t, r, i1, i2 = heapq.heappop(heap)
        key = (i1, i2)
        if key in settled or best.get(key) != (t, r):
            continue
        settled.add(key)
        expanded += 1
        if key == (n1, n2):
            return t, _reconstruct(instance, a1, a2, parent, key), expanded
        for s1, s2, st, sr, move in _successors(i1, i2, t, r, a1, a2):
            skey = (s1, s2)
            if skey in settled:
                continue
            old = best.get(skey)
            if old is None or (st, sr) < old:
                best[skey] = (st, sr)
                parent[skey] = (i1, i2, move)
                heapq.heappush(heap, (s1 + s2, st, sr, s1, s2))
    raise AssertionError("priority queue exhausted")


def _reconstruct(instance, a1, a2, parent, final):
    n1, n2 = len(a1), len(a2)
    path = []
    key = final
    while key != (0, 0):
        pi1, pi2, move = parent[key]
        path.append(move)
        key = (pi1, pi2)
    path.reverse()

    rows = []
    i1 = i2 = 0
    v1, v2 = a1[0], a2[0]
    for move in path:
        if move in (_BOTH, _ONLY1, _ONLY2):
            rows.append((v1, v2))
            if move == _ONLY2:
                v1 = ZERO
            elif move == _ONLY1:
                v2 = ZERO
        elif move == _FIN2_SURPLUS1:
            give1 = ONE - v2
            rows.append((give1, v2))
            v1 -= give1
        elif move == _FIN1_SURPLUS2:
            give2 = ONE - v1
            rows.append((v1, give2))
            v2 -= give2
        elif move == _ADV1:
            rows.append((v1, ZERO))
        else:
            rows.append((ZERO, v2))
        if move in (_BOTH, _ONLY1, _FIN1_SURPLUS2, _ADV1):
            i1 += 1
            v1 = a1[i1] if i1 < n1 else ZERO
        if move in (_BOTH, _ONLY2, _FIN2_SURPLUS1, _ADV2):
            i2 += 1
            v2 = a2[i2] if i2 < n2 else ZERO
    return Schedule(instance, rows, validate=True, trim=True)


# ----------------------------------------------------------------------
# Theorem 6: the fixed-m configuration search
# ----------------------------------------------------------------------
def fraction_opt_general(instance: Instance) -> tuple[int, Schedule, list[int]]:
    """Configuration search: ``(makespan, witness schedule, stats)``."""
    m = instance.num_processors

    def work(i, d):
        return instance.job(i, d).work if d < instance.num_jobs(i) else ZERO

    def spent(key):
        done, rem = key
        return tuple(work(i, done[i]) - rem[i] for i in range(m))

    def successors(key):
        done, rem = key
        active = [i for i in range(m) if done[i] < instance.num_jobs(i)]
        if not active:
            return []

        def advance(finish, partial, c):
            new_done, new_rem = list(done), list(rem)
            for i in finish:
                new_done[i] += 1
                new_rem[i] = work(i, new_done[i])
            if partial is not None:
                new_rem[partial] = rem[partial] - c
            return (tuple(new_done), tuple(new_rem)), (finish, partial, c)

        if frac_sum(rem[i] for i in active) <= ONE:
            return [advance(tuple(active), None, ZERO)]
        forced = tuple(i for i in active if rem[i] == ZERO)
        optional = [i for i in active if rem[i] > ZERO]
        out = []
        for size in range(0, len(optional) + 1):
            for chosen in combinations(optional, size):
                finish = forced + chosen
                if not finish:
                    continue
                used = frac_sum(rem[i] for i in chosen)
                if used > ONE:
                    continue
                c = ONE - used
                if c == ZERO:
                    out.append(advance(finish, None, ZERO))
                    continue
                for p in optional:
                    if p not in chosen and rem[p] > c:
                        out.append(advance(finish, p, c))
        return out

    def dominates(a, b):
        if any(x < y for x, y in zip(a[0], b[0])):
            return False
        return all(x >= y for x, y in zip(spent(a), spent(b)))

    initial_done = (0,) * m
    current = [(initial_done, tuple(work(i, 0) for i in range(m)))]
    final_done = tuple(instance.num_jobs(i) for i in range(m))
    parent = {}
    stats = [1]
    t = 0
    while True:
        for key in current:
            if key[0] == final_done:
                return t, _reconstruct_general(instance, parent, key), stats
        nxt = {}
        for key in current:
            for skey, move in successors(key):
                if skey not in nxt:
                    nxt[skey] = (key, move)
        keys = list(nxt)
        alive = [True] * len(keys)
        for a_idx in range(len(keys)):
            if not alive[a_idx]:
                continue
            for b_idx in range(len(keys)):
                if a_idx != b_idx and alive[b_idx] and dominates(keys[a_idx], keys[b_idx]):
                    alive[b_idx] = False
        kept = [k for k, ok in zip(keys, alive) if ok]
        for k in kept:
            parent[k] = nxt[k]
        stats.append(len(kept))
        current = kept
        t += 1


def _reconstruct_general(instance, parent, final_key):
    moves = []
    key = final_key
    while key in parent:
        pkey, move = parent[key]
        moves.append((pkey, move))
        key = pkey
    moves.reverse()
    rows = []
    for (_, prem), (finish, partial, c) in moves:
        row = [ZERO] * instance.num_processors
        for i in finish:
            row[i] = prem[i]
        if partial is not None:
            row[partial] = c
        rows.append(row)
    return Schedule(instance, rows, validate=True, trim=True)

