"""Fraction-based separators: the reference the integer-scaled ones in
``crossopt.lpengine`` are checked against.

These are the original exhaustive separators, which do every subset sum
and slack comparison in exact rationals.  They share the tie-break of
the package versions (largest violation, then smallest witness, then
smallest bitmask or member index), so both must return equal
``SeparationResult`` values on every input.
"""

from crossopt.errors import SizeGuardError
from crossopt.graphs import iter_bits
from crossopt.lpengine import SPANNING_SUBSET_GUARD, SeparationResult
from crossopt.rational import Rat, ZERO


def _subset_sums(n, items, values):
    """sums[vmask] = sum of values for items with both endpoints in vmask.

    items: per-vertex adjacency (vertex -> [(value index, other endpoint)]).
    """
    sums = [ZERO] * (1 << n)
    for vmask in range(1, 1 << n):
        low = vmask & -vmask
        v = low.bit_length() - 1
        prev = vmask ^ low
        acc = sums[prev]
        for idx, other in items[v]:
            if (prev >> other) & 1:
                acc = acc + values[idx]
        sums[vmask] = acc
    return sums


def separate_spanning_tree(x_by_id, graph, fmask):
    """Most-violated spanning-tree row at x, or feasible.

    Checks the total-count equality exactly, then every induced-subset
    row x(E'(U)) <= |U| - |F(U)| - 1 over 2 <= |U| <= n-1.
    """
    n = graph.n
    if n > SPANNING_SUBSET_GUARD:
        raise SizeGuardError(
            f"subset separation is exhaustive and guarded at n <= "
            f"{SPANNING_SUBSET_GUARD}; larger graphs need a min-cut separator"
        )
    adj_x = [[] for _ in range(n)]
    adj_f = [[] for _ in range(n)]
    xs = []
    for eid, val in sorted(x_by_id.items()):
        e = graph.by_id[eid]
        adj_x[e.u].append((len(xs), e.v))
        adj_x[e.v].append((len(xs), e.u))
        xs.append(val)
    fcount = 0
    for eid in iter_bits(fmask):
        e = graph.by_id[eid]
        adj_f[e.u].append((fcount, e.v))
        adj_f[e.v].append((fcount, e.u))
        fcount += 1

    xsum = _subset_sums(n, adj_x, xs)
    fsum = _subset_sums(n, adj_f, [1] * fcount)

    full = graph.full_vmask
    target = Rat(n - fcount - 1)
    if xsum[full] != target:
        return SeparationResult(False, "tree_total", full, xsum[full], target)

    best = None
    for vmask in range(1, full):
        size = vmask.bit_count()
        if size < 2:
            continue
        rhs = Rat(size - fsum[vmask] - 1)
        viol = xsum[vmask] - rhs
        if viol > 0:
            key = (viol, -size, -vmask)
            if best is None or key > best[0]:
                best = (key, vmask, xsum[vmask], rhs)
    if best is None:
        return SeparationResult.ok()
    _, vmask, lhs, rhs = best
    return SeparationResult(False, "subtour", vmask, lhs, rhs)


def separate_contra_polymatroid(x_by_id, fmask, pair):
    """Most-violated covering row x(S & E') >= r_i(S) - |F & S|,
    exhaustive over both functions and all subsets."""
    n = pair.n
    xsum = [ZERO] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        e = low.bit_length() - 1
        xsum[s] = xsum[s ^ low] + x_by_id.get(e, ZERO)
    best = None
    for func_idx, table in ((1, pair.r1), (2, pair.r2)):
        for s in range(1, 1 << n):
            rhs = table[s] - (fmask & s).bit_count()
            if rhs <= 0:
                continue
            viol = Rat(rhs) - xsum[s]
            if viol > 0:
                key = (viol, -s.bit_count(), -s, -func_idx)
                if best is None or key > best[0]:
                    best = (key, func_idx, s, xsum[s], Rat(rhs))
    if best is None:
        return SeparationResult.ok()
    _, func_idx, s, lhs, rhs = best
    return SeparationResult(False, f"cover{func_idx}", s, lhs, rhs)


def separate_lattice(x_by_id, fmask, lat):
    """Most-violated rank row x(rho(S) & E') >= r(S) - |F & rho(S)|;
    ties break by member index."""
    best = None
    for j in range(lat.size):
        rho = lat.rho[j]
        rhs = lat.rank[j] - (fmask & rho).bit_count()
        if rhs <= 0:
            continue
        lhs = ZERO
        for e in iter_bits(rho):
            if e in x_by_id:
                lhs += x_by_id[e]
        viol = Rat(rhs) - lhs
        if viol > 0:
            if best is None or viol > best[0]:
                best = (viol, j, lhs, Rat(rhs))
    if best is None:
        return SeparationResult.ok()
    _, j, lhs, rhs = best
    return SeparationResult(False, "rank", j, lhs, rhs)
