"""Cutting-plane engine for the three residual LPs.

A Residual describes one iteration's system: its base LP (the undecided
variable ids, their costs, and the explicitly known rows: the
spanning-tree total-count row plus degree rows, or the crossing bound
rows), the separation oracle for the exponential rows, and the builder
that turns a separation witness into a cut row.  Each step rule's state
builds its own Residual from its own rows (McstState.residual,
IntersectionState.residual, LatticeState.residual), binding the
iteration's decided sets, and the engine functions take any of them
and never ask which problem it is.

The working LP starts from the base rows over the box 0 <= x <= 1 (the
box of every simplex.LinearProgram), and repeatedly adds the
most-violated row found by the separation oracle until the vertex
returned by the exact simplex satisfies the full exponential system.
Every base and cut row is a simplex.Row: a variable-id bitmask, a
relation, a rhs and a tag, the one row the simplex takes.  A vertex of
the working relaxation that is feasible for the full system is a
vertex of the full polytope (the full region is contained in the
relaxation), so the result is a certified extreme point with an
optimal objective.

Separation is exhaustive: every vertex subset, every ground subset, or
every lattice member is checked.  Each separator takes the Vertex and
reads its integers X = D * x, so all subset sums and slack comparisons
run on exact Python integers; only the returned witness's lhs and rhs
are built as rationals.  A min-cut separator could replace
separate_spanning_tree behind the same interface if graphs beyond
SPANNING_SUBSET_GUARD vertices were ever needed.

Ties in "most violated" break by smaller witness set, then by the
lexicographically smallest bitmask (for lattices, by member index), so
runs are reproducible.

After a fix (x_e = 1) or delete (x_e = 0) step no LP needs solving:
reuse_extreme_point returns the previous vertex restricted to the
remaining variables.  The previous vertex x is optimal over the old
region P and lies on its face {x in P : x_e = c}; the new residual
region is exactly that face with coordinate e dropped (every row's rhs
absorbs c), and the objective changes by the constant c * cost_e, so
the restriction is an optimal point of the new region.  The cost is
re-checking, not re-solving.  A certified vertex is one simplex.Vertex,
carried once as integers X / D, whose LP rows name themselves by their
tags.  The reused point is checked against the base rows for the new
state plus the previous point's tight cut rows (rebuilt from their
tags, so each rhs reflects the new fixed set) by simplex.certify, the
routine the simplex certifies its own vertices with: row feasibility,
the box, the tight set and the vertex certificate.  Then the
separator is asked again, and it has answered already, in full
coordinates.  Any failed check is an InternalCheckError; nothing falls
back to a cold solve.  Steps that drop or merge bounds remove or relax
rows, so the region can grow and the old vertex need not stay optimal;
after those, and after rounding values >= 1/2 (which changes bounds by
fractional amounts, so the new region is not a face of the old one),
the LP is solved again with solve_to_extreme_point.

In full coordinates a point x of the residual LP is x~: x on the
undecided variables E', 1 on the fixed set F and 0 on the deleted ones.
A fix or delete moves one variable at value c from E' into F (c = 1)
or out of both (c = 0), so the restriction of the old vertex has the
same x~ as the old vertex.  Every row of the exponential families is a
row on x~ whose residual form moves the F part to the rhs, so its
excess, scaled by D, is a function of D * x~ alone:
- subtour row U, x(E'(U)) <= |U| - |F(U)| - 1: the excess
  X(E'(U)) + D*|F(U)| - D*(|U| - 1) is D * (x~(E(U)) - |U| + 1);
- the tree-total row x(E') = n - |F| - 1: X(E') + D*|F| - D*(n - 1) is
  D * (x~(E) - n + 1);
- rank row S, x(rho(S) & E') >= r(S) - |F & rho(S)|: the excess
  X(rho(S) & E') + D*|F & rho(S)| - D*r(S) is D * (x~(rho(S)) - r(S)).
Deleted variables are in neither E' nor F, and so add 0.  Drop and merge
steps edit only base rows.  So the separator's verdict is fixed for the
whole run by x~, which the key (D, the ids at value 1 together with F,
the fractional X by id) determines: the same key is the same x~.
remembering_feasible keeps a run's keys that separation found
feasible.  A reused vertex has the key of the vertex it came from, which
was separated feasible, so its check is a lookup.  A violated result is
never kept: its lhs and rhs are residual numbers and change with F.
"""

from dataclasses import dataclass
from itertools import islice
from operator import add, sub
from typing import NamedTuple

from .errors import InternalCheckError, SizeGuardError
from .graphs import iter_bits
from .rational import Rat
from .simplex import LinearProgram, certify, simplex_solve, violated

# row-tag kinds the separators add; every other tag names a base row
CUT_KINDS = frozenset(("subtour", "cover1", "cover2", "rank"))

SPANNING_SUBSET_GUARD = 20


@dataclass(frozen=True)
class SeparationResult:
    feasible: bool
    family: str = None
    witness: object = None
    lhs: object = None
    rhs: object = None

    @classmethod
    def ok(cls):
        return cls(True)


# -- separation oracles ------------------------------------------------------


def _smallest_witness(values, target, start, stop):
    """Index i in [start, stop) with values[i] == target, smallest
    popcount first, then smallest index; None if there is none."""
    found, size = None, None
    i = start - 1
    try:
        while True:
            i = values.index(target, i + 1, stop)
            if size is None or i.bit_count() < size:
                found, size = i, i.bit_count()
    except ValueError:
        return found


def separate_spanning_tree(point, graph, fmask):
    """Most-violated spanning-tree row at the Vertex point, or feasible.

    Checks the total-count equality exactly, then every induced-subset
    row x(E'(U)) <= |U| - |F(U)| - 1 over 2 <= |U| <= n-1.  With x
    scaled to integers X = D*x, row U is violated iff
    X(E'(U)) + D*|F(U)| - D*|U| > -D; that excess is tabulated for all
    subsets at once, vertex by vertex.
    """
    n = graph.n
    if n > SPANNING_SUBSET_GUARD:
        raise SizeGuardError(
            f"subset separation is exhaustive and guarded at n <= "
            f"{SPANNING_SUBSET_GUARD}; larger graphs need a min-cut separator"
        )
    den = point.den
    # weight[h][u] for u < h: scaled x plus D per fixed edge between u and h
    weight = [[0] * n for _ in range(n)]
    xtotal = 0
    for eid, val in zip(point.var_ids, point.scaled):
        e = graph.by_id[eid]
        weight[max(e.u, e.v)][min(e.u, e.v)] += val
        xtotal += val
    fcount = 0
    for eid in iter_bits(fmask):
        e = graph.by_id[eid]
        weight[max(e.u, e.v)][min(e.u, e.v)] += den
        fcount += 1

    full = graph.full_vmask
    if xtotal != den * (n - fcount - 1):
        return SeparationResult(
            False, "tree_total", full, Rat(xtotal, den), Rat(n - fcount - 1)
        )

    # excess[U] = X(E'(U)) + D*|F(U)| - D*|U|.  Adding vertex h to every
    # U below it adds row[U] = (weight of edges from h into U) - D.
    excess = [0]
    for h in range(n):
        row = [-den]
        for w in weight[h][:h]:
            if w:
                row += [r + w for r in row]
            else:
                row *= 2
        excess += list(map(add, excess, row))
    worst = max(islice(excess, 1, full), default=-den)
    if worst <= -den:
        return SeparationResult.ok()
    vmask = _smallest_witness(excess, worst, 1, full)
    inside = graph.induced_mask(vmask)
    rhs = vmask.bit_count() - (inside & fmask).bit_count() - 1
    lhs = Rat(point.load(inside), den)
    return SeparationResult(False, "subtour", vmask, lhs, Rat(rhs))


def separate_contra_polymatroid(point, fmask, pair):
    """Most-violated covering row x(S & E') >= r_i(S) - |F & S| at the
    Vertex point, exhaustive over both functions and all subsets, in its
    integers X = D * x."""
    n = pair.n
    den = point.den
    scaled = dict(zip(point.var_ids, point.scaled))
    xsum, fixed = [0], [0]
    for e in range(n):
        w = scaled.get(e, 0)
        xsum += [s + w for s in xsum] if w else xsum
        fixed += [f + 1 for f in fixed] if (fmask >> e) & 1 else fixed
    best = None
    for func_idx, table in ((1, pair.r1), (2, pair.r2)):
        viol = [
            den * r - x if r > 0 else 0
            for r, x in zip(map(sub, table, fixed), xsum)
        ]
        worst = max(islice(viol, 1, None), default=0)
        if worst <= 0:
            continue
        s = _smallest_witness(viol, worst, 1, len(viol))
        key = (worst, -s.bit_count(), -s, -func_idx)
        if best is None or key > best[0]:
            best = (key, func_idx, s)
    if best is None:
        return SeparationResult.ok()
    _, func_idx, s = best
    table = pair.r1 if func_idx == 1 else pair.r2
    rhs = table[s] - fixed[s]
    return SeparationResult(False, f"cover{func_idx}", s, Rat(xsum[s], den), Rat(rhs))


def separate_lattice(point, fmask, lat):
    """Most-violated rank row x(rho(S) & E') >= r(S) - |F & rho(S)| at
    the Vertex point, in its integers X = D * x; ties break by member
    index."""
    den = point.den
    scaled = dict(zip(point.var_ids, point.scaled))
    lhs = [0] * lat.size
    for base in range(0, lat.ground_n, 8):
        # sums[b]: scaled x over the elements base + i for the bits i of b
        sums = [0]
        for e in range(base, base + 8):
            w = scaled.get(e, 0)
            sums += [s + w for s in sums] if w else sums
        lhs = [acc + sums[(rho >> base) & 255] for acc, rho in zip(lhs, lat.rho)]
    need = [rank - (fmask & rho).bit_count() for rank, rho in zip(lat.rank, lat.rho)]
    viol = [den * r - x if r > 0 else 0 for r, x in zip(need, lhs)]
    worst = max(viol, default=0)
    if worst <= 0:
        return SeparationResult.ok()
    j = viol.index(worst)
    return SeparationResult(False, "rank", j, Rat(lhs[j], den), Rat(need[j]))


def remembering_feasible(separate, fmask, feasible):
    """``separate`` (a separator bound to the fixed set ``fmask``) that
    first looks the point up in ``feasible``, a run's set of full-
    coordinate keys already found feasible, and adds the key of every
    point it finds feasible.  The key (D, the mask of ids at value 1,
    counting fmask, and the fractional X by id) fixes the point in full
    coordinates, where the verdict depends on nothing else (see the
    module docstring).  A violated result is never kept: its lhs and
    rhs are in the coordinates of this fmask."""

    def check(point):
        key = (point.den, point.ones | fmask, tuple(point.fractional.items()))
        if key in feasible:
            return SeparationResult.ok()
        result = separate(point)
        if result.feasible:
            feasible.add(key)
        return result

    return check


# -- working LP assembly -----------------------------------------------------


class Residual(NamedTuple):
    """One iteration's residual LP as the engine takes it: ``lp``, the
    base simplex.LinearProgram (the undecided variables, their costs
    and the explicitly known rows); ``separate(point)``, the
    SeparationResult of the exponential family at a Vertex; and
    ``cut_row(kind, witness)``, the tagged Row of that family's cut.
    The two functions bind the iteration's decided sets, so a Residual
    stays what it was when the state is edited later."""

    lp: LinearProgram
    separate: object
    cut_row: object


def solve_to_extreme_point(residual):
    """Cutting-plane loop: optimal certified vertex of the full system.

    Solves the Residual's base LP, then that LP plus each most-violated
    cut its separator finds, until the vertex is feasible for the full
    system.  Raises LpInfeasible if the full system is empty.
    """
    lp = residual.lp
    seen = {row.tag for row in lp.rows}
    prev_obj = None
    while True:
        point = simplex_solve(lp)
        if prev_obj is not None and point.objective < prev_obj:
            raise InternalCheckError(
                "objective decreased while adding cutting planes"
            )
        prev_obj = point.objective
        res = residual.separate(point)
        if res.feasible:
            return point
        row = residual.cut_row(res.family, res.witness)
        tag = row.tag
        if tag in seen:
            raise InternalCheckError(f"separator repeated row {tag}")
        seen.add(tag)
        # re-verify the reported violation exactly against the new row
        excess = row.excess(point)
        lhs = row.rhs + Rat(excess, point.den * row.rhs.denominator)
        if not violated(row.rel, excess) or lhs != res.lhs or row.rhs != res.rhs:
            raise InternalCheckError(
                f"separator violation for {tag} failed exact re-verification"
            )
        lp = LinearProgram(lp.var_ids, lp.objective, lp.rows + (row,))


def reuse_extreme_point(residual, prev):
    """Certified optimal vertex of the Residual after a fix or delete
    step, taken from the previous extreme point ``prev`` without a
    solve.

    The working LP is the Residual's base LP plus the cut rows that were
    tight at ``prev``, each rebuilt from its tag by the Residual's
    cut_row.  The restriction of ``prev`` to the undecided variables
    must satisfy that LP, pass the Residual's separator (which finds it
    among the run's feasible keys; see the module docstring) and carry
    a vertex certificate; otherwise InternalCheckError.  Optimality is
    the face argument in the module docstring.
    """
    lp = residual.lp
    cuts = tuple(
        residual.cut_row(kind, witness)
        for kind, witness in prev.tight_tags()
        if kind in CUT_KINDS
    )
    if cuts:
        lp = LinearProgram(lp.var_ids, lp.objective, lp.rows + cuts)
    try:
        point = prev.restricted_to(lp)
    except KeyError as exc:
        raise InternalCheckError(
            f"undecided variable {exc} has no value at the previous vertex"
        ) from None
    certify(point, InternalCheckError("reused vertex violates the new working LP"))
    if not residual.separate(point).feasible:
        raise InternalCheckError("reused vertex violates a family constraint")
    return point
