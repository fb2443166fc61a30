"""Cutting-plane engine for the three residual LPs.

A residual LP (ResidualMcstLp, ResidualIntersectionLp or
ResidualLatticeLp) describes one iteration's system, and its ``base()``
method returns what the engine needs: the undecided variable ids, their
costs, the explicitly known rows (the spanning-tree total-count row plus
degree rows, or the crossing bound rows), the separation oracle for the
exponential rows, and the builder that turns a separation witness into
a row.  The engine functions take any of the three and never ask which
one it is.

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
the box, the tight set and the vertex certificate; then comes a full
separation pass.  Any failed check is an
InternalCheckError; nothing falls back to a cold solve.  Steps that
drop or merge bounds remove or relax rows, so the region can grow and
the old vertex need not stay optimal; after those, and after rounding
values >= 1/2 (which changes bounds by fractional amounts, so the new
region is not a face of the old one), the LP is solved again with
solve_to_extreme_point.
"""

from dataclasses import dataclass
from itertools import islice
from operator import add, sub

from .errors import InstanceError, InternalCheckError, SizeGuardError
from .graphs import iter_bits
from .rational import Rat
from .simplex import (
    EQ,
    GE,
    LE,
    STATS,
    LinearProgram,
    Row,
    certify,
    simplex_solve,
    violated,
)

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
    sense: str = None

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
            False, "tree_total", full, Rat(xtotal, den), Rat(n - fcount - 1), EQ
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
    return SeparationResult(False, "subtour", vmask, lhs, Rat(rhs), LE)


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
    return SeparationResult(
        False, f"cover{func_idx}", s, Rat(xsum[s], den), Rat(rhs), GE
    )


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
    return SeparationResult(False, "rank", j, Rat(lhs[j], den), Rat(need[j]), GE)


# -- working LP assembly -----------------------------------------------------


@dataclass(frozen=True)
class ResidualMcstLp:
    """LP data of one spanning-tree iteration: undecided edges, fixed
    edges, and the alive degree rows (node id, vertex set, bound)."""

    graph: object
    eprime: int
    fmask: int
    degree_rows: tuple

    def __post_init__(self):
        if self.eprime & self.fmask:
            raise InstanceError("undecided and fixed edge sets overlap")

    def base(self):
        """(variable ids, objective, base rows, separator, cut builder);
        every row is a tagged Row."""
        graph = self.graph
        var_ids = tuple(iter_bits(self.eprime))
        objective = tuple(graph.by_id[v].cost for v in var_ids)
        n_fixed = self.fmask.bit_count()
        total = Rat(graph.n - n_fixed - 1)
        rows = [Row(self.eprime, EQ, total, ("tree_total", None))]
        for node_id, vset, bound in self.degree_rows:
            dmask = graph.delta_mask(vset, within=self.eprime)
            rows.append(Row(dmask, LE, bound, ("degree", node_id)))

        def cut_row(res):
            vmask = res.witness
            inside = graph.induced_mask(vmask, within=self.eprime)
            f_inside = (graph.induced_mask(vmask) & self.fmask).bit_count()
            rhs = Rat(vmask.bit_count() - f_inside - 1)
            return Row(inside, LE, rhs, ("subtour", vmask))

        def separator(point):
            return separate_spanning_tree(point, graph, self.fmask)

        return var_ids, objective, rows, separator, cut_row


@dataclass(frozen=True)
class ResidualIntersectionLp:
    pair: object
    costs: tuple
    eprime: int
    fmask: int
    bound_rows: tuple  # (constraint index, element mask, residual upper)

    def base(self):
        """(variable ids, objective, base rows, separator, cut builder);
        every row is a tagged Row."""
        var_ids = tuple(iter_bits(self.eprime))
        objective = tuple(self.costs[v] for v in var_ids)
        rows = [
            Row(elems & self.eprime, LE, resid, ("bound_upper", idx))
            for idx, elems, resid in self.bound_rows
        ]

        def cut_row(res):
            func_idx = 1 if res.family == "cover1" else 2
            s = res.witness
            table = self.pair.r1 if func_idx == 1 else self.pair.r2
            rhs = Rat(table[s] - (self.fmask & s).bit_count())
            return Row(s & self.eprime, GE, rhs, (res.family, s))

        def separator(point):
            return separate_contra_polymatroid(point, self.fmask, self.pair)

        return var_ids, objective, rows, separator, cut_row


@dataclass(frozen=True)
class ResidualLatticeLp:
    lat: object
    costs: tuple
    eprime: int
    fmask: int
    bound_rows: tuple  # (constraint index, element mask, lower | None, upper)

    def base(self):
        """(variable ids, objective, base rows, separator, cut builder);
        every row is a tagged Row."""
        var_ids = tuple(iter_bits(self.eprime))
        objective = tuple(self.costs[v] for v in var_ids)
        rows = []
        for idx, elems, lower, upper in self.bound_rows:
            fixed = (elems & self.fmask).bit_count()
            mask = elems & self.eprime
            rows.append(Row(mask, LE, upper - fixed, ("bound_upper", idx)))
            if lower is not None:
                rows.append(Row(mask, GE, lower - fixed, ("bound_lower", idx)))

        def cut_row(res):
            j = res.witness
            rho = self.lat.rho[j]
            rhs = Rat(self.lat.rank[j] - (self.fmask & rho).bit_count())
            return Row(rho & self.eprime, GE, rhs, ("rank", j))

        def separator(point):
            return separate_lattice(point, self.fmask, self.lat)

        return var_ids, objective, rows, separator, cut_row


def solve_to_extreme_point(state):
    """Cutting-plane loop: optimal certified vertex of the full system.

    ``state`` is any object whose ``base()`` returns the five-tuple the
    residual LPs return; the engine solves over exactly those rows and
    that objective.  Raises LpInfeasible if the full system is empty.
    """
    var_ids, objective, rows, separator, cut_row = state.base()
    rows = list(rows)
    seen = {row.tag for row in rows}
    prev_obj = None
    while True:
        point = simplex_solve(LinearProgram(var_ids, objective, tuple(rows)))
        if prev_obj is not None and point.objective < prev_obj:
            raise InternalCheckError(
                "objective decreased while adding cutting planes"
            )
        prev_obj = point.objective
        res = separator(point)
        if res.feasible:
            return point
        row = cut_row(res)
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
        rows.append(row)


def reuse_extreme_point(state, prev):
    """Certified optimal vertex of ``state`` after a fix or delete step,
    taken from the previous extreme point ``prev`` without a solve.

    The working LP is the base rows of ``state`` plus the cut rows that
    were tight at ``prev``, each rebuilt from its tag by the cut builder
    of ``state``.  The restriction of ``prev`` to the undecided
    variables must satisfy that LP, pass full separation and carry a
    vertex certificate; otherwise InternalCheckError.  Optimality is the
    face argument in the module docstring.
    """
    var_ids, objective, rows, separator, cut_row = state.base()
    rows = list(rows)
    for kind, witness in prev.tight_tags():
        if kind in CUT_KINDS:
            rows.append(cut_row(SeparationResult(False, kind, witness)))
    try:
        point = prev.restricted_to(LinearProgram(var_ids, objective, tuple(rows)))
    except KeyError as exc:
        raise InternalCheckError(
            f"undecided variable {exc} has no value at the previous vertex"
        ) from None
    certify(point, InternalCheckError("reused vertex violates the new working LP"))
    if not separator(point).feasible:
        raise InternalCheckError("reused vertex violates a family constraint")
    STATS["reused"] += 1
    return point


def tighten_degree_bounds(forest, graph, eprime, point):
    """Lower every alive bound to the current crossing load x(delta(S))
    at the certified Vertex ``point``, compared in integers.

    Never increases a bound; returns [(node id, old, new)] for changed
    nodes.
    """
    den = point.den
    changes = []
    for nid in forest.alive_ids():
        bound = forest.node(nid).bound
        load = point.load(graph.delta_mask(forest.node(nid).vset, within=eprime))
        excess = load * bound.denominator - bound.numerator * den
        if excess > 0:
            raise InternalCheckError(
                f"crossing load exceeds bound at node {nid}; tightening "
                "would increase the bound"
            )
        if excess:
            new = Rat(load, den)
            changes.append((nid, bound, new))
            forest.set_bound(nid, new)
    return changes

