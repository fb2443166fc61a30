"""Cutting-plane engine for the three residual LPs.

A residual LP (ResidualMcstLp, ResidualIntersectionLp or
ResidualLatticeLp) describes one iteration's system, and its ``base()``
method returns what the engine needs: the undecided variable ids, their
costs, the explicitly known rows (the spanning-tree total-count row plus
degree rows, or the crossing bound rows), the separation oracle for the
exponential rows, and the builder that turns a separation witness into
a row.  The engine functions take any of the three and never ask which
one it is.

The working LP starts from the base rows with the 0 <= x <= 1 box, and
repeatedly adds the most-violated row found by the separation oracle
until the vertex returned by the exact simplex satisfies the full
exponential system.  A vertex of the working
relaxation that is feasible for the full system is a vertex of the full
polytope (the full region is contained in the relaxation), so the
result is a certified extreme point with an optimal objective.

Separation is exhaustive: every vertex subset, every ground subset, or
every lattice member is checked.  Each separator first scales x by the
lcm D of its denominators, so all subset sums and slack comparisons run
on exact Python integers; only the returned witness's lhs and rhs are
built as rationals.  A min-cut separator could replace
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
rebuilding the working LP and re-checking, not re-solving: the base
rows for the new state plus the previous point's tight cut rows
(rebuilt from their tags, so each rhs reflects the new fixed set), one
feasibility pass over them, a full separation pass and a vertex
certificate.  Any failed check is an InternalCheckError; nothing falls
back to a cold solve.  Steps that drop or merge bounds remove or relax
rows, so the region can grow and the old vertex need not stay optimal;
after those, and after rounding values >= 1/2 (which changes bounds by
fractional amounts, so the new region is not a face of the old one),
the LP is solved again with solve_to_extreme_point.
"""

from dataclasses import dataclass
from itertools import islice
from operator import add, sub

from .errors import InstanceError, InternalCheckError, SizeGuardError
from .graphs import iter_bits
from .rational import Rat, ZERO, ONE
from .simplex import (
    EQ,
    GE,
    LE,
    STATS,
    BasicSolution,
    Constraint,
    LinearProgram,
    LpUnbounded,
    row_status,
    scale_values,
    simplex_solve,
    verify_vertex_certificate,
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


def _scale(x_by_id):
    """(D, {id: x*D}) with D the lcm of the denominators of the values,
    so every scaled value is an integer and x(S) <= c iff X(S) <= D*c."""
    den, scaled = scale_values(x_by_id.values())
    return den, dict(zip(x_by_id, scaled))


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


def separate_spanning_tree(x_by_id, graph, fmask):
    """Most-violated spanning-tree row at x, or feasible.

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
    den, scaled = _scale(x_by_id)
    # weight[h][u] for u < h: scaled x plus D per fixed edge between u and h
    weight = [[0] * n for _ in range(n)]
    xtotal = 0
    for eid, val in scaled.items():
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
    lhs = sum(val for eid, val in scaled.items() if (inside >> eid) & 1)
    rhs = vmask.bit_count() - (inside & fmask).bit_count() - 1
    return SeparationResult(False, "subtour", vmask, Rat(lhs, den), Rat(rhs), LE)


def separate_contra_polymatroid(x_by_id, fmask, pair):
    """Most-violated covering row x(S & E') >= r_i(S) - |F & S|,
    exhaustive over both functions and all subsets, in integers scaled
    by the common denominator of x."""
    n = pair.n
    den, scaled = _scale(x_by_id)
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


def separate_lattice(x_by_id, fmask, lat):
    """Most-violated rank row x(rho(S) & E') >= r(S) - |F & rho(S)|,
    in integers scaled by the common denominator of x; ties break by
    member index."""
    den, scaled = _scale(x_by_id)
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
class ExtremePoint:
    solution: object
    lp: LinearProgram
    var_ids: tuple
    row_tags: tuple  # (kind, witness) aligned with lp.constraints
    x_by_id: dict

    @property
    def objective(self):
        return self.solution.objective_value

    def tight_constraint_tags(self):
        m = len(self.lp.constraints)
        return [
            self.row_tags[idx] for idx in self.solution.tight_rows if idx < m
        ]


def _indicator(var_ids, mask):
    return tuple(ONE if (mask >> v) & 1 else ZERO for v in var_ids)


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
        """(variable ids, objective, base rows, separator, cut builder)."""
        graph = self.graph
        var_ids = tuple(sorted(iter_bits(self.eprime)))
        objective = tuple(graph.by_id[v].cost for v in var_ids)
        n_fixed = self.fmask.bit_count()
        rows = [
            (
                Constraint(tuple(ONE for _ in var_ids), EQ, Rat(graph.n - n_fixed - 1)),
                ("tree_total", None),
            )
        ]
        for node_id, vset, bound in self.degree_rows:
            dmask = graph.delta_mask(vset, within=self.eprime)
            rows.append(
                (Constraint(_indicator(var_ids, dmask), LE, bound), ("degree", node_id))
            )

        def cut_row(res):
            vmask = res.witness
            inside = graph.induced_mask(vmask, within=self.eprime)
            f_inside = (graph.induced_mask(vmask) & self.fmask).bit_count()
            rhs = Rat(vmask.bit_count() - f_inside - 1)
            return Constraint(_indicator(var_ids, inside), LE, rhs), ("subtour", vmask)

        def separator(x_by_id):
            return separate_spanning_tree(x_by_id, graph, self.fmask)

        return var_ids, objective, rows, separator, cut_row


@dataclass(frozen=True)
class ResidualIntersectionLp:
    pair: object
    costs: tuple
    eprime: int
    fmask: int
    bound_rows: tuple  # (constraint index, element mask, residual upper)

    def base(self):
        """(variable ids, objective, base rows, separator, cut builder)."""
        var_ids = tuple(sorted(iter_bits(self.eprime)))
        objective = tuple(self.costs[v] for v in var_ids)
        rows = []
        for idx, elems, resid in self.bound_rows:
            rows.append(
                (
                    Constraint(_indicator(var_ids, elems & self.eprime), LE, resid),
                    ("bound_upper", idx),
                )
            )

        def cut_row(res):
            func_idx = 1 if res.family == "cover1" else 2
            s = res.witness
            table = self.pair.r1 if func_idx == 1 else self.pair.r2
            rhs = Rat(table[s] - (self.fmask & s).bit_count())
            return (
                Constraint(_indicator(var_ids, s & self.eprime), GE, rhs),
                (res.family, s),
            )

        def separator(x_by_id):
            return separate_contra_polymatroid(x_by_id, self.fmask, self.pair)

        return var_ids, objective, rows, separator, cut_row


@dataclass(frozen=True)
class ResidualLatticeLp:
    lat: object
    costs: tuple
    eprime: int
    fmask: int
    bound_rows: tuple  # (constraint index, element mask, lower | None, upper)

    def base(self):
        """(variable ids, objective, base rows, separator, cut builder)."""
        var_ids = tuple(sorted(iter_bits(self.eprime)))
        objective = tuple(self.costs[v] for v in var_ids)
        rows = []
        for idx, elems, lower, upper in self.bound_rows:
            fixed = (elems & self.fmask).bit_count()
            ind = _indicator(var_ids, elems & self.eprime)
            rows.append((Constraint(ind, LE, upper - fixed), ("bound_upper", idx)))
            if lower is not None:
                rows.append((Constraint(ind, GE, lower - fixed), ("bound_lower", idx)))

        def cut_row(res):
            j = res.witness
            rho = self.lat.rho[j]
            rhs = Rat(self.lat.rank[j] - (self.fmask & rho).bit_count())
            return (
                Constraint(_indicator(var_ids, rho & self.eprime), GE, rhs),
                ("rank", j),
            )

        def separator(x_by_id):
            return separate_lattice(x_by_id, self.fmask, self.lat)

        return var_ids, objective, rows, separator, cut_row


def _working_lp(var_ids, objective, rows):
    n = len(var_ids)
    return LinearProgram(
        n, objective, tuple(c for c, _ in rows), (ZERO,) * n, (ONE,) * n
    )


def solve_to_extreme_point(state, extra_rows=(), objective_override=None):
    """Cutting-plane loop: optimal certified vertex of the full system.

    ``extra_rows`` are (Constraint, tag) pairs appended to the base LP
    (used for optimum-pinning).  ``objective_override`` replaces the
    cost vector (aligned with the sorted undecided ids).
    Raises LpInfeasible if the full system is empty.
    """
    var_ids, objective, rows, separator, cut_row = state.base()
    if objective_override is not None:
        objective = tuple(objective_override)
    rows = list(rows) + list(extra_rows)
    seen = {tag for _, tag in rows}
    prev_obj = None
    while True:
        lp = _working_lp(var_ids, objective, rows)
        try:
            sol = simplex_solve(lp)
        except LpUnbounded as exc:  # impossible: the box is compact
            raise InternalCheckError("box-bounded LP reported unbounded") from exc
        if prev_obj is not None and sol.objective_value < prev_obj:
            raise InternalCheckError(
                "objective decreased while adding cutting planes"
            )
        prev_obj = sol.objective_value
        x_by_id = dict(zip(var_ids, sol.values))
        res = separator(x_by_id)
        if res.feasible:
            return ExtremePoint(
                sol, lp, var_ids, tuple(t for _, t in rows), x_by_id
            )
        constraint, tag = cut_row(res)
        if tag in seen:
            raise InternalCheckError(f"separator repeated row {tag}")
        seen.add(tag)
        # re-verify the reported violation exactly against the new row,
        # in integers: excess is K * D * (lhs - rhs), K the row's scale
        den, scaled = scale_values(sol.values)
        excess = constraint.excess(den, scaled)
        k, _, k_rhs = constraint.scaled
        violated = excess > 0 if constraint.rel == LE else excess < 0
        lhs = Rat(excess + k_rhs * den, k * den)
        if not violated or lhs != res.lhs or constraint.rhs != res.rhs:
            raise InternalCheckError(
                f"separator violation for {tag} failed exact re-verification"
            )
        rows.append((constraint, tag))


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
    for kind, witness in prev.tight_constraint_tags():
        if kind in CUT_KINDS:
            rows.append(cut_row(SeparationResult(False, kind, witness)))
    try:
        values = tuple(prev.x_by_id[v] for v in var_ids)
    except KeyError as exc:
        raise InternalCheckError(
            f"undecided variable {exc} has no value at the previous vertex"
        ) from None
    lp = _working_lp(var_ids, objective, rows)
    feasible, tight = row_status(lp, values)
    if not feasible:
        raise InternalCheckError("reused vertex violates the new working LP")
    x_by_id = dict(zip(var_ids, values))
    if not separator(x_by_id).feasible:
        raise InternalCheckError("reused vertex violates a family constraint")
    value = sum((c * v for c, v in zip(objective, values) if c and v), ZERO)
    solution = BasicSolution(values, value, tight)
    verify_vertex_certificate(lp, solution)
    STATS["reused"] += 1
    return ExtremePoint(
        solution, lp, var_ids, tuple(t for _, t in rows), x_by_id
    )


def full_separation_clean(state, x_by_id):
    """Post-hoc pass: no family constraint is violated at x."""
    var_ids, objective, rows, separator, _ = state.base()
    if not separator(x_by_id).feasible:
        return False
    vals = tuple(x_by_id[v] for v in var_ids)
    return row_status(_working_lp(var_ids, objective, rows), vals)[0]


def tighten_degree_bounds(forest, graph, eprime, x_by_id):
    """Lower every alive bound to the current crossing load x(delta(S)).

    Never increases a bound; returns [(node id, old, new)] for changed
    nodes.
    """
    changes = []
    for nid in forest.alive_ids():
        node = forest.node(nid)
        load = ZERO
        for eid in iter_bits(graph.delta_mask(node.vset, within=eprime)):
            load += x_by_id[eid]
        if load > node.bound:
            raise InternalCheckError(
                f"crossing load exceeds bound at node {nid}; tightening "
                "would increase the bound"
            )
        if load != node.bound:
            changes.append((nid, node.bound, load))
            forest.set_bound(nid, load)
    return changes


def coordinate_ranges(state, optimum, base_objective):
    """Exact per-coordinate min/max over the optimal face.

    Adds the row base_objective . x = optimum and re-optimizes +e_j and
    -e_j for every variable; a coordinate is pinned when min == max.
    """
    var_ids = state.base()[0]
    pin = (
        Constraint(tuple(base_objective), EQ, optimum),
        ("pin", None),
    )
    ranges = []
    for j in range(len(var_ids)):
        unit = [ZERO] * len(var_ids)
        unit[j] = ONE
        lo = solve_to_extreme_point(
            state, extra_rows=(pin,), objective_override=tuple(unit)
        ).objective
        unit[j] = -ONE
        hi = -solve_to_extreme_point(
            state, extra_rows=(pin,), objective_override=tuple(unit)
        ).objective
        ranges.append((lo, hi))
    return ranges
