"""Cutting-plane engine for the three residual LPs.

A Residual describes one iteration's system: its base LP (the undecided
variable ids, their costs, and the explicitly known rows: the
spanning-tree total-count row plus degree rows, or the crossing bound
rows), the separation oracle for the exponential rows, and the builder
that turns a separation witness into a cut row.  Each step rule builds
its own Residual (McstLp.view, IntersectionState.residual,
LatticeState.residual), binding the iteration's decided sets, and the
engine functions take any of them and never ask which problem it is.
The spanning-tree rows are not rebuilt per iteration: one McstLp per
run holds them, the step events edit it in place (each edit touches
only the rows that hold the decided edge or the bounds that changed,
with each bound an integer over a per-row denominator), and its
``view()`` is the iteration's Residual.

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
from typing import NamedTuple

from .errors import InternalCheckError, SizeGuardError
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


class McstLp:
    """The residual spanning-tree LP of one run, edited in place by the
    step events; McstState owns it for the whole run.

    Its rows are the tree-total row x(E') = n - |F| - 1 and one degree
    row x(delta(S) & E') <= b(S) per alive node S of the forest, in node
    id order.  Each bound is kept as an int numerator over a per-row int
    denominator, so crossed-bound decrements and bound comparisons are
    int operations, and is written to the forest node as a rational
    whenever it changes, so the forest always holds the LP's bounds.
    Each event edits only what it changes:

    - ``fix`` or ``delete`` of e drops e from the undecided edges and
      from the degree rows whose mask holds it (found through an
      edge-to-rows index); ``fix`` also lowers those rows' bounds by one;
    - ``set_bound`` and ``tighten`` rewrite the bounds of named rows;
    - ``reshape`` rebuilds the degree rows after a drop or merge step.

    A Row is built only when ``view`` needs it after an edit, so a trace
    replay, which never solves, builds none.
    """

    def __init__(self, graph, forest):
        self.graph = graph
        self.forest = forest
        self.eprime = graph.all_edges_mask
        self.fmask = 0
        self.var_ids = tuple(sorted(graph.by_id))
        self.objective = tuple(graph.by_id[v].cost for v in self.var_ids)
        self.reshape()

    def reshape(self):
        """Rebuild the degree rows from the forest's alive nodes."""
        nodes = self.forest.nodes
        eprime = self.eprime
        cut = self.graph.cut
        self.node_ids = [nd.id for nd in nodes if nd.alive]
        self.masks = [cut(nodes[nid].vset)[0] & eprime for nid in self.node_ids]
        self.nums = [nodes[nid].bound.numerator for nid in self.node_ids]
        self.dens = [nodes[nid].bound.denominator for nid in self.node_ids]
        # {1 << edge id: positions of the rows whose mask holds it}
        self.edge_rows = edge_rows = {}
        for p, mask in enumerate(self.masks):
            while mask:
                low = mask & -mask
                edge_rows.setdefault(low, []).append(p)
                mask ^= low
        self.rows = [None] * len(self.node_ids)
        self.stale = set(range(len(self.node_ids)))

    def delete(self, eid):
        """x_e = 0: the undecided edge eid leaves the undecided edges,
        the variables and the degree rows that hold it; returns those
        rows' positions."""
        bit = 1 << eid
        self.eprime ^= bit
        j = self.var_ids.index(eid)
        self.var_ids = self.var_ids[:j] + self.var_ids[j + 1 :]
        self.objective = self.objective[:j] + self.objective[j + 1 :]
        held = self.edge_rows.pop(bit, ())
        masks = self.masks
        for p in held:
            masks[p] ^= bit
        self.stale.update(held)
        return held

    def fix(self, eid):
        """x_e = 1: e leaves the LP as on a delete, and every bound it
        crosses drops by one; a bound below one is an InternalCheckError."""
        held = self.delete(eid)
        self.fmask |= 1 << eid
        nums, dens = self.nums, self.dens
        nodes, node_ids = self.forest.nodes, self.node_ids
        for p in held:
            num, den = nums[p], dens[p]
            if num < den:
                raise InternalCheckError(
                    f"fixing edge {eid} drives bound of node {node_ids[p]} negative"
                )
            nums[p] = num = num - den
            nodes[node_ids[p]].bound = Rat(num, den)

    def set_bound(self, node_id, bound):
        """The bound of node_id's degree row set to the rational bound."""
        p = self.node_ids.index(node_id)
        self.nums[p] = bound.numerator
        self.dens[p] = bound.denominator
        self.forest.nodes[node_id].bound = bound
        self.stale.add(p)

    def tighten(self, point):
        """Lower every degree bound to its crossing load x(delta(S) & E')
        at the certified Vertex ``point`` of this LP, compared in
        integers; returns [(node id, old, new)] for the changed rows.

        A row that ``point`` claims tight, and that is still the Row its
        LP holds at that index, has load equal to bound (certify checked
        it), so only the other rows are loaded.  A load above its bound
        is an InternalCheckError: tightening never raises a bound.
        """
        rows, lp_rows = self.rows, point.lp.rows
        tight = set()
        for idx in point.tight_rows:  # rows first, in index order
            if idx > len(rows):
                break
            if idx and lp_rows[idx] is rows[idx - 1]:
                tight.add(idx - 1)
        den = point.den
        nodes = self.forest.nodes
        changes = []
        for p, nid in enumerate(self.node_ids):
            if p in tight:
                continue
            load = point.load(self.masks[p])
            excess = load * self.dens[p] - self.nums[p] * den
            if excess > 0:
                raise InternalCheckError(
                    f"crossing load exceeds bound at node {nid}; tightening "
                    "would increase the bound"
                )
            if excess:
                new = Rat(load, den)
                changes.append((nid, nodes[nid].bound, new))
                self.set_bound(nid, new)
        return changes

    def view(self):
        """The LP as it stands, a Residual; builds the Rows that changed
        since the last view."""
        rows, nodes = self.rows, self.forest.nodes
        for p in self.stale:
            nid = self.node_ids[p]
            rows[p] = Row(self.masks[p], LE, nodes[nid].bound, ("degree", nid))
        self.stale.clear()
        graph, eprime, fmask = self.graph, self.eprime, self.fmask
        total = Rat(graph.n - fmask.bit_count() - 1)

        def cut_row(kind, vmask):
            inside = graph.induced_mask(vmask, within=eprime)
            f_inside = (graph.induced_mask(vmask) & fmask).bit_count()
            rhs = Rat(vmask.bit_count() - f_inside - 1)
            return Row(inside, LE, rhs, ("subtour", vmask))

        return Residual(
            LinearProgram(
                self.var_ids,
                self.objective,
                (Row(eprime, EQ, total, ("tree_total", None)), *rows),
            ),
            lambda point: separate_spanning_tree(point, graph, fmask),
            cut_row,
        )


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
    must satisfy that LP, pass full separation and carry a vertex
    certificate; otherwise InternalCheckError.  Optimality is the face
    argument in the module docstring.
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
    STATS["reused"] += 1
    return point
