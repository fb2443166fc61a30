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
are built as rationals.  separate_spanning_tree keeps the excess of
every vertex subset in a field of one packed int and tests all of them
against a threshold with one add and one AND (its docstring proves the
field width); it bisects the threshold only when the point is violated.
A min-cut separator could replace separate_spanning_tree behind the
same interface if graphs beyond SPANNING_SUBSET_GUARD vertices were
ever needed.  The covering and lattice separators share one kernel
over rank rows x(rho_j & E') >= r_j - |F & rho_j|, which tabulates the
row sums in lists: a lattice's rows are its members, and a covering
pair's rows (ContraPolymatroidPair.rows) are its nonempty subsets S
with r_j = max(r1(S), r2(S)), the rank rows of the subset lattice.

Ties in "most violated" break so that runs are reproducible.  Subtour
and covering witnesses are the smallest set, then the smallest bitmask:
the kernel returns the first most-violated row in list order, and
ContraPolymatroidPair.rows lists the subsets by size, then mask.  A
covering row is cover1 (the row of r1) where r1(S) >= r2(S), else
cover2.  Lattice witnesses are the smallest member index.

After a fix (x_e = 1) or delete (x_e = 0) step no LP needs solving:
the step names the face (e, c) it moved to, and reuse_extreme_point
returns the previous vertex with coordinate e dropped.  The previous
vertex x is optimal over the old region P and lies on its face
{x in P : x_e = c}; the new residual region is exactly that face with
coordinate e dropped (every row's rhs absorbs c), and the objective
changes by the constant c * cost_e, so the restriction is an optimal
point of the new region.  The cost is re-checking, not re-solving.  A
certified vertex is one simplex.Vertex, carried once as integers X / D,
whose LP rows name themselves by their tags.  Reuse checks the face:
x_e = c at the previous vertex, and the new variables are the previous
ones less e.  The reused point is then checked against the base rows
for the new state plus the previous point's tight cut rows (the tight
rows the new base LP does not hold, rebuilt from their tags, so each
rhs reflects the new fixed set) by simplex.certify, the routine the
simplex certifies its own vertices with: row feasibility, the box, the
tight set and the vertex certificate.  Any failed check is an
InternalCheckError; nothing falls back to a cold solve.  Steps that
drop or merge bounds remove or relax rows, so the region can grow and
the old vertex need not stay optimal; after those, and after rounding
values >= 1/2 (which changes bounds by fractional amounts, so the new
region is not a face of the old one), the LP is solved again with
solve_to_extreme_point.

The reused point is not separated again.  In full coordinates a point x
of the residual LP is x~: x on the undecided variables E', 1 on the
fixed set F and 0 on the deleted ones.  A fix or delete moves the
variable e at value c from E' into F (c = 1) or out of both (c = 0), so
once the face check holds, the reused point has the same x~ as the
previous vertex.  Every row of the exponential families is a row on x~
whose residual form moves the F part to the rhs, so its excess, scaled
by D, is a function of D * x~ alone:
- subtour row U, x(E'(U)) <= |U| - |F(U)| - 1: the excess
  X(E'(U)) + D*|F(U)| - D*(|U| - 1) is D * (x~(E(U)) - |U| + 1);
- the tree-total row x(E') = n - |F| - 1: X(E') + D*|F| - D*(n - 1) is
  D * (x~(E) - n + 1);
- rank row S, x(rho(S) & E') >= r(S) - |F & rho(S)|: the excess
  X(rho(S) & E') + D*|F & rho(S)| - D*r(S) is D * (x~(rho(S)) - r(S)).
Deleted variables are in neither E' nor F, and so add 0.  Drop and merge
steps edit only base rows.  So the separator's verdict on the reused
point is its verdict on the previous vertex, which was separated
feasible (or was itself reused, by induction).
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalCheckError, SizeGuardError
from .graphs import iter_bits
from .rational import Rat
from .simplex import LinearProgram, Vertex, certify, simplex_solve, violated

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


def separate_spanning_tree(point, graph, fmask):
    """Most-violated spanning-tree row at the Vertex point, or feasible.

    Checks the total-count equality exactly, then every induced-subset
    row x(E'(U)) <= |U| - |F(U)| - 1 over 2 <= |U| <= n-1.  With x
    scaled to integers X = D*x, row U is violated iff its excess
    e[U] = X(E'(U)) + D*|F(U)| - D*|U| is at least 1 - D.

    The excesses of all 2^n subsets sit in one int, a table of W-bit
    fields: field U, bits W*U up to W*U + W - 1, holds e[U] + off, and
    every row is tested at once with one add and one AND against the
    fields' top bits (SWAR; Lamport 1975, "Multiple byte processing
    with full-word instructions", CACM).  Let w[h][u], u < h, be the
    scaled x plus D per fixed edge between u and h; neg_h the sum of
    -w[h][u] over its negative weights; P the sum of all positive
    weights; off = sum(neg_h) + D*n; W the least width with
    2^(W-1) > off + P + max(neg_h) + D; and ones_k the int with a 1 at
    the bottom of each field 0 .. 2^k - 1.

    Range.  The edges inside U weigh between -sum(neg_h) and P, and
    D*|U| is between 0 and D*n, so e[U] lies in [-off, P] and field U
    in [0, off + P].

    No carry or borrow.  Ints are exact, so a sum of packed tables plus
    c * ones_k, for any integer c, holds in each field the sum of its
    fields plus c, and when every such sum lies in [0, 2^W) no field
    carried into or borrowed from its neighbour.  Each step stays there:
    - row_h[U] = neg_h + (w[h][u] summed over u in U), for U < 2^h, is
      built by doubling over u: row |= (row + w[h][u] * ones_u) << W*2^u,
      where the OR onto empty fields is an add.  Every field it ever
      holds is a value of row_h, in [0, neg_h + P].
    - Vertex h joins with table |= (table + row_h - (neg_h + D) * ones_h)
      << W*2^h, onto the empty fields 2^h .. 2^(h+1) - 1.  Adding h to
      U adds w[h][u] for each u in U and takes D, so field U of the
      partial sum table + row_h holds e[U + {h}] + off + neg_h + D, at
      most off + P + max(neg_h) + D < 2^(W-1), and the result holds
      e[U + {h}] + off.
    - The test at t, 1 - D <= t <= P, is the table plus
      (2^(W-1) - off - t) * ones_n, which holds 2^(W-1) + e[U] - t:
      at least 2^(W-1) - off - P > 0 and at most 2^(W-1) + P + D - 1,
      below 2^W.  Its top bit is set iff e[U] >= t.

    Guard.  G holds the top bits of fields 1 .. 2^n - 1, so the test is
    nonzero iff some U other than the empty set (e = 0) has e[U] >= t.
    A singleton has e = -D.  Once the total-count row holds,
    X(E') + D*|F| = D*(n - 1), so e[V] = -D whatever the signs of the
    values, and V never passes at t = 1 - D either: the point is
    feasible iff the test at t = 1 - D is zero.

    Witness.  No set of two or more vertices has excess above P - 2D,
    so the largest excess M is found by bisection over [1 - D, P - 2D]
    with the same test.  The witness is the U with the smallest
    popcount, then the smallest U, among the top bits set at t = M.
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

    neg = [-sum(w for w in row[:h] if w < 0) for h, row in enumerate(weight)]
    pos = sum(w for row in weight for w in row if w > 0)  # P
    off = sum(neg) + den * n
    width = (off + pos + max(neg) + den).bit_length() + 1
    ones = [1]
    for h in range(n):
        ones.append(ones[h] | ones[h] << (width << h))
    table = off
    for h in range(n):
        row = neg[h]
        for u in range(h):
            w = weight[h][u]
            row |= (row + w * ones[u] if w else row) << (width << u)
        table |= (table + row - (neg[h] + den) * ones[h]) << (width << h)
    half = 1 << (width - 1)
    guards = (ones[n] - 1) << (width - 1)

    def reaching(t):
        """Top bits of the fields of the nonempty U with excess >= t."""
        return (table + (half - off - t) * ones[n]) & guards

    lo, hi = 1 - den, pos - 2 * den
    if not reaching(lo):
        return SeparationResult.ok()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reaching(mid):
            lo = mid
        else:
            hi = mid - 1
    # the guard bits set at the maximum, read lowest field first
    bits = format(reaching(lo), "b")[::-1]
    i = bits.find("1")
    vmask = None
    while i >= 0:
        u = i // width
        if vmask is None or u.bit_count() < vmask.bit_count():
            vmask = u
        i = bits.find("1", i + 1)
    inside = graph.induced_mask(vmask)
    rhs = vmask.bit_count() - (inside & fmask).bit_count() - 1
    lhs = Rat(point.load(inside), den)
    return SeparationResult(False, "subtour", vmask, lhs, Rat(rhs))


def _most_violated_row(point, fmask, ground_n, rho, rank):
    """(j, lhs, rhs) of the first most-violated rank row
    x(rho_j & E') >= r_j - |F & rho_j| in list order at the Vertex point,
    over a ground set of ground_n elements; None if every row holds.
    Works in the point's integers X = D * x."""
    den = point.den
    scaled = dict(zip(point.var_ids, point.scaled))
    lhs = [0] * len(rho)
    for base in range(0, ground_n, 8):
        # sums[b]: scaled x over the elements base + i for the bits i of b
        sums = [0]
        for e in range(base, base + 8):
            w = scaled.get(e, 0)
            sums += [s + w for s in sums] if w else sums
        lhs = [acc + sums[(m >> base) & 255] for acc, m in zip(lhs, rho)]
    need = [r - (fmask & m).bit_count() for r, m in zip(rank, rho)] if fmask else rank
    viol = [den * r - x if r > 0 else 0 for r, x in zip(need, lhs)]
    worst = max(viol, default=0)
    if worst <= 0:
        return None
    j = viol.index(worst)
    return j, Rat(lhs[j], den), Rat(need[j])


def separate_contra_polymatroid(point, fmask, pair):
    """Most-violated covering row x(S & E') >= r_i(S) - |F & S| at the
    Vertex point, exhaustive over both functions and all nonempty
    subsets: the rank rows pair.rows, family cover1 where r1(S) >= r2(S)
    and cover2 elsewhere."""
    masks, rank = pair.rows
    found = _most_violated_row(point, fmask, pair.n, masks, rank)
    if found is None:
        return SeparationResult.ok()
    j, lhs, rhs = found
    s = masks[j]
    family = "cover1" if pair.r1[s] >= pair.r2[s] else "cover2"
    return SeparationResult(False, family, s, lhs, rhs)


def separate_lattice(point, fmask, lat):
    """Most-violated rank row x(rho(S) & E') >= r(S) - |F & rho(S)| at
    the Vertex point; ties break by member index."""
    found = _most_violated_row(point, fmask, lat.ground_n, lat.rho, lat.rank)
    if found is None:
        return SeparationResult.ok()
    j, lhs, rhs = found
    return SeparationResult(False, "rank", j, lhs, rhs)


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


def reuse_extreme_point(residual, prev, face):
    """Certified optimal vertex of the Residual after a step moved to the
    face (e, c), x_e = c, taken from the previous extreme point ``prev``
    without a solve.

    Reuse checks the face: x_e = c at prev, and the Residual's variables
    are prev's less e.  The point is prev less e, certified against the
    Residual's base LP plus the rows tight at prev that the base LP does
    not hold, its cut rows, each rebuilt from its tag by cut_row; a
    failed check is an InternalCheckError.  The point is not separated:
    its verdict and its optimality are prev's, by the face argument in
    the module docstring.
    """
    e, c = face
    var_ids = prev.var_ids
    if e not in var_ids:
        raise InternalCheckError(f"face variable {e} is not a previous variable")
    at = var_ids.index(e)
    if prev.scaled[at] != c * prev.den:
        raise InternalCheckError(f"previous vertex is not on the face x_{e} = {c}")
    lp = residual.lp
    if lp.var_ids != var_ids[:at] + var_ids[at + 1:]:
        raise InternalCheckError(
            f"undecided variables are not the previous vertex's less {e}"
        )
    base = {row.tag for row in lp.rows}
    cuts = tuple(
        residual.cut_row(*tag) for tag in prev.tight_tags() if tag not in base
    )
    if cuts:
        lp = LinearProgram(lp.var_ids, lp.objective, lp.rows + cuts)
    point = Vertex.scaled_at(lp, prev.den, prev.scaled[:at] + prev.scaled[at + 1:])
    certify(point, InternalCheckError("reused vertex violates the new working LP"))
    return point
