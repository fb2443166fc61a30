"""Problem instances and their canonical JSON encoding.

Four instance types are understood:

``mcst``          laminar-family degree bounds on a spanning tree problem
``general-mcst``  arbitrary edge-set bounds (produced by generators, only
                  consumed by brute-force verifiers)
``intersection``  two supermodular covering functions with upper bounds
``lattice``       lattice covering constraints with lower/upper bounds

Rationals are encoded as "p/q" strings, never floats.  The encoder is
canonical (sorted keys, lowest-terms rationals, fixed list orders) so
identical instances serialize byte-identically.
"""

import hashlib
import json
import os
import stat
import sys
from dataclasses import dataclass

from .errors import InstanceError
from .graphs import ID_LIMIT, Edge, Graph, iter_bits, mask_of
from .laminar import LaminarForest
from .oracles import (
    CHAIN_COUNTS,
    ContraPolymatroidPair,
    CrossingConstraint,
    LatticeOracle,
    MatroidOracle,
    PathLattice,
    SubsetLattice,
    matroid_to_lattice,
    max_frequency,
)
from .rational import ZERO, Rat, is_integral, parse_rat, render_rat

SCHEMA_VERSION = 1

GENERAL = "general"
INCLUSION = "inclusion"


# the one JSON encoder of every output file: sorted keys, no spaces
ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj):
    return ENCODER.encode(obj) + "\n"


def write_text(path, text):
    """Make the file at path hold exactly the UTF-8 bytes of text: the
    bytes open(path, "w", encoding="utf-8") writes.

    The file is overwritten in place and then truncated to the new
    length, never to zero: ext4 (auto_da_alloc) flushes a file that was
    truncated to zero when it is closed, so an O_TRUNC overwrite pays
    for a flush.  Only a regular file is truncated, so /dev/null and
    pipes take the text as before.  If the process dies between the
    write and the truncate, a shorter text leaves a stale tail of the
    old file.  An OSError is an InstanceError naming the path.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
        finally:
            os.close(fd)
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from exc


def check_writable(*paths):
    """Raise write_text's InstanceError for the first of paths (None
    skipped) that is a directory or lies in a missing directory, so that
    a command refuses it before doing any work."""
    for path in paths:
        if path is None:
            continue
        if os.path.isdir(path):
            reason = "is a directory"
        elif not os.path.isdir(os.path.dirname(path) or "."):
            reason = "no such directory"
        else:
            continue
        raise InstanceError(f"cannot write {path}: {reason}")


def digest_of(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _ids(mask):
    return sorted(iter_bits(mask))


@dataclass(frozen=True)
class McstInstance:
    graph: Graph
    family: tuple  # ((vertex_mask, integral bound), ...) in file order

    def __post_init__(self):
        if not self.graph.n:
            raise InstanceError("graph has no vertices")
        limit = 2 * self.graph.n - 1
        if len(self.family) > limit:
            raise InstanceError(
                f"laminar family has {len(self.family)} sets, limit is {limit}"
            )
        for vmask, bound in self.family:
            if not is_integral(bound) or bound < 0:
                raise InstanceError("initial degree bounds must be non-negative integers")
            if vmask <= 0 or vmask > self.graph.full_vmask:
                raise InstanceError("family set out of vertex range")
        # built once: from_sets validates laminarity, and every run and
        # trace replay starts from a copy
        object.__setattr__(self, "_forest", LaminarForest.from_sets(self.family))

    def build_forest(self):
        """A fresh LaminarForest of the family, for one run to edit."""
        return self._forest.snapshot()

    def cost_of(self, mask):
        """The total cost of the edges in mask."""
        return self.graph.cost_of(mask)

    def to_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "type": "mcst",
            "n": self.graph.n,
            "edges": [
                {"id": e.id, "u": e.u, "v": e.v, "cost": render_rat(e.cost)}
                for e in self.graph.edges
            ],
            "family": [
                {"vertices": _ids(vmask), "bound": render_rat(b)}
                for vmask, b in self.family
            ],
        }


@dataclass(frozen=True)
class GeneralMcstInstance:
    """Spanning tree with bounds on arbitrary edge sets; brute-force only."""

    graph: Graph
    bounds: tuple  # ((edge_mask, bound), ...)

    def to_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "type": "general-mcst",
            "n": self.graph.n,
            "edges": [
                {"id": e.id, "u": e.u, "v": e.v, "cost": render_rat(e.cost)}
                for e in self.graph.edges
            ],
            "bounds": [
                {"edges": _ids(emask), "bound": render_rat(b)}
                for emask, b in self.bounds
            ],
        }


@dataclass(frozen=True)
class IntersectionInstance:
    pair: ContraPolymatroidPair
    costs: tuple
    constraints: tuple  # CrossingConstraint, upper bounds only

    def __post_init__(self):
        if len(self.costs) != self.pair.n:
            raise InstanceError("cost vector length mismatch")
        if any(c < 0 for c in self.costs):
            raise InstanceError("costs must be non-negative")
        for con in self.constraints:
            if con.lower is not None:
                raise InstanceError("intersection instances take upper bounds only")
            if not is_integral(con.upper) or con.upper < 0:
                raise InstanceError("degree bounds must be non-negative integers")
            if con.elems == 0:
                raise InstanceError("degree bound on an empty element set")

    @property
    def n(self):
        return self.pair.n

    @property
    def delta(self):
        return max_frequency(self.constraints, self.pair.n)

    def cost_of(self, mask):
        """The total cost of the elements in mask."""
        return sum((self.costs[e] for e in iter_bits(mask)), ZERO)

    def to_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "type": "intersection",
            "ground": self.pair.n,
            "cost": [render_rat(c) for c in self.costs],
            "r1": list(self.pair.r1),
            "r2": list(self.pair.r2),
            "bounds": [
                {"elements": _ids(c.elems), "upper": render_rat(c.upper)}
                for c in self.constraints
            ],
        }


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_row(mask, width):
    """The 0/1 ints of bits 0..width-1 of mask, lowest bit first, built
    by string and bytes operations instead of one shift per bit."""
    digits = format(mask, f"0{width}b")[::-1].encode()
    return list(digits.translate(_BIT_BYTES))


def _check_image_inclusion_order(lat):
    """InstanceError unless i <= j exactly when rho[i] is a subset of
    rho[j], naming the first disagreeing pair in row-major order."""
    witness = lat.inclusion_witness()
    if witness is not None:
        i, j = witness
        raise InstanceError(
            "inclusion variant requires the order to be "
            f"image inclusion; members ({i},{j}) disagree"
        )


@dataclass(frozen=True)
class LatticeInstance:
    # LatticeOracle (explicit tables, validated in full), SubsetLattice
    # (a matroid rank table) or PathLattice (a product of k chains); the
    # last two are implicit, and to_json writes them by their parameters
    lat: object
    costs: tuple
    constraints: tuple  # CrossingConstraint; lower may be None
    variant: str = GENERAL

    def __post_init__(self):
        if self.variant not in (GENERAL, INCLUSION):
            raise InstanceError(f"unknown variant {self.variant!r}")
        if len(self.costs) != self.lat.ground_n:
            raise InstanceError("cost vector length mismatch")
        if any(c < 0 for c in self.costs):
            raise InstanceError("costs must be non-negative")
        for con in self.constraints:
            if not is_integral(con.upper):
                raise InstanceError("degree bounds must be integers")
            if con.lower is not None and not is_integral(con.lower):
                raise InstanceError("degree bounds must be integers")
            if con.elems == 0:
                raise InstanceError("degree bound on an empty element set")
        if self.variant == INCLUSION:
            for con in self.constraints:
                if con.lower is not None:
                    raise InstanceError(
                        "inclusion variant admits upper bounds only"
                    )
            _check_image_inclusion_order(self.lat)

    @property
    def n(self):
        return self.lat.ground_n

    @property
    def delta(self):
        return max_frequency(self.constraints, self.lat.ground_n)

    def cost_of(self, mask):
        """The total cost of the elements in mask."""
        return sum((self.costs[e] for e in iter_bits(mask)), ZERO)

    def to_json(self):
        body = {
            "schema": SCHEMA_VERSION,
            "type": "lattice",
            "ground": self.lat.ground_n,
            "variant": self.variant,
            "cost": [render_rat(c) for c in self.costs],
            "bounds": [
                {
                    "elements": _ids(c.elems),
                    "lower": None if c.lower is None else render_rat(c.lower),
                    "upper": render_rat(c.upper),
                }
                for c in self.constraints
            ],
        }
        lat = self.lat
        if isinstance(lat, SubsetLattice):
            body["matroid_rank"] = list(lat.matroid.rank)
        elif isinstance(lat, PathLattice):
            body["lattice"] = {"product_of_chains": {"k": lat.k}}
        else:
            body["lattice"] = {
                "members": [
                    {"rho": _ids(lat.rho[i]), "rank": lat.rank[i]}
                    for i in range(lat.size)
                ],
                "leq": [_bit_row(up, lat.size) for up in lat.above],
                # the rows go out as they are: the table check admits
                # only list or tuple rows of ints, and JSON writes both
                # as arrays
                "meet": lat.meet,
                "join": lat.join,
            }
        return body


def from_matroid(matroid, costs, constraints, variant=GENERAL):
    return LatticeInstance(
        lat=matroid_to_lattice(matroid),
        costs=tuple(Rat(c) for c in costs),
        constraints=tuple(constraints),
        variant=variant,
    )


# -- decoding ---------------------------------------------------------------


def _digit_limit():
    """The part of a refusal that names Python's int conversion limit."""
    limit = sys.get_int_max_str_digits()
    return f"more than {limit} digits, Python's int conversion limit"


def _rat(value, field):
    """The rational of a "p/q" (or "p") string; InstanceError naming
    field for anything else, a zero denominator and a part past Python's
    int conversion limit included."""
    if isinstance(value, str):
        try:
            return parse_rat(value)
        except ZeroDivisionError:
            pass
        except ValueError:
            limit = sys.get_int_max_str_digits()
            parts = value.split("/", 1)
            if limit and any(sum(map(str.isdigit, p)) > limit for p in parts):
                raise InstanceError(
                    f"{field} has a numerator or denominator of {_digit_limit()}"
                ) from None
    raise InstanceError(f'{field} must be a rational string "p/q", got {value!r}')


def _objects(body, field):
    """The list body[field], each entry a JSON object."""
    items = body[field]
    if not isinstance(items, list):
        raise InstanceError(f"{field} must be a list of objects, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InstanceError(f"{field}[{i}] must be an object, got {item!r}")
    return items


def _count(body, field):
    """body[field], which must be a non-negative int (not a bool)."""
    value = body[field]
    if type(value) is not int or value < 0:
        raise InstanceError(f"{field} must be a non-negative integer, got {value!r}")
    return value


def _rats(body, field):
    """The rationals of the list body[field] of "p/q" strings."""
    values = body[field]
    if not isinstance(values, list):
        raise InstanceError(f"{field} must be a list of rational strings, got {values!r}")
    return tuple(_rat(v, f"{field}[{i}]") for i, v in enumerate(values))


def _decode_graph(body):
    """The graph of an mcst body; n and each edge's id, u and v must be
    a non-negative int (not a bool), n at most ID_LIMIT and each id
    below it, and Graph checks the rest."""
    n = _count(body, "n")
    if n > ID_LIMIT:
        raise InstanceError(f"n must be at most {ID_LIMIT}, got {n}")
    edges = []
    for i, e in enumerate(_objects(body, "edges")):
        ends = e["id"], e["u"], e["v"]
        for field, value in zip(("id", "u", "v"), ends):
            if type(value) is not int or value < 0:
                raise InstanceError(
                    f"edge {i} {field} must be a non-negative integer, got {value!r}"
                )
        if ends[0] >= ID_LIMIT:
            raise InstanceError(f"edge {i} id must be below {ID_LIMIT}, got {ends[0]}")
        edges.append(Edge(*ends, _rat(e["cost"], f"edge {i} cost")))
    return Graph(n, edges)


def _int_table(values, field):
    """The entries as a tuple; each must be an int (bool, an int
    subclass, is refused: true/false is no rank)."""
    if not isinstance(values, list):
        raise InstanceError(f"{field} must be a list of integers")
    for i, v in enumerate(values):
        if type(v) is not int:
            raise InstanceError(f"{field}[{i}] must be an integer, got {v!r}")
    return tuple(values)


def _id_mask(ids, valid, what):
    """Bitmask of a JSON list of ids, each an int (not a bool) in valid,
    a range or the graph's edge-id dict; else InstanceError naming what."""
    if not isinstance(ids, list) or not all(type(i) is int and i in valid for i in ids):
        raise InstanceError(f"{what}, got {ids!r}")
    return mask_of(ids)


def _element_mask(ids, ground, field):
    """Bitmask of a list of element ids, each an int in range(ground)."""
    return _id_mask(ids, range(ground), f"{field} must list elements 0..{ground - 1}")


def _decode_bounds(body, ground):
    """The crossing constraints of an intersection or lattice body; a
    lower bound that is absent or null is none."""
    return tuple(
        CrossingConstraint(
            _element_mask(b["elements"], ground, f"bound {i} elements"),
            None if b.get("lower") is None else _rat(b["lower"], f"bound {i} lower"),
            _rat(b["upper"], f"bound {i} upper"),
        )
        for i, b in enumerate(_objects(body, "bounds"))
    )


def _decode_chains(tables, ground):
    """The PathLattice of a lattice object {"product_of_chains": {"k": k}}:
    k must be an int in CHAIN_COUNTS, the ground 2k^2, and the object
    may hold no explicit table besides."""
    both = [key for key in ("members", "leq", "meet", "join") if key in tables]
    if both:
        raise InstanceError(
            f"lattice holds both product_of_chains and explicit {both[0]}"
        )
    chains = tables["product_of_chains"]
    if not isinstance(chains, dict):
        raise InstanceError(
            f"lattice product_of_chains must be an object, got {chains!r}"
        )
    k = chains["k"]
    if type(k) is not int or k not in CHAIN_COUNTS:
        raise InstanceError(
            f"lattice product_of_chains k must be an integer "
            f"{CHAIN_COUNTS[0]}..{CHAIN_COUNTS[-1]}, got {k!r}"
        )
    if ground != 2 * k * k:
        raise InstanceError(
            f"ground must be 2k^2 = {2 * k * k} for a product of {k} chains, "
            f"got {ground}"
        )
    return PathLattice(k)


def _decode_lattice(body, ground):
    """The lattice of a lattice body: the subset lattice of its
    matroid_rank table, else its lattice object, which is a product of
    chains or explicit tables."""
    if "matroid_rank" in body:
        rank = _int_table(body["matroid_rank"], "matroid_rank")
        return matroid_to_lattice(MatroidOracle(ground, rank))
    tables = body["lattice"]
    if not isinstance(tables, dict):
        raise InstanceError(f"lattice must be an object, got {tables!r}")
    if "product_of_chains" in tables:
        return _decode_chains(tables, ground)
    members = _objects(tables, "members")
    return LatticeOracle.from_leq(
        ground,
        rho=[
            _element_mask(m["rho"], ground, f"lattice member {i} rho")
            for i, m in enumerate(members)
        ],
        rank=_int_table([m["rank"] for m in members], "lattice member rank"),
        leq=tables["leq"],
        meet=tables["meet"],
        join=tables["join"],
    )


def decode_instance(body):
    if not isinstance(body, dict):
        raise InstanceError("instance must be a JSON object")
    if body.get("schema") != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema {body.get('schema')!r}")
    kind = body.get("type")
    try:
        if kind == "mcst":
            graph = _decode_graph(body)
            vertices = range(graph.n)
            family = tuple(
                (
                    _id_mask(s["vertices"], vertices, "family set out of vertex range"),
                    _rat(s["bound"], f"family set {i} bound"),
                )
                for i, s in enumerate(_objects(body, "family"))
            )
            return McstInstance(graph, family)
        if kind == "general-mcst":
            graph = _decode_graph(body)
            bounds = tuple(
                (
                    _id_mask(s["edges"], graph.by_id, f"bound {i} must list edge ids"),
                    _rat(s["bound"], f"bound {i} bound"),
                )
                for i, s in enumerate(_objects(body, "bounds"))
            )
            return GeneralMcstInstance(graph, bounds)
        if kind == "intersection":
            pair = ContraPolymatroidPair(
                _count(body, "ground"),
                _int_table(body["r1"], "r1"),
                _int_table(body["r2"], "r2"),
            )
            cons = _decode_bounds(body, pair.n)
            return IntersectionInstance(pair, _rats(body, "cost"), cons)
        if kind == "lattice":
            ground = _count(body, "ground")
            lat = _decode_lattice(body, ground)
            cons = _decode_bounds(body, ground)
            return LatticeInstance(lat, _rats(body, "cost"), cons, body["variant"])
    except KeyError as exc:
        raise InstanceError(f"missing instance field {exc}") from exc
    raise InstanceError(f"unknown instance type {kind!r}")


def parse_json(text, invalid):
    """The JSON value of the string text: the one JSON parse of the
    package.  InstanceError, its message starting with ``invalid``, when
    text is not JSON, holds an integer literal past Python's int
    conversion limit, or nests arrays and objects past Python's
    recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{invalid}: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError(
            f"{invalid}: arrays and objects nest too deeply for Python's "
            f"recursion limit of {sys.getrecursionlimit()}"
        ) from exc
    except ValueError as exc:
        # the only other ValueError json.loads raises on a string
        raise InstanceError(
            f"{invalid}: an integer literal has {_digit_limit()}"
        ) from exc


def read_json(path):
    """The JSON body of a file; InstanceError when it cannot be read or
    is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceError(f"invalid JSON in {path}: {exc}") from exc
    return parse_json(text, f"invalid JSON in {path}")


def load_instance(path):
    return decode_instance(read_json(path))


def dump_instance(instance, path):
    write_text(path, canonical_json(instance.to_json()))


def instance_digest(instance):
    """sha256 of the instance's canonical JSON.  Instances are frozen,
    so the digest is computed once and kept on the instance: a solve
    command's trace and report share it."""
    digest = instance.__dict__.get("_digest")
    if digest is None:
        digest = digest_of(instance.to_json())
        object.__setattr__(instance, "_digest", digest)
    return digest
