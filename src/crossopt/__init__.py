"""Exact-arithmetic iterative relaxation for degree-constrained
combinatorial optimization: laminar-bounded spanning trees, crossing
covering intersections, and crossing lattice polyhedra, with
brute-force oracles and certified gap instance generators."""

__version__ = "0.1.0"

from .errors import InstanceError, InternalCheckError, NoStepApplies, SizeGuardError
from .graphs import Graph, Edge, iter_bits, mask_of
from .instances import (
    GENERAL,
    INCLUSION,
    GeneralMcstInstance,
    IntersectionInstance,
    LatticeInstance,
    McstInstance,
    decode_instance,
    from_matroid,
    load_instance,
)
from .intersection import run_intersection, verify_intersection
from .lattice import run_lattice, verify_lattice
from .mcst import run_mcst, verify_guarantee
from .oracles import (
    ContraPolymatroidPair,
    CrossingConstraint,
    LatticeOracle,
    MatroidOracle,
    matroid_to_lattice,
)
from .rational import Rat, parse_rat, render_rat
from .relax import RunTrace
from .simplex import (
    LinearProgram,
    LpInfeasible,
    Row,
    Vertex,
    simplex_solve,
)
