"""Spanning trees of the gap gadget graph and the subsets they encode,
for the tests of the gap and reduction generators.

In ``generators.gadget_graph(e)`` every spanning tree picks exactly 3
of each gadget's 4 edges; the gadgets keeping both u-side edges form
the subset X that the gap certificates and the reduction reason about.
"""

from crossopt.errors import InstanceError
from crossopt.generators import gadget_u_edges, gadget_w_edges
from crossopt.graphs import mask_of


def tree_to_subset(e, tree_mask):
    """Map a spanning tree of the gadget graph to X = gadgets keeping
    both u-side edges; checks the exactly-3-edges structure."""
    x = 0
    for i in range(e):
        u_cnt = (tree_mask & gadget_u_edges(i)).bit_count()
        w_cnt = (tree_mask & gadget_w_edges(i)).bit_count()
        if u_cnt + w_cnt != 3 or u_cnt == 0 or w_cnt == 0:
            raise InstanceError(
                f"tree does not pick exactly three edges in gadget {i}"
            )
        if u_cnt == 2:
            x |= 1 << i
    return x


def yes_case_tree(e, basis_mask):
    """The witness tree for a basis: both u-edges plus (r, w_i) inside
    the basis, both w-edges plus (r, u_i) outside."""
    tree = 0
    for i in range(e):
        if (basis_mask >> i) & 1:
            tree |= mask_of([4 * i, 4 * i + 1, 4 * i + 2])
        else:
            tree |= mask_of([4 * i + 2, 4 * i + 3, 4 * i])
    return tree
