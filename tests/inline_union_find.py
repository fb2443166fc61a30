"""References for the tests of ``graphs.joins``, the one union-find.

`component_count` counts the components of a multigraph by breadth-first
search, sharing no code with any union-find.  `loop_random_spanning_tree`
and `loop_graphic_ranks` are the private union-finds that
``randgen.random_spanning_tree`` and the graphic branch of
``randgen.random_matroid`` ran before both called ``graphs.joins``; they
draw from the generator exactly as those did.
"""

from collections import deque


def component_count(n, pairs):
    """Components of the multigraph on vertices 0..n-1 with edges pairs."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


def loop_random_spanning_tree(rng, graph):
    """Kruskal over a random edge order."""
    order = list(graph.edges)
    rng.shuffle(order)
    parent = list(range(graph.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = 0
    for e in order:
        ra, rb = find(e.u), find(e.v)
        if ra != rb:
            parent[ra] = rb
            tree |= 1 << e.id
    return tree


def loop_graphic_ranks(rng, n):
    """The rank table random_matroid(rng, n) builds when it draws the
    graphic kind, or None when it draws another kind."""
    kind = rng.choice(("uniform", "graphic", "linear", "partition"))
    if kind != "graphic":
        return None
    nv = rng.randint(3, max(3, n - 1))
    ends = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(n)]
    table = []
    for s in range(1 << n):
        parent = list(range(nv))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        rank = 0
        for e in range(n):
            if (s >> e) & 1:
                u, v = ends[e]
                if u != v:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        rank += 1
        table.append(rank)
    return tuple(table)
