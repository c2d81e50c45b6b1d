"""Hardware coupling graphs: built-in platforms, generators, file loading.

Built-in platform edge lists live in data/*.json.  They come from vendor
documentation and community sources, not from any verified authority; each
file records its provenance in a "source" field.
"""
from __future__ import annotations

import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources

BUILTIN_PLATFORMS = ("melbourne", "sycamore54", "rigetti80", "eagle127")


class CouplingError(ValueError):
    """Malformed coupling specification or invariant violation."""


def reachable(adj, start: int) -> set[int]:
    """The nodes reachable from `start`, where adj[u] holds u's neighbours."""
    seen, todo = {start}, [start]
    while todo:
        for v in adj[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    edges: frozenset[tuple[int, int]]
    name: str = "coupling"
    # derived from the edges when the graph is built; not part of its value
    _adj: tuple[frozenset[int], ...] = field(init=False, compare=False, repr=False)
    _connected: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj: list[set[int]] = [set() for _ in range(self.num_physical)]
        for u, v in self.edges:
            if u == v:
                raise CouplingError(f"self-loop on qubit {u}")
            if not (0 <= u < v < self.num_physical):
                raise CouplingError(f"edge ({u},{v}) out of range or unnormalized")
            adj[u].add(v)
            adj[v].add(u)
        connected = self.num_physical <= 1 or len(reachable(adj, 0)) == self.num_physical
        object.__setattr__(self, "_adj", tuple(frozenset(a) for a in adj))
        object.__setattr__(self, "_connected", connected)
        if self.num_physical > 0 and not connected:
            warnings.warn(f"coupling graph '{self.name}' is disconnected", stacklevel=3)

    def is_connected(self) -> bool:
        return self._connected

    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self._adj

    def connected(self, p: int, q: int) -> bool:
        return (min(p, q), max(p, q)) in self.edges


def distance2_pairs(graph: CouplingGraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Non-adjacent pairs with a common neighbour, in sorted order, each with
    its middle qubits in ascending order; found from each middle qubit."""
    middles: dict[tuple[int, int], list[int]] = {}
    for m, nbrs in enumerate(graph.adjacency()):
        for p in nbrs:
            for q in nbrs:
                if p < q and (p, q) not in graph.edges:
                    middles.setdefault((p, q), []).append(m)
    return {key: tuple(middles[key]) for key in sorted(middles)}


def connected_sets(graph: CouplingGraph, size: int) -> Iterator[tuple[int, ...]]:
    """Every connected set of `size` nodes, exactly once, as a sorted tuple.

    ESU (Wernicke, WABI 2005): a set grows from its least node v by one node
    of its extension at a time.  The extension holds only nodes above v, and
    a new node's neighbours join it only if they were not already next to
    the set, so no set is reached twice.  Sets are bit masks while growing.
    """
    adj = [sum(1 << u for u in nbrs) for nbrs in graph.adjacency()]

    def grow(sub: int, near: int, ext: int, above: int, count: int) -> Iterator[int]:
        if count == size:
            yield sub
            return
        while ext:
            bit = ext & -ext
            ext ^= bit
            w = bit.bit_length() - 1
            yield from grow(sub | bit, near | adj[w], ext | (adj[w] & above & ~near),
                            above, count + 1)

    if size < 1:
        return
    for v in range(graph.num_physical):
        above = -1 << (v + 1)  # every node above v
        for sub in grow(1 << v, adj[v] | 1 << v, adj[v] & above, above, 1):
            nodes = []
            while sub:
                bit = sub & -sub
                nodes.append(bit.bit_length() - 1)
                sub ^= bit
            yield tuple(nodes)


def induced_edges(adj: tuple[frozenset[int], ...], nodes: tuple[int, ...]
                  ) -> tuple[tuple[int, int], ...]:
    """Sorted edges among `nodes` (a sorted tuple), relabelled 0..s-1 in order."""
    local = {v: i for i, v in enumerate(nodes)}
    return tuple(sorted((local[u], local[v]) for u in nodes for v in adj[u]
                        if v > u and v in local))


def induced_subgraph(graph: CouplingGraph, nodes: tuple[int, ...]) -> CouplingGraph:
    """The subgraph induced by `nodes` (sorted); node i is `nodes[i]`."""
    return CouplingGraph(len(nodes), frozenset(induced_edges(graph.adjacency(), nodes)),
                         f"{graph.name}{list(nodes)}")


def shape_invariant(num_nodes: int, edges) -> tuple:
    """An isomorphism invariant: the edge count, the degree sequence in
    descending order, and the sorted (degree, sorted neighbour degrees) of
    every node.  Isomorphic graphs share it; graphs that share it are
    isomorphic exactly when one `spans` the other, since a spanning
    subgraph with as many edges as the whole is the whole."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    return (len(edges), tuple(sorted(degree, reverse=True)),
            tuple(sorted((degree[v], tuple(sorted(degree[u] for u in adj[v])))
                         for v in range(num_nodes))))


def spans(big_edges, small_edges, size: int) -> bool:
    """True when the graph of `small_edges` is isomorphic to a spanning
    subgraph of the graph of `big_edges`, both on nodes 0..size-1.

    Edge counts and sorted degree sequences rule most pairs out.  The rest
    are decided by placing the small graph's nodes one at a time, each next
    to as many placed neighbours as possible, on an unused node of at least
    its degree that is adjacent to the places of all its placed neighbours.
    """
    if len(small_edges) > len(big_edges):
        return False
    small = [0] * size
    big = [0] * size
    for edges, adj in ((small_edges, small), (big_edges, big)):
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    small_deg = [a.bit_count() for a in small]
    big_deg = [a.bit_count() for a in big]
    if any(s > b for s, b in zip(sorted(small_deg), sorted(big_deg))):
        return False
    # placement order: most placed neighbours, then highest degree
    order: list[int] = []
    placed = 0
    while len(order) < size:
        u = max((v for v in range(size) if not placed >> v & 1),
                key=lambda v: ((small[v] & placed).bit_count(), small_deg[v], -v))
        order.append(u)
        placed |= 1 << u
    earlier = [[w for w in order[:i] if small[u] >> w & 1] for i, u in enumerate(order)]
    fits = [sum(1 << b for b in range(size) if big_deg[b] >= small_deg[u])
            for u in range(size)]
    image = [0] * size

    def place(i: int, used: int) -> bool:
        if i == size:
            return True
        u = order[i]
        cand = fits[u] & ~used
        for w in earlier[i]:
            cand &= big[image[w]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            image[u] = bit.bit_length() - 1
            if place(i + 1, used | bit):
                return True
        return False

    return place(0, 0)


def linear_graph(n: int) -> CouplingGraph:
    return CouplingGraph(n, frozenset((i, i + 1) for i in range(n - 1)), f"linear-{n}")


def grid_graph(rows: int, cols: int) -> CouplingGraph:
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.add((i, i + 1))
            if r + 1 < rows:
                edges.add((i, i + cols))
    return CouplingGraph(rows * cols, frozenset(edges), f"grid-{rows}x{cols}")


def _from_json_dict(data: dict, default_name: str) -> CouplingGraph:
    try:
        n = data["num_qubits"]
        raw_edges = data["edges"]
        name = data.get("name", default_name)
    except (KeyError, TypeError) as exc:
        raise CouplingError(f"malformed coupling file: {exc}") from exc
    # ids must be JSON integers: a float or a boolean would be read as another id
    if type(n) is not int or n < 0:
        raise CouplingError(f"num_qubits {n!r} is not a non-negative integer")
    if not isinstance(raw_edges, list):
        raise CouplingError(f"edges {raw_edges!r} is not a list")
    edges = set()
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(u) is int for u in e)):
            raise CouplingError(f"bad edge entry {e!r}: expected two integer ids")
        u, v = e
        edges.add((min(u, v), max(u, v)))
    return CouplingGraph(n, frozenset(edges), name)


def load_coupling(spec: str) -> CouplingGraph:
    """Resolve a platform spec: built-in name, linear-N, grid-RxC, or file:PATH."""
    spec = spec.strip()
    if spec in BUILTIN_PLATFORMS:
        path = resources.files("swapsat.data").joinpath(f"{spec}.json")
        return _from_json_dict(json.loads(path.read_text()), spec)
    if spec.startswith("linear-"):
        try:
            n = int(spec.split("-", 1)[1])
        except ValueError:
            raise CouplingError(f"bad linear spec {spec!r}") from None
        if n < 1:
            raise CouplingError(f"bad linear spec {spec!r}")
        return linear_graph(n)
    if spec.startswith("grid-"):
        try:
            r, c = spec.split("-", 1)[1].split("x")
            rows, cols = int(r), int(c)
        except ValueError:
            raise CouplingError(f"bad grid spec {spec!r}") from None
        if rows < 1 or cols < 1:
            raise CouplingError(f"bad grid spec {spec!r}")
        return grid_graph(rows, cols)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CouplingError(f"cannot read coupling file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CouplingError(f"malformed coupling file {path!r}: {exc}") from exc
        return _from_json_dict(data, path)
    raise CouplingError(f"unknown platform spec {spec!r}")
