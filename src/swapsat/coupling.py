"""Hardware coupling graphs: built-in platforms, generators, file loading.

Built-in platform edge lists live in data/*.json.  They come from vendor
documentation and community sources, not from any verified authority; each
file records its provenance in a "source" field.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from importlib import resources

BUILTIN_PLATFORMS = ("melbourne", "sycamore54", "rigetti80", "eagle127")


class CouplingError(ValueError):
    """Malformed coupling specification or invariant violation."""


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    edges: frozenset[tuple[int, int]]
    name: str = "coupling"

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise CouplingError(f"self-loop on qubit {u}")
            if not (0 <= u < v < self.num_physical):
                raise CouplingError(f"edge ({u},{v}) out of range or unnormalized")
        if self.num_physical > 0 and not self._connected():
            warnings.warn(f"coupling graph '{self.name}' is disconnected", stacklevel=3)

    def _connected(self) -> bool:
        if self.num_physical <= 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.num_physical

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.num_physical)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def connected(self, p: int, q: int) -> bool:
        return (min(p, q), max(p, q)) in self.edges


@dataclass(frozen=True)
class BridgePaths:
    """Distance-2 physical pairs and their common-neighbor middle qubits."""

    middles: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.middles)


def distance2_pairs(graph: CouplingGraph) -> BridgePaths:
    """Non-adjacent pairs with a common neighbour, found from each middle qubit."""
    middles: dict[tuple[int, int], list[int]] = {}
    for m, nbrs in enumerate(graph.adjacency()):
        for p in nbrs:
            for q in nbrs:
                if p < q and (p, q) not in graph.edges:
                    middles.setdefault((p, q), []).append(m)
    return BridgePaths({key: tuple(middles[key]) for key in sorted(middles)})


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
    edges = set()
    for e in raw_edges:
        if len(e) != 2:
            raise CouplingError(f"bad edge entry {e!r}")
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise CouplingError(f"self-loop on qubit {u}")
        edges.add((min(u, v), max(u, v)))
    return CouplingGraph(int(n), frozenset(edges), name)


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
