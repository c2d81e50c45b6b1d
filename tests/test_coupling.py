import json

import pytest

from swapsat.coupling import (
    BUILTIN_PLATFORMS,
    CouplingError,
    CouplingGraph,
    distance2_pairs,
    grid_graph,
    linear_graph,
    load_coupling,
)


def test_linear_graph():
    g = linear_graph(4)
    assert g.num_physical == 4
    assert g.connected(0, 1) and g.connected(2, 1)
    assert not g.connected(0, 2)
    unconnected = [(p, q) for p in range(4) for q in range(p + 1, 4) if not g.connected(p, q)]
    assert unconnected == [(0, 2), (0, 3), (1, 3)]


def test_grid_graph():
    g = grid_graph(2, 3)
    assert g.num_physical == 6
    assert g.connected(0, 1) and g.connected(0, 3) and g.connected(2, 5)
    assert not g.connected(0, 4)
    assert len(g.edges) == 7


def test_edge_normalization_and_validation():
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
    assert g.connected(1, 0)
    with pytest.raises(CouplingError):
        CouplingGraph(3, frozenset({(1, 1)}))
    with pytest.raises(CouplingError):
        CouplingGraph(3, frozenset({(2, 1)}))  # unnormalized order
    with pytest.raises(CouplingError):
        CouplingGraph(2, frozenset({(0, 5)}))


def test_disconnected_warns():
    with pytest.warns(UserWarning, match="disconnected"):
        CouplingGraph(4, frozenset({(0, 1)}), "frag")


@pytest.mark.parametrize("name,qubits,edges", [
    ("melbourne", 14, 18),
    ("sycamore54", 54, 85),
    ("rigetti80", 80, 106),
    ("eagle127", 127, 144),
])
def test_builtin_platforms(name, qubits, edges):
    g = load_coupling(name)
    assert g.num_physical == qubits
    assert len(g.edges) == edges
    assert g._connected()


def test_builtin_list_is_complete():
    assert set(BUILTIN_PLATFORMS) == {"melbourne", "sycamore54", "rigetti80", "eagle127"}


def test_load_generators_and_errors(tmp_path):
    assert load_coupling("linear-7").num_physical == 7
    assert load_coupling("grid-3x3").num_physical == 9
    with pytest.raises(CouplingError):
        load_coupling("linear-x")
    with pytest.raises(CouplingError):
        load_coupling("grid-0x2")
    with pytest.raises(CouplingError):
        load_coupling("atlantis")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "tiny", "num_qubits": 3, "edges": [[0, 1], [2, 1]]}))
    g = load_coupling(f"file:{path}")
    assert g.name == "tiny" and g.connected(1, 2)
    with pytest.raises(CouplingError):
        load_coupling(f"file:{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"edges\": []}")
    with pytest.raises(CouplingError):
        load_coupling(f"file:{bad}")


def test_distance2_pairs():
    g = linear_graph(4)
    paths = distance2_pairs(g)
    assert paths.middles == {(0, 2): (1,), (1, 3): (2,)}
    grid = grid_graph(2, 2)
    # opposite corners have two middle choices
    assert distance2_pairs(grid).middles[(0, 3)] == (1, 2)
    assert not distance2_pairs(CouplingGraph(2, frozenset({(0, 1)})))


@pytest.mark.parametrize("spec", BUILTIN_PLATFORMS + ("grid-3x3",))
def test_distance2_pairs_matches_all_pairs_scan(spec):
    g = load_coupling(spec)
    adj = g.adjacency()
    expected = {}
    for p in range(g.num_physical):
        for q in range(p + 1, g.num_physical):
            common = sorted(adj[p] & adj[q])
            if common and not g.connected(p, q):
                expected[(p, q)] = tuple(common)
    assert distance2_pairs(g).middles == expected
