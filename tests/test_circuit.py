import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    cramer_solve,
    random_connected_netlist,
    random_fraction,
)
from tilecircuit import (
    Battery,
    CircuitError,
    Netlist,
    QuadExt,
    Resistor,
    Unique,
    circuit_of_dissection,
    format_netlist,
    gauss_jordan,
    kirchhoff_system,
    load_dissection,
    parallel,
    parse_netlist,
    replace_resistor_with_network,
    resistance,
    series,
    solve_flow,
    symbolic_resistance,
)
from tilecircuit.fields import Poly, RatFunc


def two_in_series(r1, r2, u=Fraction(1)) -> Netlist:
    return Netlist(
        [Resistor(1, "a", "m", r1), Resistor(2, "m", "b", r2)],
        Battery("a", "b", u),
    )


def two_in_parallel(r1, r2, u=Fraction(1)) -> Netlist:
    return Netlist(
        [Resistor(1, "a", "b", r1), Resistor(2, "a", "b", r2)],
        Battery("a", "b", u),
    )


def wheatstone_all_ones() -> Netlist:
    edges = [
        (1, "left", "top"),
        (2, "top", "bottom"),
        (3, "bottom", "right"),
        (4, "top", "right"),
        (5, "left", "bottom"),
    ]
    return Netlist(
        [Resistor(rid, a, b, Fraction(1)) for rid, a, b in edges],
        Battery("left", "right", Fraction(1)),
    )


def test_series_basic():
    flow = solve_flow(two_in_series(Fraction(1), Fraction(1)))
    assert flow.battery_current == Fraction(1, 2)
    assert flow.total_resistance == Fraction(2)


def test_parallel_basic():
    assert resistance(two_in_parallel(Fraction(1), Fraction(1))) == Fraction(1, 2)


def test_kirchhoff_system_shape():
    net = two_in_series(Fraction(1), Fraction(1))
    system = kirchhoff_system(net)
    assert system.variables == ("I1", "I2", "I")
    # one dropped node equation: rows = nodes - 1 + fundamental cycles = edges
    assert len(system.rows) == 3


def test_equation_count_matches_edge_count_on_random_graphs(rng):
    for _ in range(25):
        net = random_connected_netlist(rng)
        system = kirchhoff_system(net)
        assert len(system.rows) == len(net.resistors) + 1
        assert len(system.variables) == len(net.resistors) + 1


def test_current_law_rows_match_per_node_scan(rng):
    # every kept node's row: +1 where a resistor leaves it, -1 where one
    # enters; a self-loop contributes both and cancels
    for _ in range(25):
        net = random_connected_netlist(rng)
        node = net.nodes[0]
        loop = Resistor(max(r.rid for r in net.resistors) + 1, node, node, Fraction(2))
        net = Netlist(list(net.resistors) + [loop], net.battery)
        system = kirchhoff_system(net)
        kept = [n for n in net.nodes if n != net.battery.minus]
        for n, (coeffs, rhs) in zip(kept, system.rows):
            expected = [
                (r.node_a == n) - (r.node_b == n) for r in net.resistors
            ] + [-(n == net.battery.plus)]
            assert list(coeffs) == expected
            assert rhs == 0
        assert gauss_jordan(system).assignment[f"I{loop.rid}"] == 0


def test_series_parallel_formulas_match_networks(rng):
    for _ in range(20):
        r1, r2 = random_fraction(rng), random_fraction(rng)
        assert resistance(two_in_series(r1, r2)) == series(r1, r2)
        assert resistance(two_in_parallel(r1, r2)) == parallel(r1, r2)


def test_wheatstone_matches_cramer():
    net = wheatstone_all_ones()
    system = kirchhoff_system(net)
    reference = cramer_solve(
        [list(coeffs) for coeffs, _ in system.rows],
        [rhs for _, rhs in system.rows],
    )
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Unique)
    for var, value in zip(system.variables, reference):
        assert outcome.assignment[var] == value
    # balanced bridge: no current through the middle, total resistance 1
    flow = solve_flow(net)
    assert flow.edge_current[2] == 0
    assert flow.total_resistance == Fraction(1)


def test_uniqueness_and_positivity_on_random_corpus(rng):
    for _ in range(60):
        net = random_connected_netlist(rng)
        outcome = gauss_jordan(kirchhoff_system(net))
        assert isinstance(outcome, Unique)
        flow = solve_flow(net)
        assert flow.total_resistance > 0


def test_zero_voltage_means_zero_flow(rng):
    for _ in range(20):
        net = random_connected_netlist(rng)
        dead = Netlist(
            net.resistors,
            Battery(net.battery.plus, net.battery.minus, Fraction(0)),
        )
        flow = solve_flow(dead)
        assert flow.battery_current == 0
        assert all(c == 0 for c in flow.edge_current.values())
        assert flow.total_resistance is None


def test_potential_endpoints_and_drops():
    net = two_in_series(Fraction(3), Fraction(5))
    flow = solve_flow(net)
    assert flow.potential["a"] - flow.potential["b"] == Fraction(1)
    # the drop across each resistor is current times resistance
    assert flow.potential["a"] - flow.potential["m"] == flow.edge_current[1] * 3
    assert flow.potential["m"] - flow.potential["b"] == flow.edge_current[2] * 5


def test_potential_is_path_independent(rng):
    for _ in range(15):
        net = random_connected_netlist(rng)
        flow = solve_flow(net)
        values = {r.rid: r.value for r in net.resistors}
        # walk 3 random resistor paths from plus to a random node and
        # re-accumulate the potential independently
        adjacency = {}
        for r in net.resistors:
            adjacency.setdefault(r.node_a, []).append((r.rid, r.node_b, 1))
            adjacency.setdefault(r.node_b, []).append((r.rid, r.node_a, -1))
        nodes = net.nodes
        for _ in range(3):
            target = rng.choice(nodes)
            # random DFS positions every node via resistor edges only
            stack = [(net.battery.plus, flow.potential[net.battery.plus])]
            seen = {net.battery.plus}
            reached = {net.battery.plus: flow.potential[net.battery.plus]}
            while stack:
                node, phi = stack.pop()
                neighbors = list(adjacency.get(node, ()))
                rng.shuffle(neighbors)
                for rid, other, sense in neighbors:
                    if other in seen:
                        continue
                    seen.add(other)
                    drop = flow.edge_current[rid] * values[rid]
                    reached[other] = phi - drop if sense > 0 else phi + drop
                    stack.append((other, reached[other]))
            assert reached[target] == flow.potential[target]


def test_linearity_in_the_source(rng):
    for _ in range(10):
        net = random_connected_netlist(rng)
        s = random_fraction(rng)
        scaled = Netlist(
            net.resistors,
            Battery(net.battery.plus, net.battery.minus, net.battery.voltage * s),
        )
        base = solve_flow(net)
        boosted = solve_flow(scaled)
        assert boosted.battery_current == base.battery_current * s
        for rid, current in base.edge_current.items():
            assert boosted.edge_current[rid] == current * s
        assert boosted.total_resistance == base.total_resistance


def test_series_parallel_construction_tree_oracle(rng):
    # random construction trees evaluated two ways: by the series/parallel
    # formulas and by solving the realized network
    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return ("leaf", random_fraction(rng))
        return (rng.choice(("series", "parallel")), build(depth - 1), build(depth - 1))

    def formula(tree):
        if tree[0] == "leaf":
            return tree[1]
        if tree[0] == "series":
            return series(formula(tree[1]), formula(tree[2]))
        return parallel(formula(tree[1]), formula(tree[2]))

    def realize(tree, a, b, resistors, fresh):
        if tree[0] == "leaf":
            resistors.append(Resistor(len(resistors) + 1, a, b, tree[1]))
        elif tree[0] == "series":
            mid = f"m{next(fresh)}"
            realize(tree[1], a, mid, resistors, fresh)
            realize(tree[2], mid, b, resistors, fresh)
        else:
            realize(tree[1], a, b, resistors, fresh)
            realize(tree[2], a, b, resistors, fresh)

    from itertools import count

    for _ in range(15):
        tree = build(3)
        resistors = []
        realize(tree, "a", "b", resistors, count())
        net = Netlist(resistors, Battery("a", "b", Fraction(1)))
        assert resistance(net) == formula(tree)


def test_symbolic_series_and_parallel():
    t = RatFunc.t()
    one = RatFunc.constant(1)
    net = Netlist(
        [Resistor(1, "a", "m", one), Resistor(2, "m", "b", t)],
        Battery("a", "b", one),
    )
    assert symbolic_resistance(net) == t + one
    net = Netlist(
        [Resistor(1, "a", "b", one), Resistor(2, "a", "b", t)],
        Battery("a", "b", one),
    )
    assert symbolic_resistance(net) == t / (t + one)


def test_symbolic_evaluation_matches_instances(rng):
    t = RatFunc.t()
    one = RatFunc.constant(1)
    net = Netlist(
        [
            Resistor(1, "a", "m", t),
            Resistor(2, "m", "b", RatFunc.constant(2)),
            Resistor(3, "a", "b", t),
            Resistor(4, "a", "m", one),
        ],
        Battery("a", "b", one),
    )
    formula = symbolic_resistance(net)
    for _ in range(5):
        t0 = random_fraction(rng)
        instantiated = Netlist(
            [
                Resistor(1, "a", "m", t0),
                Resistor(2, "m", "b", Fraction(2)),
                Resistor(3, "a", "b", t0),
                Resistor(4, "a", "m", Fraction(1)),
            ],
            Battery("a", "b", Fraction(1)),
        )
        assert formula.eval(t0) == resistance(instantiated)


def test_symbolic_requires_unit_battery():
    t = RatFunc.t()
    net = Netlist(
        [Resistor(1, "a", "b", t)], Battery("a", "b", RatFunc.constant(2))
    )
    with pytest.raises(CircuitError):
        symbolic_resistance(net)


def test_replace_resistor_by_series_pair():
    net = two_in_series(Fraction(2), Fraction(3))
    inner = two_in_series(Fraction(1), Fraction(1))
    merged = replace_resistor_with_network(net, 1, inner)
    base = solve_flow(net)
    after = solve_flow(merged)
    assert after.total_resistance == base.total_resistance
    assert after.edge_current[2] == base.edge_current[2]


def test_replace_resistor_value_mismatch_rejected():
    net = two_in_series(Fraction(2), Fraction(3))
    inner = two_in_series(Fraction(1), Fraction(3))  # resistance 4 != 2
    with pytest.raises(CircuitError):
        replace_resistor_with_network(net, 1, inner)


def test_replace_single_resistor_network_is_isomorphic():
    net = two_in_series(Fraction(2), Fraction(3))
    inner = Netlist(
        [Resistor(1, "p", "q", Fraction(2))], Battery("p", "q", Fraction(1))
    )
    merged = replace_resistor_with_network(net, 1, inner)
    assert len(merged.resistors) == len(net.resistors)
    assert resistance(merged) == resistance(net)


def test_composition_preserves_outer_flow_randomly(rng):
    for _ in range(10):
        net = random_connected_netlist(rng)
        victim = rng.choice(net.resistors)
        half = victim.value / 2
        if rng.random() < 0.5:
            inner = two_in_series(half, half)
        else:
            inner = two_in_parallel(victim.value * 2, victim.value * 2)
        merged = replace_resistor_with_network(net, victim.rid, inner)
        base = solve_flow(net)
        after = solve_flow(merged)
        assert after.total_resistance == base.total_resistance
        for r in net.resistors:
            if r.rid != victim.rid:
                assert after.edge_current[r.rid] == base.edge_current[r.rid]


def test_netlist_validation_errors():
    with pytest.raises(CircuitError):
        Netlist([], Battery("a", "a", Fraction(1)))
    with pytest.raises(CircuitError):
        Netlist(
            [Resistor(1, "a", "b", Fraction(-1))], Battery("a", "b", Fraction(1))
        )
    with pytest.raises(CircuitError):
        Netlist(
            [Resistor(1, "a", "b", Fraction(1)), Resistor(1, "b", "c", Fraction(1))],
            Battery("a", "b", Fraction(1)),
        )
    with pytest.raises(CircuitError):
        Netlist(
            [Resistor(1, "a", "b", Fraction(1)), Resistor(2, "c", "d", Fraction(1))],
            Battery("a", "b", Fraction(1)),
        )


def test_dead_end_battery_detected():
    # battery on a bridge: connected, but no closed path through the source
    net = Netlist(
        [Resistor(1, "b", "c", Fraction(1))], Battery("a", "b", Fraction(1))
    )
    with pytest.raises(CircuitError):
        solve_flow(net)


def test_netlist_text_round_trip():
    text = """
# a comment
N a
R 1 a m 3/4
R 2 m b 1 + sqrt(2)
V a b 2
"""
    # a quadratic scalar anywhere promotes the whole file to Q(sqrt(2))
    net = parse_netlist(text)
    assert net.resistor(2).value == QuadExt(1, 1, 2)
    # rational-only netlists round-trip through format_netlist
    simple = two_in_series(Fraction(3, 4), Fraction(2))
    assert parse_netlist(format_netlist(simple)).resistors == simple.resistors


def test_a_node_declaration_names_an_endpoint():
    """An isolated node leaves the graph disconnected, so ``format_netlist``
    has no node that only an ``N`` line names."""
    with pytest.raises(CircuitError, match="^netlist graph is not connected$"):
        parse_netlist("N z\nR 1 a b 1\nV a b 1\n")
    net = parse_netlist("N a\nR 1 a b 1\nV a b 1\n")
    assert net.nodes == ("a", "b")
    assert format_netlist(net) == "R 1 a b 1\nV a b 1\n"


def test_netlist_symbolic_parse():
    text = "R 1 a b t\nR 2 a b 3/2\nV a b 1\n"
    net = parse_netlist(text, symbolic=True)
    assert net.resistor(1).value == RatFunc.t()
    assert net.resistor(2).value == RatFunc.constant(Fraction(3, 2))
    assert symbolic_resistance(net) == RatFunc(
        Poly([0, Fraction(3, 2)]), Poly([Fraction(3, 2), 1])
    )


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("make", [
    lambda: parse_netlist((DATA / "net_series_1_1.txt").read_text()),
    lambda: parse_netlist((DATA / "net_parallel_1_t.txt").read_text(), symbolic=True),
    lambda: circuit_of_dissection(load_dissection((DATA / "shelf.json").read_text())),
], ids=["parsed", "symbolic", "shelf"])
def test_netlist_copies_and_pickles(make):
    net = make()
    for clone in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert type(clone) is Netlist
        assert clone.nodes == net.nodes
        assert clone.resistors == net.resistors
        assert clone.battery == net.battery
        assert clone.declared_nodes == net.declared_nodes
        assert format_netlist(clone) == format_netlist(net)
        assert resistance(clone) == resistance(net)
