"""``kirchhoff_system`` against the tree-path builder it replaced.

The builder in ``kirchhoff_reference.py`` builds the spanning tree again
and walks each fundamental cycle through explicit root paths; the library
reads the tree its ``Netlist`` kept and writes every voltage-law row from
signed walks up to the root.  Both must give the same variables and the
same rows, with the same coefficient types, on random connected netlists
with self-loops and parallel edges over Q and Q(sqrt d), on symbolic
netlists and on the networks of dissections.  A symbolic resistance of
``0`` or ``-t`` is refused when the netlist is built.  A certificate
builds no spanning tree while its laws hold, and one to name a mismatch.
"""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

import kirchhoff_reference as ref
from conftest import corpus, make_five_similar, make_shelf
from tilecircuit import (
    Battery,
    InputError,
    Netlist,
    QuadExt,
    Resistor,
    certify_equivalence,
    circuit_of_dissection,
    kirchhoff_system,
    ladder_dissection,
    load_dissection,
    load_ladder,
    theorem1_certificate,
)
from tilecircuit import circuit, correspondence
from tilecircuit.fields import parse_symbolic_scalar

DATA = Path(__file__).parent / "data"
SYMBOLIC = [parse_symbolic_scalar(s) for s in ("t", "2*t", "1/3*t", "1", "5/2")]


def assert_same_system(net):
    new, old = kirchhoff_system(net), ref.kirchhoff_system(net)
    assert new.variables == old.variables
    assert len(new.rows) == len(old.rows)
    for (coeffs, rhs), (old_coeffs, old_rhs) in zip(new.rows, old.rows):
        assert coeffs == old_coeffs
        assert [type(c) for c in coeffs] == [type(c) for c in old_coeffs]
        assert rhs == old_rhs
        assert type(rhs) is type(old_rhs)


def random_multigraph(rng, value, voltage):
    """Connected netlist with random orientations, parallel edges and self-loops."""
    n = rng.randint(2, 7)
    nodes = [f"n{i}" for i in range(n)]
    rng.shuffle(nodes)
    ends = [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, 8)):
        a = rng.choice(nodes)
        # a self-loop, an edge parallel to an earlier one, or any pair
        ends.append(rng.choice([(a, a), rng.choice(ends), (a, rng.choice(nodes))]))
    resistors = []
    for rid, (a, b) in enumerate(ends, start=rng.randint(1, 5)):
        if rng.random() < 0.5:
            a, b = b, a
        resistors.append(Resistor(rid, a, b, value(rng)))
    rng.shuffle(resistors)
    plus, minus = rng.sample(nodes, 2)
    return Netlist(resistors, Battery(plus, minus, voltage(rng)))


def rational(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def quadratic(d):
    def draw(rng):
        # positive: a rational part above |b| * sqrt(d)
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return QuadExt(abs(b) * 4 + rational(rng), b, d)
    return draw


@pytest.mark.parametrize("seed", range(120))
def test_rows_match_reference_over_q(seed):
    rng = random.Random(seed)
    assert_same_system(random_multigraph(rng, rational, rational))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_rows_match_reference_over_quadratic_fields(d):
    rng = random.Random(d)
    for _ in range(25):
        # the battery sometimes stays rational while the resistors do not
        voltage = rng.choice([rational, quadratic(d)])
        assert_same_system(random_multigraph(rng, quadratic(d), voltage))


def test_rows_match_reference_on_symbolic_netlists():
    rng = random.Random(7)
    for _ in range(40):
        assert_same_system(
            random_multigraph(rng, lambda r: r.choice(SYMBOLIC), lambda r: r.choice(SYMBOLIC))
        )


@pytest.mark.parametrize("text", ["0", "-1*t"])
def test_nonpositive_symbolic_resistances_are_refused(text):
    one = parse_symbolic_scalar("1")
    with pytest.raises(InputError, match="resistor 2 has nonpositive resistance"):
        Netlist(
            [Resistor(1, "a", "b", one), Resistor(2, "a", "b", parse_symbolic_scalar(text))],
            Battery("a", "b", one),
        )


def dissection_networks():
    dissections = dict(corpus())
    for name in ("wall_sqrt2", "wall_sqrt5"):
        dissections[name] = load_dissection((DATA / f"{name}.json").read_text())
    ladder = load_ladder((DATA / "ladder_sqrt3.json").read_text())
    dissections["ladder_sqrt3"] = ladder_dissection(ladder)
    return {name: circuit_of_dissection(d) for name, d in dissections.items()}


@pytest.mark.parametrize("name, net", sorted(dissection_networks().items()))
def test_rows_match_reference_on_dissection_networks(name, net):
    assert_same_system(net)
    rng = random.Random(name)
    symbolic = Netlist(
        [Resistor(r.rid, r.node_a, r.node_b, rng.choice(SYMBOLIC)) for r in net.resistors],
        Battery(net.battery.plus, net.battery.minus, SYMBOLIC[3]),
    )
    assert_same_system(symbolic)


def count_spanning_trees(monkeypatch):
    calls = []
    build = circuit._spanning_tree

    def counted(net):
        calls.append(net)
        return build(net)

    monkeypatch.setattr(circuit, "_spanning_tree", counted)
    return calls


def test_one_spanning_tree_per_shelf_certificate(monkeypatch):
    """A certificate whose sizes obey the laws builds no network, so no
    tree; a refused one builds the tree of the network it solves, once."""
    d = make_shelf()
    calls = count_spanning_trees(monkeypatch)
    assert certify_equivalence(d).systems_agree
    assert len(calls) == 0
    sizing = correspondence.solve_sizes(d)
    x, y, w, h = sizing.sized.tiles[-1].rect
    tiles = sizing.sized.tiles[:-1] + (
        dataclasses.replace(sizing.sized.tiles[-1], rect=(x, y, w, h + Fraction(1, 32))),)
    corrupted = dataclasses.replace(sizing.sized, tiles=tiles)
    monkeypatch.setattr(correspondence, "solve_sizes",
                        lambda _: dataclasses.replace(sizing, sized=corrupted))
    assert not certify_equivalence(d).systems_agree
    assert len(calls) == 1


def test_one_spanning_tree_per_theorem1_certificate(monkeypatch):
    d = make_five_similar()
    calls = count_spanning_trees(monkeypatch)
    assert not theorem1_certificate(d).is_zero
    assert len(calls) == 1
