"""``symbolic_resistance`` against sympy on random ladders and bridges.

sympy solves the grounded nodal equations L(-) v = e(+) over Q(t) with a
unit current injected at the plus terminal, so the resistance is v(+);
this shares neither the matrix-tree determinants nor the Kirchhoff rows
with the library.  Resistances are ``c``, ``c*t`` and positive sums,
products and quotients of them, so numerators and denominators of degree
above one appear.
"""

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from test_symbolic_exactness import ONE, VALUE
from tilecircuit import Battery, Netlist, Resistor, symbolic_resistance

t = sympy.Symbol("t")
QT = sympy.QQ.frac_field(t)  # exact arithmetic in Q(t)


def as_qt(value):
    def poly(p):
        return QT.convert(sum(sympy.Rational(c.numerator, c.denominator) * t**k
                              for k, c in enumerate(p.coeffs)))
    return poly(value.num) / poly(value.den)


def sympy_resistance(net):
    nodes = [n for n in net.nodes if n != net.battery.minus]
    index = {n: i for i, n in enumerate(nodes)}
    lap = [[QT.zero] * len(nodes) for _ in nodes]
    for r in net.resistors:
        g = QT.one / as_qt(r.value)
        for u, v in ((r.node_a, r.node_b), (r.node_b, r.node_a)):
            if u in index:
                lap[index[u]][index[u]] += g
                if v in index:
                    lap[index[u]][index[v]] -= g
    current = [[QT.one if n == net.battery.plus else QT.zero] for n in nodes]
    v = DomainMatrix(lap, (len(nodes),) * 2, QT).lu_solve(
        DomainMatrix(current, (len(nodes), 1), QT))
    return v.to_list()[index[net.battery.plus]][0]


def assert_agrees(net):
    assert as_qt(symbolic_resistance(net)) == sympy_resistance(net)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(VALUE, VALUE), min_size=1, max_size=4))
def test_ladders_agree_with_sympy(rungs):
    """Series resistor s_i from node i-1 to i, then shunt p_i from i to ground."""
    resistors = []
    for i, (s, p) in enumerate(rungs, start=1):
        resistors.append(Resistor(2 * i - 1, f"n{i - 1}", f"n{i}", s))
        resistors.append(Resistor(2 * i, f"n{i}", "g", p))
    assert_agrees(Netlist(resistors, Battery("n0", "g", ONE)))


@settings(max_examples=50, deadline=None)
@given(st.lists(VALUE, min_size=5, max_size=5), st.booleans())
def test_bridges_agree_with_sympy(values, reverse_bridge):
    """The Wheatstone bridge a-c, a-d, c-b, d-b with the bridge c-d."""
    ends = [("a", "c"), ("a", "d"), ("c", "b"), ("d", "b"),
            ("d", "c") if reverse_bridge else ("c", "d")]
    resistors = [Resistor(i, x, y, v) for i, ((x, y), v) in enumerate(zip(ends, values), 1)]
    assert_agrees(Netlist(resistors, Battery("a", "b", ONE)))
