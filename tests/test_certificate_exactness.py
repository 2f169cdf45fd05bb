"""The certificate against the version that also substituted into the junction system.

``certify_equivalence`` checks only the network's local laws; the version
kept in ``certificate_reference.py`` then also substituted the heights and
x = U into ``junction_system``.  Both must give equal reports, with equal
value types, or the same exception, on the test tilings and on random
brick walls (``perfbench/gen.py``'s ``brick_wall``) over Q, Q(sqrt 2) and
Q(sqrt 3), each as sized or with its sizing corrupted: a tile moved
sideways or upwards, a height, a width or ``big_h`` changed, or more
current sent around a cycle of the network, with or without the widths
following Ohm's law.  Wherever the local laws hold the junction system
must hold too, and a certificate must build and substitute no junction
system at all.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

import certificate_reference as ref
import tilecircuit
from conftest import make_two_rows, perfbench_gen, tilings
from tilecircuit import QuadExt, correspondence, dissection, linear, load_dissection
from tilecircuit.correspondence import _obeys_circuit_laws, certify_equivalence
from tilecircuit.linear import Unique


def _walls():
    gen = perfbench_gen()
    walls = {}
    for radicand in (None, 2, 3):
        field = "Q" if radicand is None else f"Q(sqrt{radicand})"
        for n in (6, 20, 45):
            wall = gen.brick_wall(random.Random(n + (radicand or 0)), n, radicand)
            walls[f"{n}-tile wall over {field}"] = load_dissection(wall.sketch_json())
    return walls


def _sketch(d):
    """d with its rects dropped, so that a certificate sizes it."""
    return dataclasses.replace(d, tiles=[dataclasses.replace(t, rect=None) for t in d.tiles])


SKETCHES = {name: _sketch(d) for name, d in {**tilings(), **_walls()}.items()}


def _rect(sized, tid, change):
    """sized with tile tid's rect passed through change(x, y, w, h)."""
    tiles = [dataclasses.replace(t, rect=change(*t.rect)) if t.tid == tid else t
             for t in sized.tiles]
    return dataclasses.replace(sized, tiles=tiles)


def _middle(sized):
    return sized.tiles[len(sized.tiles) // 2].tid


def _cycle(net):
    """(resistor id, +1 or -1) around one cycle of the resistors, the sign
    +1 where the cycle runs from node_a to node_b; None for a tree."""
    root, paths = {}, {}

    def find(node):
        while root.get(node, node) != node:
            node = root[node]
        return node

    for r in net.resistors:
        a, b = find(r.node_a), find(r.node_b)
        if a == b:
            break
        root[a] = b
        paths.setdefault(r.node_a, []).append((r.node_b, r.rid, 1))
        paths.setdefault(r.node_b, []).append((r.node_a, r.rid, -1))
    else:
        return None
    # the tree path from node_b back to node_a closes the cycle through r
    back, frontier = {r.node_b: None}, [r.node_b]
    while r.node_a not in back:
        node = frontier.pop()
        for nxt, rid, sign in paths.get(node, ()):
            if nxt not in back:
                back[nxt] = (node, rid, sign)
                frontier.append(nxt)
    steps, node = [(r.rid, 1)], r.node_a
    while back[node] is not None:
        node, rid, sign = back[node]
        steps.append((rid, sign))
    return steps


def _circulation(sizing, delta, ohm):
    """The sizing with delta more current around one cycle of its network;
    each width follows Ohm's law when ohm is set.  Current stays conserved."""
    sized = sizing.sized
    steps = _cycle(correspondence.circuit_of_dissection(sized, sizing.cuts))
    if steps is None:
        return None
    for rid, sign in steps:
        tile = next(t for t in sized.tiles if t.tid == rid)

        def change(x, y, w, h, tile=tile, sign=sign):
            h = h + sign * delta
            return x, y, h * tile.aspect if ohm else w, h

        sized = _rect(sized, rid, change)
    return sized


# name -> corrupt(sizing, delta): the corrupted sized dissection, or None
# where the corruption does not apply
CORRUPTIONS = {
    "as sized": lambda s, e: s.sized,
    "moved tile": lambda s, e: _rect(s.sized, _middle(s.sized),
                                     lambda x, y, w, h: (x + e, y, w, h)),
    "raised tile": lambda s, e: _rect(s.sized, _middle(s.sized),
                                      lambda x, y, w, h: (x, y + e, w, h)),
    "height": lambda s, e: _rect(s.sized, _middle(s.sized),
                                 lambda x, y, w, h: (x, y, w, h + e)),
    "width": lambda s, e: _rect(s.sized, _middle(s.sized),
                                lambda x, y, w, h: (x, y, w + e, h)),
    "big height": lambda s, e: dataclasses.replace(s.sized, big_h=s.sized.big_h * 2),
    "circulation": lambda s, e: _circulation(s, e, ohm=False),
    "circulation under Ohm's law": lambda s, e: _circulation(s, e, ohm=True),
}


def _deltas(d):
    one = d.field.one
    if d.field.kind == "rational":
        return [one / 32, one / -7]
    return [one / 32, QuadExt(Fraction(0), Fraction(1, 97), d.field.d)]


def _sizings(d):
    """(corruption, delta, corrupted sizing) for every corruption that applies."""
    out = []
    for delta in _deltas(d):
        sizing = correspondence.solve_sizes(d)
        for name, corrupt in CORRUPTIONS.items():
            sized = corrupt(sizing, delta)
            if sized is not None:
                out.append((name, delta, dataclasses.replace(sizing, sized=sized)))
    return out


def _typed(report):
    if isinstance(report, tuple):  # an exception's type and message
        return report
    values = [(t.tile, t.vertical_side, t.current) for t in report.tiles]
    values += [report.battery_current, report.big_vertical, report.resistance,
               report.big_ratio, report.systems_agree]
    return repr([(type(v), v) for v in values]), report.mismatches()


def _outcome(certify, d):
    try:
        return certify(d)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _injected(monkeypatch, sizing):
    """Make the certificate read sizing, as the patched ``solve_sizes`` gives it."""
    monkeypatch.setattr(correspondence, "solve_sizes", lambda d: sizing)


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_certificate_matches_the_one_that_substituted(name, monkeypatch):
    d = SKETCHES[name]
    sized = correspondence.solve_sizes(d).sized
    for given in (d, sized):
        new, old = _outcome(certify_equivalence, given), _outcome(ref.certify_equivalence, given)
        assert new == old
        assert _typed(new) == _typed(old)
    seen = Counter()
    for corruption, delta, sizing in _sizings(d):
        with monkeypatch.context() as patch:
            _injected(patch, sizing)
            new = _outcome(certify_equivalence, d)
            old = _outcome(ref.certify_equivalence, d)
        assert new == old, (corruption, delta)
        assert _typed(new) == _typed(old), (corruption, delta)
        seen[corruption, new.ok] += 1
    # every corruption that changes a current, a width or a position is refused
    assert {c for c, ok in seen if ok} <= {"as sized", "raised tile"}, seen
    assert seen["as sized", True] == len(_deltas(d))


def test_the_two_row_circulation_of_heights_alone_is_refused_alike(monkeypatch):
    """The corruption ``test_correspondence.py`` refuses: heights moved around
    the two parallel tiles, widths kept."""
    d = make_two_rows(Fraction(1), Fraction(2))
    sizing = correspondence.solve_sizes(d)
    delta = Fraction(1, 10)
    sized = _rect(_rect(sizing.sized, 1, lambda x, y, w, h: (x, y, w, h + delta)),
                  2, lambda x, y, w, h: (x, y, w, h - delta))
    with monkeypatch.context() as patch:
        _injected(patch, dataclasses.replace(sizing, sized=sized))
        new, old = certify_equivalence(d), ref.certify_equivalence(d)
    assert new == old
    assert _typed(new) == _typed(old)
    assert not new.systems_agree


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_the_local_laws_imply_the_junction_system(name):
    """Where ``_obeys_circuit_laws`` holds, substituting the heights and
    x = U into the junction system holds too; a current moved around a
    cycle under Ohm's law breaks both."""
    held = Counter()
    for corruption, _, sizing in _sizings(SKETCHES[name]):
        sized = sizing.sized
        net = correspondence.circuit_of_dissection(sized, sizing.cuts)
        system = dissection.junction_system(sizing.cuts, sized.tiles, sized.field,
                                            sized.big_h)
        sides = Unique({**{f"v{t.tid}": t.rect[3] for t in sized.tiles},
                        "x": net.battery.voltage})
        laws = _obeys_circuit_laws(net, sized)
        junction = linear.substitute_and_verify(system, sides)
        assert junction or not laws, corruption
        if corruption == "circulation under Ohm's law":
            assert not junction and not laws
        held[corruption] += laws
    # the implication is tested where it has something to say
    assert held["as sized"] and held["raised tile"], held


def test_a_certificate_builds_no_junction_system(monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (tilecircuit, dissection, linear, correspondence):
        for name in ("junction_system", "substitute_and_verify"):
            if hasattr(module, name):
                counted(module, name)
    for name, d in SKETCHES.items():
        sized = correspondence.solve_sizes(d).sized
        assert certify_equivalence(d).ok, name
        assert certify_equivalence(sized).ok, name
    for _, _, sizing in _sizings(SKETCHES["20-tile wall over Q"]):
        with monkeypatch.context() as patch:
            _injected(patch, sizing)
            certify_equivalence(SKETCHES["20-tile wall over Q"])
    assert calls == Counter()
