"""The one grid builder against the two copies it replaced.

``fields._on_grid`` reads every value as a triple (p, q, r) and scales
Q and Q(sqrt d) values by one path; ``grid_reference.py`` keeps the two
paths it merged.  On groups of ints, ``Fraction``s (some past the
4,096-bit cap), ``bool``, ``QuadExt`` of d = 2 and 3, alone and mixed,
``RatFunc`` and empty groups, both must give the same L, values of the
same types and components, and, where they give L = 1 and the values as
given, the very group objects they were handed.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import grid_reference as ref
from tilecircuit import QuadExt, RatFunc
from tilecircuit.fields import _GRID_MAX_BITS, _IntQuad, _on_grid

PAST_THE_CAP = 2**_GRID_MAX_BITS + 1

VALUES = {
    "int": st.integers(-10**20, 10**20),
    "Fraction": st.fractions(max_denominator=10**6),
    "Fraction past the cap": st.builds(Fraction, st.integers(-9, 9), st.just(PAST_THE_CAP)),
    "bool": st.booleans(),
    "QuadExt sqrt 2": st.builds(QuadExt, st.fractions(max_denominator=99),
                                st.fractions(max_denominator=99), st.just(2)),
    "QuadExt sqrt 2 past the cap": st.builds(
        QuadExt, st.fractions(max_denominator=9),
        st.builds(Fraction, st.integers(-9, 9), st.just(PAST_THE_CAP)), st.just(2)),
    "QuadExt sqrt 3": st.builds(QuadExt, st.fractions(max_denominator=99),
                                st.fractions(max_denominator=99), st.just(3)),
    "RatFunc": st.builds(lambda c, e: RatFunc.t() * c + RatFunc.constant(e),
                         st.fractions(max_denominator=9), st.fractions(max_denominator=9)),
}

GROUPS = st.sets(st.sampled_from(sorted(VALUES)), min_size=1).flatmap(
    lambda kinds: st.lists(
        st.lists(st.one_of(*(VALUES[k] for k in sorted(kinds))), max_size=12), max_size=4))


def _described(v):
    if type(v) is _IntQuad:
        return _IntQuad, (type(v.p), v.p), (type(v.q), v.q), (type(v.d), v.d)
    return type(v), v


def _grid(builder, groups):
    """(L, as given, values): whether each group came back as the very
    object handed in, and the values, each with its type and components."""
    out, scale = builder(*groups)
    as_given = type(out) is tuple and all(a is b for a, b in zip(out, groups))
    values = [[_described(v) for v in group] for group in out]
    return (type(scale), scale), as_given, len(out), values


@settings(max_examples=400, deadline=None)
@given(GROUPS)
def test_one_grid_builder_matches_the_two_paths(groups):
    assert _grid(_on_grid, groups) == _grid(ref._on_grid, groups)


def test_empty_and_trivial_groups_match_the_two_paths():
    for groups in ([], [[]], [[], []], [[Fraction(1, 2)], []], [[True]], [[0], [False]],
                   [[QuadExt(Fraction(1), Fraction(1), 2)], [QuadExt(Fraction(1), Fraction(1), 3)]]):
        assert _grid(_on_grid, groups) == _grid(ref._on_grid, groups), groups
