"""The certificate's grid builder as it stood in two paths, kept as a test oracle.

``fields._on_grid`` now reads every value as a triple (p, q, r) and runs
one lcm loop and one split for Q and Q(sqrt d) alike.  These are the two
copies it replaced, verbatim: a rational path that hands a set of groups
holding anything but ``Fraction`` and ``int`` to a quadratic one.
``test_grid_builder.py`` requires the same L, values and types from both.
"""

import math
from fractions import Fraction
from itertools import chain

from tilecircuit.fields import _GRID_CHUNK, _GRID_MAX_BITS, QuadExt, _IntQuad


def _on_grid(*groups):
    """The groups times one L > 0, and L.

    When every value is a ``Fraction`` or an ``int`` and their common
    denominator fits in ``_GRID_MAX_BITS``, L is that denominator and each
    group comes back as a list of ints.  When the values are ``QuadExt``
    elements of one radicand d, mixed with ``Fraction`` and ``int``, and
    the lcm of their triples' r fits, L is that lcm and each group comes
    back as a list of ``_IntQuad``, elements of Z[sqrt(d)].  Otherwise
    L = 1 and the groups come back as given.
    """
    nums, dens = [], []
    for v in chain(*groups):
        if type(v) is Fraction:
            nums.append(v._numerator)
            dens.append(v._denominator)
        elif type(v) is int:
            nums.append(v)
            dens.append(1)
        else:
            return _on_quad_grid(groups)
    distinct = list(set(dens))
    lcm = 1
    for k in range(0, len(distinct), _GRID_CHUNK):
        lcm = math.lcm(lcm, *distinct[k:k + _GRID_CHUNK])
        if lcm.bit_length() > _GRID_MAX_BITS:
            return groups, 1
    scale = {den: lcm // den for den in distinct}
    ints = [n * scale[den] for n, den in zip(nums, dens)]
    split, start = [], 0
    for group in groups:
        split.append(ints[start:start + len(group)])
        start += len(group)
    return split, lcm


def _on_quad_grid(groups):
    """``_on_grid`` past a value that is not a ``Fraction`` or an ``int``:
    the rational grid's steps over the triples (p, q, r) of one radicand."""
    triples, d = [], None
    for v in chain(*groups):
        if type(v) is QuadExt:
            if d is None:
                d = v.d
            elif v.d != d:
                return groups, 1
            triples.append((v._p, v._q, v._r))
        elif type(v) is Fraction:
            triples.append((v._numerator, 0, v._denominator))
        elif type(v) is int:
            triples.append((v, 0, 1))
        else:
            return groups, 1
    distinct = list({r for _, _, r in triples})
    lcm = 1
    for k in range(0, len(distinct), _GRID_CHUNK):
        lcm = math.lcm(lcm, *distinct[k:k + _GRID_CHUNK])
        if lcm.bit_length() > _GRID_MAX_BITS:
            return groups, 1
    scale = {r: lcm // r for r in distinct}
    values = [_IntQuad(p * scale[r], q * scale[r], d) for p, q, r in triples]
    split, start = [], 0
    for group in groups:
        split.append(values[start:start + len(group)])
        start += len(group)
    return split, lcm
