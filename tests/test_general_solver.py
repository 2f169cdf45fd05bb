"""The general solver against the pipeline's kernels on a 264-tile wall.

No pipeline of the package calls ``gauss_jordan``: sizing and flows run on
the grounded Laplacian kernel.  The hypothesis tests of the general solver
draw systems of a few rows; these check it at pipeline scale.  On the
network of a 264-tile staggered brick wall over Q (``perfbench/gen.py``'s
``brick_wall``), ``gauss_jordan(kirchhoff_system(net))`` must give exactly
the currents and battery current of ``solve_flow``, and on the wall's
junction system it must give exactly the heights and width of
``solve_sizes``, with the same value types.
"""

import random

import pytest

from conftest import perfbench_gen
from tilecircuit import (
    Unique,
    circuit_of_dissection,
    gauss_jordan,
    junction_system,
    kirchhoff_system,
    load_dissection,
    solve_flow,
    solve_sizes,
)

TILES = 264


@pytest.fixture(scope="module")
def wall():
    sketch = perfbench_gen().brick_wall(random.Random(TILES), TILES).sketch_json()
    return load_dissection(sketch)


def typed(values: dict) -> dict:
    return {key: (type(value), value) for key, value in values.items()}


def test_kirchhoff_elimination_gives_the_flow_of_a_wall(wall):
    net = circuit_of_dissection(wall)
    assert len(net.resistors) == TILES
    outcome = gauss_jordan(kirchhoff_system(net))
    assert isinstance(outcome, Unique)
    flow = solve_flow(net)
    currents = {f"I{rid}": current for rid, current in flow.edge_current.items()}
    assert typed(outcome.assignment) == typed({**currents, "I": flow.battery_current})


def test_junction_elimination_gives_the_sizes_of_a_wall(wall):
    sizing = solve_sizes(wall)
    sized = sizing.sized
    system = junction_system(sizing.cuts, wall.tiles, wall.field)
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Unique)
    heights = {f"v{t.tid}": t.rect[3] for t in sized.tiles}
    assert typed(outcome.assignment) == typed({**heights, "x": sized.big_w})
