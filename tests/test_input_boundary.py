"""Every parser either returns a value or raises ``InputError``.

The command line maps ``InputError`` to exit 2, so any other exception that
escapes a parser would reach the user as a traceback or a wrong exit code.
The same near-valid netlist files also go through ``cli.run`` end to end.
"""

import contextlib
import copy
import io
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from tilecircuit import (
    InputError,
    IntPoly,
    dissection_from_json,
    parse_intpoly,
    parse_netlist,
    parse_quadext,
    parse_rational,
)
from tilecircuit.algcheck import _has_rational_root
from tilecircuit.cli import run

SCALAR_ALPHABET = "0123456789/+-*. sqrt()t"
POSITIVE = st.from_regex(r"[1-9]\d{0,2}(/[1-9]\d{0,2})?", fullmatch=True)
NUMERAL = st.from_regex(r"[+-]?\d{1,12}(/\d{1,4})?", fullmatch=True)
SCALAR = st.one_of(
    st.text(),
    st.text(alphabet=SCALAR_ALPHABET, max_size=20),
    NUMERAL,
    st.builds(lambda a, r: f"{a} + {r}", NUMERAL,
              st.from_regex(r"(\d{1,3}\*)?sqrt\(\d{1,12}\)", fullmatch=True)),
)


def value_or_input_error(call, *args):
    try:
        return call(*args)
    except InputError:
        return None


@given(SCALAR)
def test_parse_rational_boundary(text):
    value = value_or_input_error(parse_rational, text)
    assert value is None or isinstance(value, Fraction)


@given(SCALAR, st.one_of(st.none(), st.integers(-3, 40), st.integers()))
def test_parse_quadext_boundary(text, d):
    value_or_input_error(parse_quadext, text, d)


@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789x^+-* y", max_size=30),
    st.from_regex(r"(\d{0,3}x\^\d{1,8}[+-]){0,3}\d{1,12}", fullmatch=True),
))
def test_parse_intpoly_boundary(text):
    value = value_or_input_error(parse_intpoly, text)
    assert value is None or value.degree <= 64


JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8), SCALAR
)
JSON = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
DELETE = object()


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def near(draw, valid, replacement):
    """A deep copy of ``valid`` with one to three parts replaced or deleted."""
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        value = draw(replacement)
        if not path:
            obj = value if value is not DELETE else {}
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


WORD = st.one_of(st.sampled_from(["a", "b", "c", "d", "1", "x"]), st.text(max_size=3))
TOKEN = st.one_of(st.sampled_from(["R", "V", "N", "Q", "#", "t", "0"]),
                  st.integers(0, 3).map(str), POSITIVE, WORD, SCALAR)
VALID_NETLIST = [["R", "1", "a", "b", "1"], ["R", "2", "b", "c", "2"], ["V", "a", "c", "1"]]


def netlist_text(lines) -> str:
    return "\n".join(
        " ".join(map(str, line)) if isinstance(line, list) else str(line)
        for line in (lines if isinstance(lines, list) else [lines]))


NETLIST = st.one_of(
    near(VALID_NETLIST, st.one_of(st.just(DELETE), TOKEN, st.lists(TOKEN, max_size=5)))
    .map(netlist_text),
    st.lists(st.lists(TOKEN, max_size=6).map(" ".join), max_size=5).map("\n".join),
    st.text(),
)


@settings(max_examples=200)
@given(NETLIST, st.booleans())
def test_parse_netlist_boundary(text, symbolic):
    value_or_input_error(parse_netlist, text, symbolic)


CLI_CPU_SECONDS = 2.0
# a Wheatstone bridge whose mutants mostly parse, so that they reach the solvers
VALID_BRIDGE = [["R", "1", "a", "c", "1"], ["R", "2", "a", "d", "2*t"],
                ["R", "3", "c", "b", "t"], ["R", "4", "d", "b", "3/2"],
                ["R", "5", "c", "d", "t"], ["V", "a", "b", "1"]]
BRIDGE_TOKEN = st.one_of(st.just(DELETE), POSITIVE, st.sampled_from(
    ["a", "b", "c", "d", "e", "t", "0", "-1", "0*t", "-1*t", "1/2*t", "sqrt(2)",
     "1 + sqrt(2)", "R", "V", "N"]))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(NETLIST, near(VALID_BRIDGE, BRIDGE_TOKEN).map(netlist_text)))
def test_resistance_command_boundary(tmp_path, text):
    """Exit 0, 1 or 2 with no traceback, in text and symbolic mode alike."""
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (["resistance", str(path)], ["resistance", str(path), "--symbolic"]):
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.process_time() - start < CLI_CPU_SECONDS
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()


VALID_DISSECTION = {
    "field": {"kind": "rational"}, "big": {"w": "2", "h": "1"},
    "tiles": [{"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1", "rect": ["0", "0", "1", "1"]},
              {"id": 2, "sketch": [1, 0, 1, 1], "aspect": "1", "rect": ["1", "0", "1", "1"]}],
}
DISSECTION = st.one_of(
    near(VALID_DISSECTION, st.one_of(
        st.just(DELETE), JSON, st.integers(0, 3), POSITIVE, st.sampled_from([2, 3, 4]),
        st.lists(st.one_of(st.integers(0, 3), POSITIVE), max_size=5),
    )),
    JSON,
)


@settings(max_examples=200)
@given(DISSECTION)
def test_dissection_from_json_boundary(obj):
    d = value_or_input_error(dissection_from_json, obj)
    if d is not None:
        assert all(len(t.sketch) == 4 and len(t.rect or "four") == 4 for t in d.tiles)


def _scan_has_rational_root(coeffs):
    """The rational-root test by a scan of every candidate; small inputs only."""
    lead, const = abs(coeffs[-1]), abs(coeffs[0])
    if const == 0:
        return True
    p = IntPoly(coeffs).to_poly()
    return any(
        p.eval(Fraction(sign * num, den)) == 0
        for num in range(1, const + 1) if const % num == 0
        for den in range(1, lead + 1) if lead % den == 0
        for sign in (1, -1)
    )


@given(st.lists(st.integers(-60, 60), min_size=3, max_size=4).filter(lambda c: c[-1]))
def test_rational_root_divisors_match_a_scan(coeffs):
    assert _has_rational_root(IntPoly(coeffs)) == _scan_has_rational_root(coeffs)
