"""Every parser either returns a value or raises ``InputError``.

The command line maps ``InputError`` to exit 2, so any other exception that
escapes a parser would reach the user as a traceback or a wrong exit code.
The same near-valid netlist, dissection and ladder files also go through
``cli.run`` end to end, into every command that reads them.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction
from pathlib import Path

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


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def near(draw, valid, replacement, leaves=False):
    """A deep copy of ``valid`` with one to three parts replaced or deleted;
    with ``leaves``, only parts that are neither lists nor objects.
    ``replacement`` is a strategy, or a function from the replaced part to
    one."""
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        paths = [path for path in _paths(obj) if not leaves or not isinstance(
            _at(obj, path), (dict, list))]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        value = draw(replacement(_at(obj, path)) if callable(replacement)
                     else replacement)
        if not path:
            obj = value if value is not DELETE else {}
            continue
        parent = _at(obj, path[:-1])
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


def assert_clean_exit(argv):
    """Exit 0, 1 or 2 with no traceback, within the CPU bound."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.process_time() - start < CLI_CPU_SECONDS
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(NETLIST, near(VALID_BRIDGE, BRIDGE_TOKEN).map(netlist_text)))
def test_resistance_command_boundary(tmp_path, text):
    """Exit 0, 1 or 2 with no traceback, in text and symbolic mode alike."""
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (["resistance", str(path)], ["resistance", str(path), "--symbolic"]):
        assert_clean_exit(argv)


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


DATA = Path(__file__).parent / "data"
# sketches only, so that the commands size them: the pinwheel, a bridge whose
# mutated aspects can make a side negative, and a square of five tiles of
# ratio R and 1/R over Q(sqrt 3), which theorem1 accepts
VALID_SKETCHES = [
    {"field": {"kind": "rational"}, "big": {"w": None, "h": None},
     "tiles": [{"id": tid, "sketch": sketch, "aspect": aspect}
               for tid, sketch, aspect in ((1, [0, 1, 2, 2], "1"), (2, [2, 1, 1, 1], "1"),
                                           (3, [3, 0, 2, 2], "1"), (4, [2, 2, 3, 1], "3"),
                                           (5, [0, 0, 3, 1], "3"))]},
    json.loads((DATA / "five_similar.json").read_text(encoding="utf-8")),
]
SKETCH_SCALAR = st.one_of(
    POSITIVE, st.integers(0, 5).map(str),
    st.sampled_from(["0", "-1", "sqrt(3)", "1 + sqrt(3)", "3/2 - 1/2*sqrt(3)"]),
)


def part_like(scalars, anything):
    """Replacements that are mostly of the replaced part's type, so that most
    mutants parse, and otherwise drawn from ``anything``."""
    def replacement(old):
        if isinstance(old, str):
            same = scalars
        elif isinstance(old, (int, float)):
            same = st.one_of(st.integers(0, 5), st.floats(0, 5))
        else:
            same = st.none()
        return st.one_of(same, st.just(DELETE), anything)
    return replacement


def near_except_field(valid, replacement):
    """Leaf mutants of ``valid`` with its field kept, so that most parse and
    reach the solvers."""
    rest = {key: value for key, value in valid.items() if key != "field"}
    return near(rest, replacement, leaves=True).map(
        lambda obj: {"field": valid["field"], **obj})


DISSECTION_COMMANDS = (
    ["solve", "{file}", "--out", "{tmp}/sized.json"],
    ["equiv-check", "{file}"],
    ["theorem1", "{file}"],
    ["to-circuit", "{file}", "--out", "{tmp}/net.txt"],
    ["render", "{file}", "-o", "{tmp}/out.svg"],
)


def run_commands(commands, tmp_path, obj, as_json):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command in commands:
        argv = [arg.format(file=path, tmp=tmp_path) for arg in command]
        assert_clean_exit(["--json", *argv] if as_json else argv)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.sampled_from([VALID_DISSECTION, *VALID_SKETCHES]).flatmap(
        lambda valid: near_except_field(valid, part_like(SKETCH_SCALAR, JSON))),
    DISSECTION,
), st.booleans())
def test_dissection_commands_boundary(tmp_path, obj, as_json):
    run_commands(DISSECTION_COMMANDS, tmp_path, obj, as_json)


VALID_LADDER = json.loads((DATA / "ladder_sqrt3.json").read_text(encoding="utf-8"))
# R = 1/1000000 with c = [1000000] is a valid ladder of a million tiles
LADDER_SCALAR = st.one_of(NUMERAL, st.sampled_from(
    ["sqrt(3)", "1 + sqrt(3)", "3/2 - 1/2*sqrt(3)", "1/2*sqrt(3)",
     "1000000", "1/1000000"]))
LADDER_PART = st.one_of(
    LADDER_SCALAR,
    st.sampled_from(["t", "", "rational", "quadratic", 2, 3, 5, 0.5, None, {}, []]),
    st.lists(NUMERAL, max_size=4), st.just(DELETE),
)
LADDER_COMMANDS = (["lfs", "eval-cf", "{file}"],
                   ["lfs", "build", "{file}", "--out", "{tmp}/built.json"])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(near_except_field(VALID_LADDER, part_like(LADDER_SCALAR, LADDER_PART)),
                 near(VALID_LADDER, LADDER_PART)), st.booleans())
def test_ladder_commands_boundary(tmp_path, obj, as_json):
    run_commands(LADDER_COMMANDS, tmp_path, obj, as_json)


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
