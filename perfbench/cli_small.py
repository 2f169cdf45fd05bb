"""The cli-small workload: many small in-process ``cli.run`` requests.

Every request is checked against the README contract: exit 0 with the
right JSON on success, 1 for a mathematical failure or FAIL verdict, 2 for
malformed input, never an escaping exception.  The benchmark adds one rule
of its own, a scaled form of "no input a few bytes long may run for
minutes": a request whose inputs total at most SHORT_INPUT_BYTES bytes
must finish within SHORT_INPUT_CPU_S seconds of CPU time.  CPU time, not
wall time, so that other processes on the machine cannot fail a request.

The known-defect inputs of ROADMAP item 5 stay in the mix and fail at the
seed; they are marked, so their failure is expected and counted.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen
from items import Item, expect, first_error

SHORT_INPUT_BYTES = 32
SHORT_INPUT_CPU_S = 0.020

# Constant term of the irreducible cubics that run the linear divisor scan.
SCAN_CONSTANT = 10**6

SKIPPED = (
    ("lfs cond3 --elem 'sqrt(1000000000000000003)'",
     "trial division in the squarefree test runs for more than 20 s at the "
     "seed (ROADMAP item 5); not timed"),
)


@dataclass(frozen=True)
class Response:
    code: int
    out: str
    err: str
    cpu_s: float


def run_cli(run, argv) -> Response:
    """One in-process request with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return Response(code, out.getvalue(), err.getvalue(), time.process_time() - start)


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple
    check: Callable[[Response], str | None]
    input_bytes: int
    known_defect: str | None = None


class _Builder:
    """Writes input files and collects requests."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.requests: list[Request] = []

    def file(self, name: str, content: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def add(self, label, argv, check, inputs, known_defect=None):
        size = sum(
            os.path.getsize(x) if os.path.isfile(x) else len(x.encode())
            for x in inputs
        )
        self.requests.append(
            Request(label, ("--json",) + tuple(argv), check, size, known_defect)
        )


# --- checks ----------------------------------------------------------------------


def _payload(r: Response):
    try:
        return json.loads(r.out), None
    except json.JSONDecodeError:
        return None, "stdout is not JSON"


def answer(code: int, body=None):
    """Expect exit ``code`` and a JSON payload that ``body`` accepts."""

    def check(r: Response):
        if r.code != code:
            return f"exit {r.code}, expected {code}"
        payload, error = _payload(r)
        if error:
            return error
        return body(payload) if body else None

    return check


def refusal(*codes):
    """Expect a clean error exit: one of ``codes``, a message, no JSON."""

    def check(r: Response):
        if r.code not in codes:
            return f"exit {r.code}, expected {' or '.join(map(str, codes))}"
        return expect(r.err.strip() and not r.out.strip(), "no one-line error message")

    return check


def either(*checks):
    def check(r: Response):
        reasons = [c(r) for c in checks]
        return None if any(x is None for x in reasons) else reasons[0]

    return check


def _exact(text, want, d=None):
    try:
        return gen.parse_exact(text, d) == want
    except (TypeError, ValueError):
        return False


def _solve_body(wall: gen.Wall, sized_path=None):
    def body(p):
        sides = p.get("sides", {})
        reason = first_error(
            expect(_exact(p.get("x", ""), wall.width), "wrong x"),
            expect(_exact(p.get("1/x", ""), 1 / wall.width), "wrong 1/x"),
            expect(set(sides) == {str(t) for t in wall.rects}, "wrong tile set"),
        )
        if reason:
            return reason
        for tid, (_, _, _, h) in wall.rects.items():
            if not _exact(sides[str(tid)], h):
                return f"tile {tid}: wrong side"
        if sized_path:
            return _sized_file(wall, sized_path)
        return None

    return body


def _sized_file(wall: gen.Wall, path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not (_exact(obj["big"]["w"], wall.width) and _exact(obj["big"]["h"], 1)):
        return "written file: wrong big sides"
    for tile in obj["tiles"]:
        rect = tile["rect"] or ()
        want = wall.rects[tile["id"]]
        if len(rect) != 4 or not all(_exact(a, b) for a, b in zip(rect, want)):
            return f"written file: tile {tile['id']} has the wrong rectangle"
    return None


def _equiv_body(wall: gen.Wall):
    def body(p):
        tiles = p.get("tiles", {})
        reason = first_error(
            expect(p.get("ok") is True and not p.get("mismatches"), "not ok"),
            expect(_exact(p.get("resistance", ""), wall.width), "wrong resistance"),
            expect(_exact(p.get("big_ratio", ""), wall.width), "wrong ratio"),
            expect(_exact(p.get("battery_current", ""), 1), "wrong battery current"),
            expect(set(tiles) == {str(t) for t in wall.rects}, "wrong tile set"),
        )
        if reason:
            return reason
        for tid, (_, _, _, h) in wall.rects.items():
            entry = tiles[str(tid)]
            if not (_exact(entry["side"], h) and _exact(entry["current"], h)):
                return f"tile {tid}: side or current wrong"
        return None

    return body


def _netlist_reason(wall: gen.Wall, text: str):
    """Structure of a brick wall's network: one series chain per row."""
    resistors, battery = {}, None
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "R":
            resistors[int(parts[1])] = (parts[2], parts[3], " ".join(parts[4:]))
        elif parts and parts[0] == "V":
            battery = (parts[1], parts[2], " ".join(parts[3:]))
    if set(resistors) != set(wall.rects):
        return "resistor ids differ from tile ids"
    for tid, (_, _, value) in resistors.items():
        if not _exact(value, wall.aspect(tid)):
            return f"resistor {tid}: wrong resistance"
    if battery is None or battery[:2] != ("L", "R") or not _exact(battery[2], wall.width):
        return "wrong battery"
    inner = []
    for row in wall.rows():
        if resistors[row[0]][0] != "L" or resistors[row[-1]][1] != "R":
            return "a row does not span the battery terminals"
        for left, right in zip(row, row[1:]):
            if resistors[left][1] != resistors[right][0]:
                return f"tiles {left} and {right} do not share a node"
            inner.append(resistors[left][1])
    return expect(len(set(inner)) == len(inner) and not {"L", "R"} & set(inner),
                  "joints of different rows share a node")


def _symbolic_body(ladder: gen.SymbolicLadder):
    def body(p):
        try:
            num, den = gen.parse_ratfunc_output(p.get("resistance", ""))
        except ValueError as exc:
            return str(exc)
        return gen.check_ratfunc(num, den, ladder.symbolic, ladder.samples())

    return body


def _theorem1_body(tiling: gen.LadderTiling):
    r = tiling.ratio
    expected_r = r if float(r) >= 1 else 1 / r

    def body(p):
        try:
            coeffs = gen.parse_poly_output(p.get("F", ""))
            ratio = gen.parse_exact(p.get("R", ""), tiling.d)
        except ValueError as exc:
            return str(exc)
        return first_error(
            expect(ratio == expected_r, "wrong ratio"),
            expect(any(coeffs), "zero certificate"),
            expect(gen.poly_value(coeffs, ratio) == 0, "certificate does not vanish at R"),
            expect(p.get("F(R)") == "0", "F(R) is not reported as 0"),
        )

    return body


def _cond3_body(passed: bool, coeffs, caveat: bool):
    def body(p):
        return first_error(
            expect(p.get("verdict") == ("PASS" if passed else "FAIL"), "wrong verdict"),
            expect(gen.parse_poly_output(p.get("minimal_polynomial", "0")) == tuple(coeffs),
                   "wrong minimal polynomial"),
            expect(p.get("caveat") is caveat, "wrong caveat"),
        )

    return body


def _cond3(poly: gen.RootedPoly):
    return answer(0 if poly.passed else 1, _cond3_body(poly.passed, poly.coeffs, poly.caveat))


def _elem(rng: random.Random, passing: bool):
    """a + b*sqrt(d) whose conjugates are both positive, or not."""
    d = rng.choice([2, 3, 5, 6, 7])
    b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    bound = b * b * d
    a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    while (a * a > bound) != passing:
        a = a * 2 if passing else a / 2
    value = gen.Surd(a, b if rng.random() < 0.5 else -b, d)
    coeffs = gen.primitive([a * a - b * b * d, -2 * a, 1])
    return value, coeffs


def _build_body(tiling: gen.LadderTiling, path: str):
    r = tiling.ratio

    def body(p):
        if p.get("tiles") != len(tiling.rects) or p.get("written") != path:
            return "wrong tile count or path"
        with open(path, encoding="utf-8") as fh:
            tiles = json.load(fh)["tiles"]
        for tile in tiles:
            aspect = gen.parse_exact(tile["aspect"], tiling.d)
            if not (aspect == r or aspect == 1 / r) or not tile["rect"]:
                return f"written tile {tile['id']} is wrong"
        return expect(len(tiles) == len(tiling.rects), "written tile count")

    return body


def _render_body(tiles: int, path: str):
    def body(p):
        if p.get("written") != path:
            return "wrong path"
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        return expect(svg.count("<rect ") == tiles + 1 and svg.count("<text ") == tiles,
                      "SVG does not draw one rectangle per tile")

    return body


def _short_input_budget(check, input_bytes: int):
    if input_bytes > SHORT_INPUT_BYTES:
        return check

    def budgeted(r: Response):
        if r.cpu_s > SHORT_INPUT_CPU_S:
            return (f"{r.cpu_s * 1000:.1f} ms of CPU on a {input_bytes}-byte input "
                    f"(budget {SHORT_INPUT_CPU_S * 1000:.0f} ms)")
        return check(r)

    return budgeted


# --- the request mix -----------------------------------------------------------------


def cases(seed: int, workdir: str) -> list[Request]:
    """Write one round's input files and return its requests in run order."""
    rng = random.Random(seed)
    b = _Builder(workdir)

    shelf = gen.shelf()
    shelf_sketch = b.file("shelf.json", shelf.sketch_json())
    shelf_sized = b.file("shelf_sized.json", shelf.sized_json())
    walls = {n: gen.brick_wall(rng, n) for n in (9, 16, 25)}
    # a second 25-tile wall: with the two divisor scans, the four slowest
    # requests cost about the same, and the tail percentile falls among them
    other25 = gen.brick_wall(rng, 25)
    other25_path = b.file("wall25b.json", other25.sketch_json())
    sketch = {n: b.file(f"wall{n}.json", w.sketch_json()) for n, w in walls.items()}
    sized = {n: b.file(f"wall{n}_sized.json", w.sized_json()) for n, w in walls.items()}

    # solve
    b.add("solve shelf", ["solve", shelf_sketch], answer(0, _solve_body(shelf)), [shelf_sketch])
    out9 = b.out("solved9.json")
    b.add("solve wall9 --out", ["solve", sketch[9], "--out", out9],
          answer(0, _solve_body(walls[9], out9)), [sketch[9]])
    for n in (16, 25):
        b.add(f"solve wall{n}", ["solve", sketch[n]], answer(0, _solve_body(walls[n])), [sketch[n]])

    # validate, including a tile shifted so that it overlaps its neighbour
    for n in (16, 25):
        b.add(f"validate wall{n}", ["validate", sized[n]],
              answer(0, lambda p: expect(p.get("ok") is True and p.get("issues") == [], "not ok")),
              [sized[n]])
    wall = walls[16]
    bad_rects = dict(wall.rects)
    x, y, w, h = bad_rects[1]
    bad_rects[1] = (x + w / 3, y, w, h)
    bad = b.file("wall16_bad.json", wall.sized_json(bad_rects))
    b.add("validate overlap", ["validate", bad],
          answer(1, lambda p: expect(p.get("ok") is False and p.get("issues"), "accepted")),
          [bad])

    # dehn-check: the shelf passes, a wall has non-square tiles
    b.add("dehn-check shelf", ["dehn-check", shelf_sized],
          answer(0, lambda p: expect(
              p.get("ok") is True and p.get("all_squares") is True
              and _exact(p.get("ratio", ""), Fraction(33, 32)), "shelf rejected")),
          [shelf_sized])
    wall = walls[9]
    non_square = sorted(t for t, (_, _, w, h) in wall.rects.items() if w != h)
    b.add("dehn-check wall9", ["dehn-check", sized[9]],
          answer(1, lambda p, wall=wall: expect(
              p.get("all_squares") is False and p.get("non_square_tiles") == non_square
              and _exact(p.get("ratio", ""), wall.width), "wrong report")),
          [sized[9]])

    # to-circuit, to stdout and to a file
    b.add("to-circuit wall9", ["to-circuit", sketch[9]],
          answer(0, lambda p: _netlist_reason(walls[9], p.get("netlist", ""))), [sketch[9]])
    net_out = b.out("net16.txt")

    def _net_file(p):
        with open(net_out, encoding="utf-8") as fh:
            return first_error(expect(p.get("written") == net_out, "wrong path"),
                               _netlist_reason(walls[16], fh.read()))

    b.add("to-circuit wall16 --out", ["to-circuit", sketch[16], "--out", net_out],
          answer(0, _net_file), [sketch[16]])

    # resistance: series-parallel, then symbolic ladders
    for size in (2, 3, 5, 7, 12):
        net = gen.series_parallel(rng, size)
        path = b.file(f"sp{size}.txt", net.text)
        b.add(f"resistance sp{size}", ["resistance", path],
              answer(0, lambda p, net=net: expect(
                  _exact(p.get("resistance", ""), net.resistance), "wrong resistance")),
              [path])
    for sections in (2, 4):
        ladder = gen.symbolic_ladder(rng, sections)
        path = b.file(f"sym{sections}.txt", ladder.text)
        b.add(f"resistance --symbolic ladder{ladder.edges}",
              ["resistance", path, "--symbolic"], answer(0, _symbolic_body(ladder)), [path])

    # equiv-check
    b.add("equiv-check shelf", ["equiv-check", shelf_sketch],
          answer(0, _equiv_body(shelf)), [shelf_sketch])
    for n in (9, 16, 25):
        b.add(f"equiv-check wall{n}", ["equiv-check", sketch[n]],
              answer(0, _equiv_body(walls[n])), [sketch[n]])
    b.add("equiv-check wall25b", ["equiv-check", other25_path],
          answer(0, _equiv_body(other25)), [other25_path])

    # theorem1, eval-cf and build on two-rung ladder tilings
    # six-tile shapes only, so the two certificates cost the same every seed
    six_tiles = [
        (c1, c2) for c1, c2 in gen.LADDER_SHAPES
        if c1.numerator * c1.denominator + c2.numerator * c2.denominator == 6
    ]
    tilings = [gen.ladder_tiling(rng, six_tiles) for _ in range(2)]
    for i, tiling in enumerate(tilings):
        path = b.file(f"tiling{i}.json", tiling.sketch_json())
        b.add(f"theorem1 tiling{i}", ["theorem1", path], answer(0, _theorem1_body(tiling)), [path])
    ladder_path = b.file("ladder0.json", tilings[0].ladder_json())
    b.add("lfs eval-cf", ["lfs", "eval-cf", ladder_path],
          answer(0, lambda p: expect(p.get("value") == "1" and p.get("is_one") is True,
                                     "ladder should evaluate to 1")),
          [ladder_path])
    text, value = gen.rational_ladder(rng)
    off_path = b.file("ladder_off.json", text)
    b.add("lfs eval-cf (not 1)", ["lfs", "eval-cf", off_path],
          answer(1, lambda p: expect(_exact(p.get("value", ""), value)
                                     and p.get("is_one") is False, "wrong value")),
          [off_path])
    build_out = b.out("built.json")
    b.add("lfs build --out", ["lfs", "build", ladder_path, "--out", build_out],
          answer(0, _build_body(tilings[0], build_out)), [ladder_path])

    # lfs cond3 on polynomials of degree 2-12 and on quadratic elements
    for degree in (2, 3, 4, 5, 6, 8, 12):
        poly = gen.rooted_poly(rng, degree)
        b.add(f"cond3 --poly deg{degree}", ["lfs", "cond3", "--poly", poly.text()],
              _cond3(poly), [poly.text()])
    for i, passing in enumerate((True, False, True, False)):
        elem, coeffs = _elem(rng, passing)
        b.add(f"cond3 --elem {'PASS' if passing else 'FAIL'} {i}",
              ["lfs", "cond3", "--elem", elem.text()],
              answer(0 if passing else 1, _cond3_body(passing, coeffs, False)), [elem.text()])
    q = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    b.add("cond3 --elem rational --d", ["lfs", "cond3", "--elem", str(q), "--d", "2"],
          answer(0, _cond3_body(True, (-q.numerator, q.denominator), False)), [str(q), "2"])

    # render
    svg = b.out("wall16.svg")
    b.add("render wall16", ["render", sized[16], "-o", svg],
          answer(0, _render_body(16, svg)), [sized[16]])
    shelf_svg = b.out("shelf.svg")
    b.add("render shelf (sizes first)", ["render", shelf_sketch, "-o", shelf_svg],
          answer(0, _render_body(9, shelf_svg)), [shelf_sketch])

    # malformed input: exit 2
    b.add("malformed polynomial", ["lfs", "cond3", "--poly", "x^^2+1"], refusal(2), ["x^^2+1"])
    path = b.file("bad_scalar.txt", "R 1 a b abc\nV a b 1\n")
    b.add("malformed netlist scalar", ["resistance", path], refusal(2), [path])
    path = b.file("no_battery.txt", "R 1 a b 1\n")
    b.add("netlist without battery", ["resistance", path], refusal(2), [path])
    path = b.file("truncated.json", '{"field": {"kind": "rational"}, "tiles": [')
    b.add("truncated JSON", ["validate", path], refusal(2), [path])
    missing = os.path.join(workdir, "missing.json")
    b.add("missing file", ["solve", missing], refusal(2), [missing])
    b.add("unknown command", ["frobnicate"], refusal(2), [])
    b.add("cond3 without input", ["lfs", "cond3"], refusal(2), [])
    b.add("malformed element", ["lfs", "cond3", "--elem", "1+"], refusal(2), ["1+"])
    path = b.file("bad_tag.txt", "Q 1 2\n")
    b.add("netlist with an unknown tag", ["resistance", path], refusal(2), [path])
    path = b.file("bad_field.json", '{"field": {"kind": "octonion"}, "tiles": []}')
    b.add("unknown field kind", ["solve", path], refusal(2), [path])
    path = b.file("bad_ladder.json", '{"field": {"kind": "rational"}, "R": "2", "c": ["x"]}')
    b.add("ladder with a bad coefficient", ["lfs", "eval-cf", path], refusal(2), [path])

    # ROADMAP item 5: known defects, expected to fail at the seed
    defect = "ROADMAP item 5"
    path = b.file("bad_rid.txt", "R x a b 1\nV a b 1\n")
    b.add("netlist id 'x'", ["resistance", path], refusal(2), [path],
          f"{defect}: ValueError from int() escapes")
    path = b.file("list.json", "[1,2]")
    b.add("dissection [1,2]", ["validate", path], refusal(2), [path],
          f"{defect}: a JSON list exits 1, not 2")
    rect3 = json.dumps({"field": {"kind": "rational"}, "big": {"w": "1", "h": "1"},
                        "tiles": [{"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1",
                                   "rect": ["0", "0", "1"]}]})
    path = b.file("rect3.json", rect3)
    b.add("rect with 3 entries", ["validate", path], refusal(2), [path],
          f"{defect}: ValueError from unpacking escapes")
    b.add("cond3 non-squarefree", ["lfs", "cond3", "--poly", "x^2-2x+1"], refusal(1, 2),
          ["x^2-2x+1"], f"{defect}: ValueError 'not squarefree' escapes")
    b.add("cond3 constant", ["lfs", "cond3", "--poly", "5"], refusal(1, 2), ["5"],
          f"{defect}: ValueError 'constant polynomial' escapes")
    b.add("cond3 radicand 4", ["lfs", "cond3", "--elem", "1+sqrt(4)"], refusal(2),
          ["1+sqrt(4)"], f"{defect}: ValueError 'radicand not squarefree' escapes")
    for i in range(2):
        cubic = gen.irreducible_cubic(rng, SCAN_CONSTANT)
        b.add(f"cond3 divisor scan {i}", ["lfs", "cond3", "--poly", cubic.text()],
              either(_cond3(cubic), refusal(2)), [cubic.text()],
              f"{defect}: the rational-root test scans every integer up to the constant")

    order = list(b.requests)
    rng.shuffle(order)
    return order


def items(tc, requests: list[Request], workdir: str) -> list[Item]:
    out = []
    for r in requests:
        check = _short_input_budget(r.check, r.input_bytes)
        out.append(Item(
            r.label,
            [("cli.run", run_cli, (tc.cli.run, list(r.argv)))],
            lambda results, check=check: check(results[0]),
            known_defect=r.known_defect,
            meta={"size": r.input_bytes},
        ))
    return out
