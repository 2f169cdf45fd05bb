import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tilecircuit import FieldSpec, format_scalar
from tilecircuit.cli import _attach_signed_values, build_parser, run

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_both_ratios(capsys):
    code, out, _ = invoke(capsys, "solve", str(DATA / "shelf.json"))
    assert code == 0
    assert "x = 33/32" in out
    assert "1/x = 32/33" in out


def test_solve_json_output(capsys):
    code, out, _ = invoke(capsys, "--json", "solve", str(DATA / "shelf.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "33/32"
    assert payload["1/x"] == "32/33"
    assert payload["sides"]["7"] == "9/16"


def test_solve_then_validate_round_trip(tmp_path, capsys):
    sized = tmp_path / "sized.json"
    code, _, _ = invoke(capsys, "solve", str(DATA / "shelf.json"), "--out", str(sized))
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(sized))
    assert code == 0
    assert "valid tiling" in out


def test_validate_rejects_unsized(capsys):
    code, _, err = invoke(capsys, "validate", str(DATA / "shelf.json"))
    assert code == 1
    assert "error" in err


def test_dehn_check_pass_and_fail(tmp_path, capsys):
    sized = tmp_path / "sized.json"
    invoke(capsys, "solve", str(DATA / "shelf.json"), "--out", str(sized))
    code, out, _ = invoke(capsys, "dehn-check", str(sized))
    assert code == 0
    assert "33/32" in out

    similar = tmp_path / "similar.json"
    invoke(capsys, "solve", str(DATA / "five_similar.json"), "--out", str(similar))
    code, out, _ = invoke(capsys, "dehn-check", str(similar))
    assert code == 1
    assert "not squares" in out


def test_to_circuit_and_resistance(tmp_path, capsys):
    net = tmp_path / "net.txt"
    code, _, _ = invoke(capsys, "to-circuit", str(DATA / "shelf.json"),
                        "--out", str(net))
    assert code == 0
    text = net.read_text()
    assert text.count("\nR ") + text.startswith("R ") == 9
    assert "V L R 33/32" in text
    code, out, _ = invoke(capsys, "resistance", str(net))
    assert code == 0
    assert out.strip() == "33/32"


def test_resistance_plain(capsys):
    code, out, _ = invoke(capsys, "resistance", str(DATA / "net_series_1_1.txt"))
    assert code == 0
    assert out.strip() == "2"


def test_resistance_symbolic(capsys):
    code, out, _ = invoke(
        capsys, "resistance", str(DATA / "net_parallel_1_t.txt"), "--symbolic"
    )
    assert code == 0
    assert out.strip() == "t/(t + 1)"


@pytest.mark.parametrize("text, code, message", [
    ("R 1 a b 0\nR 2 a b t\nV a b 1\n", 2, "error: resistor 1 has nonpositive resistance"),
    ("R 1 a b -1*t\nV a b 1\n", 2, "error: resistor 1 has nonpositive resistance"),
    ("R 1 a c t\nR 2 b d 1\nV a b 1\n", 1,
     "error: battery carries no current: the network has no closed path through the battery"),
])
def test_resistance_symbolic_refusals(tmp_path, capsys, text, code, message):
    net = tmp_path / "net.txt"
    net.write_text(text)
    assert invoke(capsys, "resistance", str(net), "--symbolic") == (code, "", message + "\n")


def test_equiv_check(capsys):
    code, out, _ = invoke(capsys, "equiv-check", str(DATA / "shelf.json"))
    assert code == 0
    assert "agree exactly" in out


def test_theorem1(capsys):
    code, out, _ = invoke(capsys, "theorem1", str(DATA / "five_similar.json"))
    assert code == 0
    assert "F(x) = 2*x^3 - 6*x^2 + 3*x" in out
    assert "F(R) = 0" in out


def test_lfs_cond3_fail_is_exit_1(capsys):
    code, out, _ = invoke(capsys, "lfs", "cond3", "--poly", "x^2-2x-1")
    assert code == 1
    assert "FAIL" in out


def test_lfs_cond3_pass(capsys):
    code, out, _ = invoke(capsys, "lfs", "cond3", "--poly", "2x^2-6x+3")
    assert code == 0
    assert "PASS" in out


def test_lfs_cond3_elem(capsys):
    code, out, _ = invoke(capsys, "lfs", "cond3", "--elem", "1 + sqrt(2)")
    assert code == 1
    code, out, _ = invoke(capsys, "lfs", "cond3", "--elem", "7/5")
    assert code == 0


def test_lfs_eval_cf(capsys):
    code, out, _ = invoke(capsys, "lfs", "eval-cf", str(DATA / "ladder_sqrt3.json"))
    assert code == 0
    assert "= 1" in out


def test_lfs_build_refuses_a_ladder_of_a_million_tiles(tmp_path, capsys):
    ladder = tmp_path / "ladder.json"
    ladder.write_text('{"field":{"kind":"rational"},"R":"1/1000000","c":["1000000"]}')
    built = tmp_path / "built.json"
    start = time.process_time()
    code, out, err = invoke(capsys, "lfs", "build", str(ladder), "--out", str(built))
    assert time.process_time() - start < 0.5
    assert (code, out, err) == (2, "", "error: ladder would build more than 10000 tiles\n")
    assert not built.exists()
    code, out, _ = invoke(capsys, "lfs", "eval-cf", str(ladder))
    assert (code, out) == (0, "continued fraction = 1\n")


def deep_ladder(tmp_path, depth):
    """R = 1 and c = (1/2, 3/2 repeated depth times, 2): every tail is 2."""
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({"field": {"kind": "rational"}, "R": "1",
                                  "c": ["1/2"] + ["3/2"] * depth + ["2"]}))
    return ladder


def test_lfs_build_writes_a_deep_ladder(tmp_path, capsys):
    built = tmp_path / "built.json"
    code, out, err = invoke(capsys, "lfs", "build", str(deep_ladder(tmp_path, 990)),
                            "--out", str(built))
    assert (code, out, err) == (0, f"wrote {built} (2974 tiles)\n", "")
    code, out, err = invoke(capsys, "validate", str(built))
    assert (code, err) == (0, "")


def test_lfs_build_refuses_a_ladder_too_deep_for_its_float_sketch(tmp_path, capsys):
    """Its slabs thin out geometrically, below what a float can hold
    (ROADMAP item 14)."""
    built = tmp_path / "built.json"
    code, out, err = invoke(capsys, "lfs", "build", str(deep_ladder(tmp_path, 1400)),
                            "--out", str(built))
    assert (code, out, err) == (2, "", "error: tile 3223 has a degenerate sketch\n")
    assert not built.exists()


def test_lfs_build_then_solve(tmp_path, capsys):
    built = tmp_path / "built.json"
    code, _, _ = invoke(capsys, "lfs", "build", str(DATA / "ladder_sqrt3.json"),
                        "--out", str(built))
    assert code == 0
    code, out, _ = invoke(capsys, "solve", str(built))
    assert code == 0
    assert "x = 1" in out


def test_render_deterministic(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    invoke(capsys, "render", str(DATA / "shelf.json"), "-o", str(first))
    invoke(capsys, "render", str(DATA / "shelf.json"), "-o", str(second))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("<?xml")


def test_usage_errors_are_exit_2(capsys, tmp_path):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2
    code, _, _ = invoke(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = invoke(capsys, "solve", str(bad))
    assert code == 2


def test_json_flag_everywhere(capsys):
    code, out, _ = invoke(capsys, "--json", "lfs", "cond3", "--poly", "x^2-2")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    assert payload["minimal_polynomial"] == "x^2 - 2"


def _dissection(**overrides):
    obj = {"field": {"kind": "rational"}, "big": {"w": "1", "h": "1"},
           "tiles": [{"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1",
                      "rect": ["0", "0", "1", "1"]}]}
    obj.update(overrides)
    return json.dumps(obj)


def _tile(**overrides):
    tile = {"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1", "rect": ["0", "0", "1", "1"]}
    tile.update(overrides)
    return _dissection(tiles=[tile])


def _squares(cells, rects=False, **big):
    """Unit squares at the given (x, y) cells, with the big sides ``big``."""
    tiles = [{"id": tid, "sketch": [x, y, 1, 1], "aspect": "1",
              "rect": [str(x), str(y), "1", "1"] if rects else None}
             for tid, (x, y) in enumerate(cells, 1)]
    return _dissection(big={"w": None, "h": None, **big}, tiles=tiles)


# to-circuit sizes every dissection that is not sized, and refuses a sized
# one that is no tiling, as the command named with each file does
UNTRUSTED_WIDTHS = {
    "two squares declaring width 7": (
        _squares([(0, 0), (1, 0)], w="7"), "solve",
        "error: declared width 7 contradicts the solved width 2\n"),
    "a 2x2 grid declaring its width": (
        _squares([(0, 0), (1, 0), (0, 1), (1, 1)], w="2"), "solve",
        "error: declared width 2 contradicts the solved width 1\n"),
    "a sized file that is no tiling": (
        _squares([(0, 0), (1, 0)], rects=True, w="5", h="1"), "dehn-check",
        "error: dissection fails geometric validation: "
        "tile areas do not sum to the big rectangle's area\n"),
}


@pytest.mark.parametrize("name", sorted(UNTRUSTED_WIDTHS))
def test_to_circuit_trusts_no_declared_width(name, tmp_path, capsys):
    content, command, message = UNTRUSTED_WIDTHS[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    assert invoke(capsys, "to-circuit", str(path)) == (1, "", message)
    assert invoke(capsys, command, str(path)) == (1, "", message)


def test_to_circuit_of_a_sized_tiling(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(_squares([(0, 0), (1, 0)], rects=True, w="2", h="1"))
    code, out, _ = invoke(capsys, "to-circuit", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "V L R 2"


# solve printed its whole sizing before it failed to write --out
UNWRITABLE_OUT = {
    "solve": ["solve", str(DATA / "shelf.json"), "--out"],
    "to-circuit": ["to-circuit", str(DATA / "shelf.json"), "--out"],
    "render": ["render", str(DATA / "shelf.json"), "-o"],
    "lfs build": ["lfs", "build", str(DATA / "ladder_sqrt3.json"), "--out"],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUT))
def test_a_writer_that_cannot_write_prints_nothing(name, tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    for argv in (UNWRITABLE_OUT[name], ["--json", *UNWRITABLE_OUT[name]]):
        code, out, err = invoke(capsys, *argv, str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()


# the rects lie side by side in a 2x1 rectangle, the sketch stacks them
STACKED_SKETCH = _dissection(big={"w": "2", "h": "1"}, tiles=[
    {"id": 1, "sketch": [0, 0, 2, 0.5], "aspect": "1", "rect": ["0", "0", "1", "1"]},
    {"id": 2, "sketch": [0, 0.5, 2, 0.5], "aspect": "1", "rect": ["1", "0", "1", "1"]}])

# tile 1 lies above tile 2 in the rects and below it in the sketch
SWAPPED_ROWS = _dissection(big={"w": "1", "h": "1"}, tiles=[
    {"id": 1, "sketch": [0, 0, 2, 1], "aspect": "2", "rect": ["0", "1/2", "1", "1/2"]},
    {"id": 2, "sketch": [0, 1, 2, 1], "aspect": "2", "rect": ["0", "0", "1", "1/2"]}])



def test_to_circuit_refuses_a_sketch_that_contradicts_its_rects(tmp_path, capsys):
    """to-circuit reads the stacked sketch's netlist off its rects, which
    lie side by side; it refuses the file once those rects overlap."""
    path = tmp_path / "input.json"
    path.write_text(STACKED_SKETCH)
    assert invoke(capsys, "validate", str(path)) == (0, "valid tiling\n", "")
    netlist = "R 1 L n1 1\nR 2 n1 R 1\nV L R 2\n"
    assert invoke(capsys, "to-circuit", str(path)) == (0, netlist, "")
    code, out, err = invoke(capsys, "--json", "to-circuit", str(path))
    assert (code, json.loads(out), err) == (0, {"netlist": netlist}, "")
    moved = json.loads(STACKED_SKETCH)
    moved["tiles"][1]["rect"][0] = "1/2"
    path.write_text(json.dumps(moved))
    assert invoke(capsys, "validate", str(path)) == (1, "invalid tiling:\n  tiles 1 and 2 overlap\n", "")
    message = "error: dissection fails geometric validation: tiles 1 and 2 overlap\n"
    assert invoke(capsys, "to-circuit", str(path)) == (1, "", message)
    assert invoke(capsys, "--json", "to-circuit", str(path)) == (1, "", message)


# a tile 1/10000000 wide beside a unit square: its sketch collapses at the
# sketch tolerance, its rects are exact
THIN_TILE = _dissection(big={"w": "10000001/10000000", "h": "1"}, tiles=[
    {"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1", "rect": ["0", "0", "1", "1"]},
    {"id": 2, "sketch": [1, 0, 1e-7, 1], "aspect": "1/10000000",
     "rect": ["1", "0", "1/10000000", "1"]}])


def _wall_q_sized_with_tile_1_at(rect):
    wall = json.loads((DATA / "wall_q_sized.json").read_text(encoding="utf-8"))
    wall["tiles"][0]["rect"] = rect
    return json.dumps(wall)


# the swapped rows certify (GATED_FILES); with tile 1 moved down onto
# tile 2 their rects overlap
SWAPPED_ROWS_MOVED = json.loads(SWAPPED_ROWS)
SWAPPED_ROWS_MOVED["tiles"][0]["rect"][1] = "1/4"

# equiv-check refuses a sized file whose rects are no tiling, as validate,
# to-circuit and dehn-check do
UNTRUSTED_RECTS = {
    "wall_q_sized with tile 1 a unit square": (
        _wall_q_sized_with_tile_1_at(["0", "0", "1", "1"]),
        "error: dissection fails geometric validation: tile 1 violates its aspect "
        "ratio; tile 1 leaves the big rectangle; "
        + "".join(f"tiles 1 and {k} overlap; " for k in range(2, 37))
        + "tile areas do not sum to the big rectangle's area\n"),
    "two rows whose rects swap": (
        json.dumps(SWAPPED_ROWS_MOVED),
        "error: dissection fails geometric validation: tiles 1 and 2 overlap\n"),
}


@pytest.mark.parametrize("name", sorted(UNTRUSTED_RECTS))
def test_equiv_check_trusts_no_rect(name, tmp_path, capsys):
    content, message = UNTRUSTED_RECTS[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    assert invoke(capsys, "equiv-check", str(path)) == (1, "", message)
    assert invoke(capsys, "--json", "equiv-check", str(path)) == (1, "", message)


def test_theorem1_trusts_no_rect(tmp_path, capsys):
    """theorem1 certifies the swapped rows from their rects, which it
    refused while it checked them on the sketch, and refuses them once
    tile 1 is moved down onto tile 2."""
    path = tmp_path / "input.json"
    path.write_text(SWAPPED_ROWS)
    assert invoke(capsys, "theorem1", str(path)) == (0, "F(x) = x^2 - 2*x\nR = 2\nF(R) = 0\n", "")
    content, message = UNTRUSTED_RECTS["two rows whose rects swap"]
    path.write_text(content)
    assert invoke(capsys, "theorem1", str(path)) == (1, "", message)
    assert invoke(capsys, "--json", "theorem1", str(path)) == (1, "", message)


def _partly_sized(unset):
    """wall_q_sized with tile 1 a unit square and ``unset`` made null."""
    wall = json.loads(_wall_q_sized_with_tile_1_at(["0", "0", "1", "1"]))
    if unset == "big h":
        wall["big"]["h"] = None
    else:
        wall["tiles"][1]["rect"] = None  # tile 2's
    return json.dumps(wall)


def _sized_output(x, sides, netlist, theorem1):
    """The outputs, text and then --json, of a sized file of big height 1,
    ratio x, tile (width, height) ``sides`` and the given netlist;
    ``theorem1`` is F(x) and R, or the exit code and stderr of a refusal."""
    heights = {str(k): h for k, (_, h) in enumerate(sides, 1)}
    tiles = {k: {"side": h, "current": h} for k, h in heights.items()}
    return {
        "solve": (f"x = {x}\n1/x = {format_scalar(1 / Fraction(x))}\n"
                  + "".join(f"tile {k}: {w} x {h}\n" for k, (w, h) in enumerate(sides, 1)),
                  {"x": x, "1/x": format_scalar(1 / Fraction(x)), "sides": heights}),
        "to-circuit": (netlist, {"netlist": netlist}),
        "equiv-check": (f"dissection and circuit agree exactly\nresistance = big ratio = {x}\n",
                        {"ok": True, "battery_current": "1", "resistance": x, "big_ratio": x,
                         "mismatches": [], "tiles": tiles}),
        "theorem1": theorem1 if isinstance(theorem1[0], int) else (
            f"F(x) = {theorem1[0]}\nR = {theorem1[1]}\nF(R) = 0\n",
            {"F": theorem1[0], "R": theorem1[1], "F(R)": "0"}),
        "render": ("wrote {svg}\n", {"written": "{svg}"}),
    }


# Every command that reads a dissection's sizes reads them through
# solve_sizes.  A sized file is its rects: it is kept once they tile the big
# rectangle, four-tile points included, and its cuts are read off them, not
# off its sketch; a file that sizes only part of itself is malformed.  Each
# file maps to the outputs of solve, to-circuit, equiv-check, theorem1 and
# render in text and --json, or to one exit code and stderr for them all.
# The swapped rows and the stacked sketch were refused, "tile N's rect is
# not the one its sketch sizes to", the thin tile "tile 2 collapses at
# sketch tolerance", the 2x2 grid was "under-determined" for solve,
# equiv-check and theorem1, and the partly sized files were re-sized from
# their sketches.
GATED_FILES = {
    "two rows whose rects swap": (
        SWAPPED_ROWS, _sized_output("1", [("1", "1/2")] * 2, "R 1 L R 2\nR 2 L R 2\nV L R 1\n",
                                    ("x^2 - 2*x", "2"))),
    "a sketch that stacks side-by-side rects": (
        STACKED_SKETCH, _sized_output("2", [("1", "1")] * 2, "R 1 L n1 1\nR 2 n1 R 1\nV L R 2\n",
                                      (1, "error: certificate needs a square dissection\n"))),
    "a tile thinner than the sketch tolerance": (
        THIN_TILE, _sized_output(
            "10000001/10000000", [("1", "1"), ("1/10000000", "1")],
            "R 1 L n1 1\nR 2 n1 R 1/10000000\nV L R 10000001/10000000\n",
            (1, "error: tile aspects are not of the form {R, 1/R} for a single ratio\n"))),
    "a sized 2x2 grid of 1/2 squares": (
        _dissection(tiles=[
            {"id": tid, "sketch": [x, y, 1, 1], "aspect": "1",
             "rect": [str(Fraction(x, 2)), str(Fraction(y, 2)), "1/2", "1/2"]}
            for tid, (x, y) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1)), 1)]),
        _sized_output("1", [("1/2", "1/2")] * 4,
                      "R 1 L n1 1\nR 2 n1 R 1\nR 3 L n1 1\nR 4 n1 R 1\nV L R 1\n",
                      ("x - 1", "1"))),
    "wall_q_sized partly sized, no big h": (
        _partly_sized("big h"), (2, "error: a dissection with rects needs both big sides\n")),
    "wall_q_sized partly sized, no rect on tile 2": (
        _partly_sized("tile 2"), (2, "error: tile 2 has no rect, but other tiles have one\n")),
}
COMMANDS = ("solve", "to-circuit", "equiv-check", "theorem1", "render")


@pytest.mark.parametrize("name", sorted(GATED_FILES))
def test_every_command_reads_sizes_through_one_gate(name, tmp_path, capsys):
    content, expected = GATED_FILES[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    svg = str(tmp_path / "out.svg")
    for command in COMMANDS:
        argv = [command, str(path)] + (["-o", svg] if command == "render" else [])
        outcome = expected[command] if isinstance(expected, dict) else expected
        if isinstance(outcome[0], int):
            code, message = outcome
            assert invoke(capsys, *argv) == (code, "", message)
            assert invoke(capsys, "--json", *argv) == (code, "", message)
            continue
        text, payload = outcome
        assert invoke(capsys, *argv) == (0, text.replace("{svg}", svg), "")
        code_json, out, err = invoke(capsys, "--json", *argv)
        payload = json.loads(json.dumps(payload).replace("{svg}", svg))
        assert (code_json, json.loads(out), err) == (0, payload, "")
    assert (tmp_path / "out.svg").exists() == isinstance(expected, dict)
    if isinstance(expected, dict):
        assert invoke(capsys, "validate", str(path)) == (0, "valid tiling\n", "")
        return
    code, message = expected  # malformed for the commands that read only rects, too
    for command in ("validate", "dehn-check"):
        assert invoke(capsys, command, str(path)) == (code, "", message)
        assert invoke(capsys, "--json", command, str(path)) == (code, "", message)


# five_similar.json solved with --out, then one rect changed by the tile id,
# the rect entry and the amount added to it; theorem1 printed the
# certificate of the sketch, F(x) = 2*x^3 - 6*x^2 + 3*x, for both
TAMPERED_FIVE_SIMILAR = {
    "tile 3 taller by 1/9": (
        3, 3, "1/9",
        "error: dissection fails geometric validation: tile 3 violates its aspect "
        "ratio; tiles 3 and 5 overlap; tile areas do not sum to the big "
        "rectangle's area\n"),
    "tile 1 moved right by 1/7": (
        1, 0, "1/7",
        "error: dissection fails geometric validation: tiles 1 and 2 overlap\n"),
}


@pytest.mark.parametrize("name", sorted(TAMPERED_FIVE_SIMILAR))
def test_theorem1_refuses_a_tampered_sized_file(name, tmp_path, capsys):
    tid, entry, amount, message = TAMPERED_FIVE_SIMILAR[name]
    solved = tmp_path / "solved.json"
    assert invoke(capsys, "solve", str(DATA / "five_similar.json"),
                  "--out", str(solved))[0] == 0
    code, out, _ = invoke(capsys, "theorem1", str(solved))
    assert (code, out.splitlines()[0]) == (0, "F(x) = 2*x^3 - 6*x^2 + 3*x")
    obj = json.loads(solved.read_text())
    field = FieldSpec.from_json(obj["field"])
    rect = next(t["rect"] for t in obj["tiles"] if t["id"] == tid)
    rect[entry] = format_scalar(field.parse(rect[entry]) + field.parse(amount))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    assert invoke(capsys, "theorem1", str(path)) == (1, "", message)
    assert invoke(capsys, "--json", "theorem1", str(path)) == (1, "", message)


# a big side or a rect that is falsy but not null was read as absent, and a
# big side that is a JSON number stopped on "'int' object has no attribute"
FALSY_BIG_AND_RECT = {
    "big w 0": (_dissection(big={"w": 0, "h": "1"}), "big w needs a scalar or null"),
    "big w 2": (_dissection(big={"w": 2, "h": "1"}), "big w needs a scalar or null"),
    "big h false": (_dissection(big={"w": "1", "h": False}),
                    "big h needs a scalar or null"),
    "big w an empty string": (_dissection(big={"w": "", "h": "1"}),
                              "not a rational scalar: ''"),
    "big an empty list": (_dissection(big=[]), "big needs an object or null"),
    "big 0": (_dissection(big=0), "big needs an object or null"),
    "rect an empty list": (_tile(rect=[]), "tile 1 rect needs 4 scalars"),
    "rect false": (_tile(rect=False), "tile 1 rect needs 4 scalars"),
    "rect a string of 4 characters": (_tile(rect="0011"), "tile 1 rect needs 4 scalars"),
    "rect of 4 numbers": (_tile(rect=[0, 0, 1, 1]), "tile 1 rect needs 4 scalars"),
}


@pytest.mark.parametrize("name", sorted(FALSY_BIG_AND_RECT))
def test_falsy_big_sides_and_rects_are_malformed(name, tmp_path, capsys):
    content, message = FALSY_BIG_AND_RECT[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    for command in ("solve", "validate"):
        assert invoke(capsys, command, str(path)) == (2, "", f"error: {message}\n")
        assert invoke(capsys, "--json", command, str(path)) == (2, "", f"error: {message}\n")


def _ladder(**overrides):
    obj = {"field": {"kind": "rational"}, "R": "1/2", "c": ["1", "2"]}
    obj.update(overrides)
    return json.dumps(obj)


# an aspect, R or c entry that is not a string stopped on "'int' object has
# no attribute 'split'", a c that is not a list on "... is not iterable",
# and a string c was read digit by digit (exit 1, "3/2 (not 1)")
UNTYPED_SCALARS = {
    "aspect 1": (_tile(aspect=1), "tile 1 aspect needs a scalar"),
    "aspect null": (_tile(aspect=None), "tile 1 aspect needs a scalar"),
    "aspect a list": (_tile(aspect=["1"]), "tile 1 aspect needs a scalar"),
    "R 1": (_ladder(R=1), "R needs a scalar"),
    "R null": (_ladder(R=None), "R needs a scalar"),
    "c of numbers": (_ladder(c=[1, 2]), "c needs a list of scalars"),
    "c a string of digits": (_ladder(c="12"), "c needs a list of scalars"),
    "c 5": (_ladder(c=5), "c needs a list of scalars"),
    "c an object": (_ladder(c={"1": "2"}), "c needs a list of scalars"),
}


@pytest.mark.parametrize("name", sorted(UNTYPED_SCALARS))
def test_scalars_that_are_not_strings_are_malformed(name, tmp_path, capsys):
    content, message = UNTYPED_SCALARS[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    if name.startswith("aspect"):
        commands = [["solve", str(path)], ["validate", str(path)]]
    else:
        commands = [["lfs", "eval-cf", str(path)],
                    ["lfs", "build", str(path), "--out", str(tmp_path / "out.json")]]
    for argv in commands:
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")
        assert invoke(capsys, "--json", *argv) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


# a sketch or a tiles value of the wrong JSON type stopped on Python's own
# message, which names no field: "could not convert string to float: 'a'",
# "'int' object is not iterable", "string indices must be integers, not
# 'str'", "'int' object is not subscriptable"; a tiles value of {} or ""
# read as no tiles (exit 1, "dissection has no tiles")
UNTYPED_TILES = {
    "sketch with a string entry": (_tile(sketch=["a", 0, 1, 1]), "tile 1 sketch needs 4 numbers"),
    "sketch a string": (_tile(sketch="abcd"), "tile 1 sketch needs 4 numbers"),
    "sketch 5": (_tile(sketch=5), "tile 1 sketch needs 4 numbers"),
    "sketch null": (_tile(sketch=None), "tile 1 sketch needs 4 numbers"),
    "sketch an object": (_tile(sketch={"a": 1}), "tile 1 sketch needs 4 numbers"),
    "tiles an object": (_dissection(tiles={"id": 1}), "tiles needs a list of tile objects"),
    "tiles a string": (_dissection(tiles="ab"), "tiles needs a list of tile objects"),
    "tiles of numbers": (_dissection(tiles=[5]), "tiles needs a list of tile objects"),
    "tiles 5": (_dissection(tiles=5), "tiles needs a list of tile objects"),
    "tiles null": (_dissection(tiles=None), "tiles needs a list of tile objects"),
    "tiles of nulls": (_dissection(tiles=[None]), "tiles needs a list of tile objects"),
    "tiles an empty object": (_dissection(tiles={}), "tiles needs a list of tile objects"),
    "tiles an empty string": (_dissection(tiles=""), "tiles needs a list of tile objects"),
}


@pytest.mark.parametrize("name", sorted(UNTYPED_TILES))
def test_tiles_and_sketches_of_the_wrong_type_are_malformed(name, tmp_path, capsys):
    content, message = UNTYPED_TILES[name]
    path = tmp_path / "input.json"
    path.write_text(content)
    for command in ("solve", "validate"):
        assert invoke(capsys, command, str(path)) == (2, "", f"error: {message}\n")
        assert invoke(capsys, "--json", command, str(path)) == (2, "", f"error: {message}\n")


# a field that is not an object stopped on "malformed dissection object:
# 'int' object has no attribute 'get'" (or the ladder's), naming no field
@pytest.mark.parametrize("field", [5, None, "rational", [1]], ids=repr)
@pytest.mark.parametrize("kind", ["dissection", "ladder"])
def test_a_field_that_is_not_an_object_is_malformed(kind, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    if kind == "dissection":
        path.write_text(_dissection(field=field))
        commands = [["solve", str(path)], ["validate", str(path)]]
    else:
        path.write_text(_ladder(field=field))
        commands = [["lfs", "eval-cf", str(path)],
                    ["lfs", "build", str(path), "--out", str(tmp_path / "out.json")]]
    for argv in commands:
        assert invoke(capsys, *argv) == (2, "", "error: field needs an object\n")
        assert invoke(capsys, "--json", *argv) == (2, "", "error: field needs an object\n")
    assert not (tmp_path / "out.json").exists()


def test_render_validates_a_sized_file(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(_squares([(0, 0), (1, 0)], rects=True, w="5", h="1"))
    svg = tmp_path / "out.svg"
    message = ("error: dissection fails geometric validation: "
               "tile areas do not sum to the big rectangle's area\n")
    assert invoke(capsys, "render", str(path), "-o", str(svg)) == (1, "", message)
    assert not svg.exists()



@pytest.mark.parametrize("w, h", [("0", "5"), ("-2", "0")])
def test_a_big_rectangle_with_a_nonpositive_side_is_refused(w, h, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"field": {"kind": "rational"},
                                "big": {"w": w, "h": h}, "tiles": []}))
    issue = "the big rectangle has a nonpositive side"
    assert invoke(capsys, "validate", str(path)) == (1, f"invalid tiling:\n  {issue}\n", "")
    code, out, err = invoke(capsys, "--json", "validate", str(path))
    assert (code, json.loads(out), err) == (1, {"ok": False, "issues": [issue]}, "")
    message = f"error: dissection fails geometric validation: {issue}\n"
    svg = tmp_path / "out.svg"
    for argv in (["dehn-check", str(path)], ["render", str(path), "-o", str(svg)],
                 ["to-circuit", str(path)]):
        assert invoke(capsys, *argv) == (1, "", message)
        assert invoke(capsys, "--json", *argv) == (1, "", message)
    assert not svg.exists()

# (argv, file name -> content, expected exit code); "{file}" in argv is the
# written file.  Every row ended in a traceback, a wrong exit code or a run
# of seconds before the input boundary was drawn.
BOUNDARY_CASES = {
    # the known-defect rows of ROADMAP item 5
    "poly not squarefree": (["lfs", "cond3", "--poly", "x^2-2x+1"], None, 2),
    "poly constant": (["lfs", "cond3", "--poly", "5"], None, 2),
    "elem radicand 4": (["lfs", "cond3", "--elem", "1+sqrt(4)"], None, 2),
    "netlist id x": (["resistance", "{file}"], "R x a b 1\nV a b 1\n", 2),
    "rect with 3 entries": (["validate", "{file}"],
                            _tile(rect=["0", "0", "1"]), 2),
    "top level a list": (["validate", "{file}"], "[1,2]", 2),
    "radicand above the bound": (
        ["lfs", "cond3", "--elem", "sqrt(1000000000000000003)"], None, 2),
    "rational-root test, large constant": (
        ["lfs", "cond3", "--poly", "x^3+x+30000000"], None, 1),
    # the rest of the input family
    "poly zero": (["lfs", "cond3", "--poly", "0"], None, 2),
    "poly degree above the bound": (["lfs", "cond3", "--poly", "x^1000000+1"], None, 2),
    "poly degree at the bound": (["lfs", "cond3", "--poly", "x^64+1"], None, 1),
    "rational-root test above the bound": (
        ["lfs", "cond3", "--poly", "x^3+x+100000000000"], None, 2),
    "rational-root test, many divisors": (
        ["lfs", "cond3", "--poly", "720720x^3+x+13860"], None, 1),
    "rational-root test at the bound": (
        ["lfs", "cond3", "--poly", "x^3+x+9999999967"], None, 1),
    "radicand prime below the bound": (["lfs", "cond3", "--elem", "sqrt(9999999967)"],
                                       None, 1),
    "radicand --d 4": (["lfs", "cond3", "--elem", "7/5", "--d", "4"], None, 2),
    "elem zero denominator": (["lfs", "cond3", "--elem", "1/0"], None, 2),
    "netlist zero denominator": (["resistance", "{file}"], "R 1 a b 1/0\nV a b 1\n", 2),
    "netlist radicand 4": (["resistance", "{file}"], "R 1 a b sqrt(4)\nV a b 1\n", 2),
    "netlist not connected": (["resistance", "{file}"],
                              "R 1 a b 1\nR 2 c d 1\nV a b 1\n", 2),
    "field radicand 4": (["solve", "{file}"],
                         _dissection(field={"kind": "quadratic", "d": 4}), 2),
    "field not an object": (["solve", "{file}"], _dissection(field=[1]), 2),
    "missing key": (["solve", "{file}"], json.dumps({"field": {"kind": "rational"}}), 2),
    "tiles not a list": (["solve", "{file}"], _dissection(tiles=5), 2),
    "sketch with 3 entries": (["solve", "{file}"], _tile(sketch=[0, 0, 1]), 2),
    "sketch entry a word": (["solve", "{file}"], _tile(sketch=["a", 0, 1, 1]), 2),
    "tile id a word": (["solve", "{file}"], _tile(id="x"), 2),
    "aspect zero denominator": (["solve", "{file}"], _tile(aspect="1/0"), 2),
    "duplicate tile ids": (["solve", "{file}"], _dissection(tiles=[
        {"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1"},
        {"id": 1, "sketch": [1, 0, 1, 1], "aspect": "1"}]), 2),
    "ladder top level a list": (["lfs", "eval-cf", "{file}"], "[1]", 2),
    "ladder without coefficients": (
        ["lfs", "eval-cf", "{file}"],
        json.dumps({"field": {"kind": "rational"}, "R": "2", "c": []}), 2),
    "theorem1 without tiles": (["theorem1", "{file}"], _dissection(tiles=[]), 1),
    # json.loads fails without a JSONDecodeError, and sketches off the reals
    "JSON number over the digit limit": (
        ["solve", "{file}"], _tile(id="ID").replace('"ID"', "1" * 5000), 2),
    "JSON nested too deeply": (["solve", "{file}"], "[" * 100_000 + "]" * 100_000, 2),
    "ladder JSON number over the digit limit": (
        ["lfs", "eval-cf", "{file}"],
        '{"field": {"kind": "rational"}, "R": %s, "c": ["1"]}' % ("9" * 5000), 2),
    "ladder JSON nested too deeply": (
        ["lfs", "eval-cf", "{file}"], '{"c": ' + "[" * 100_000 + "]" * 100_000 + "}", 2),
    "sketch Infinity": (["solve", "{file}"], _tile(sketch=[0, 0, math.inf, 1]), 2),
    "sketch NaN": (["solve", "{file}"], _tile(sketch=[math.nan, 0, 1, 1]), 2),
    # a fractional number, string or boolean where the format asks for an
    # integer, and a string or boolean where it asks for a number, exited 0
    "field radicand 2.5": (["solve", "{file}"],
                           _dissection(field={"kind": "quadratic", "d": 2.5}), 2),
    "field radicand a string": (["solve", "{file}"],
                                _dissection(field={"kind": "quadratic", "d": "2"}), 2),
    "rational field with a radicand": (["solve", "{file}"],
                                       _dissection(field={"kind": "rational", "d": 5}), 2),
    "ladder radicand 3.7": (["lfs", "eval-cf", "{file}"], json.dumps(
        {"field": {"kind": "quadratic", "d": 3.7}, "R": "sqrt(3)", "c": ["1"]}), 2),
    "tile id 1.9": (["solve", "{file}"], _tile(id=1.9), 2),
    "tile id true": (["solve", "{file}"], _tile(id=True), 2),
    "sketch of booleans and strings": (["solve", "{file}"],
                                       _tile(sketch=[False, "0", True, "1"]), 2),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_input_boundary_exit_codes(name, tmp_path, capsys):
    argv, content, expected = BOUNDARY_CASES[name]
    if content is not None:
        path = tmp_path / "input"
        path.write_text(content)
        argv = [str(path) if a == "{file}" else a for a in argv]
    start = time.process_time()
    code, out, err = invoke(capsys, *argv)
    cpu = time.process_time() - start
    assert code == expected
    assert cpu < 0.5, f"{cpu:.2f} s of CPU"
    if expected == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("coordinate", range(4))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_sketch_names_its_tile(coordinate, value, tmp_path, capsys):
    bad = [1, 0, 1, 1]
    bad[coordinate] = value
    path = tmp_path / "input.json"
    path.write_text(_dissection(tiles=[
        {"id": 1, "sketch": [0, 0, 1, 1], "aspect": "1"},
        {"id": 2, "sketch": bad, "aspect": "1"}]))
    code, out, err = invoke(capsys, "solve", str(path))
    assert code == 2 and out == ""
    # a NaN or negative width or height is caught first, as degenerate
    assert err in ("error: tile 2 has a non-finite sketch coordinate\n",
                   "error: tile 2 has a degenerate sketch\n")


@pytest.mark.parametrize("option, value, expected", [
    ("--poly", "-x+5", (0, "PASS  (polynomial: x - 5)\n")),
    ("--elem", "-1+sqrt(2)", (1, "FAIL  (polynomial: x^2 + 2*x - 1)\n")),
])
def test_value_with_a_leading_minus(option, value, expected, capsys):
    code, out, err = invoke(capsys, "lfs", "cond3", option, value)
    assert (code, out, err) == (*expected, "")
    assert invoke(capsys, "lfs", "cond3", f"{option}={value}") == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["--poly", "-h"],
    ["--poly", "--json"],
    ["--elem", "--poly", "-x+5"],
    ["--poly"],
])
def test_option_after_poly_or_elem_stays_an_option(argv, capsys):
    code, out, err = invoke(capsys, "lfs", "cond3", *argv)
    assert code == 2 and out == ""
    assert "expected one argument" in err


@pytest.mark.parametrize("argv", [
    ["--poly", "-5"],
    ["--poly", "- x + 5"],
    ["--poly", "-"],
    ["--elem", "-2", "--d", "3"],
    ["--d", "-3", "--elem", "-2"],
    ["--poly=-x+5"],
])
def test_values_that_parse_today_parse_the_same(argv):
    argv = ["lfs", "cond3", *argv]
    assert (vars(build_parser().parse_args(_attach_signed_values(argv)))
            == vars(build_parser().parse_args(argv)))
