"""Exact command-line output over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5), pinned.

Every answer below is printed from exact arithmetic, so a change to how
``QuadExt`` scalars are stored or reduced, or to how the checks over Q
compare their ``Fraction`` values, shows here as a changed byte.  The
rational cases run every dissection command on a 36-tile brick wall
(``perfbench/gen.py``'s ``brick_wall``) as a sketch, sized, and sized with
one tile moved.
``quadratic_outputs.json`` holds, per case, the exit code, stdout and
stderr of each command and the text of every file it writes; ``{tmp}``
stands for the case's temporary directory.
"""

import json
from pathlib import Path

import pytest

from tilecircuit.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "quadratic_outputs.json").read_text(encoding="utf-8"))

# Each case is a list of commands run in order in one temporary directory;
# "{tmp}" in an argument is replaced by that directory.
CASES = {
    f"{name}-{mode}": [
        [*flag, "solve", str(DATA / f"{name}.json"), "--out", "{tmp}/sized.json"],
        [*flag, "validate", "{tmp}/sized.json"],
        [*flag, "equiv-check", str(DATA / f"{name}.json")],
    ]
    for name in ("five_similar", "wall_sqrt2", "wall_sqrt5")
    for mode, flag in (("json", ["--json"]), ("text", []))
}
CASES.update({
    f"ladder_sqrt3-{mode}": [
        [*flag, "lfs", "build", str(DATA / "ladder_sqrt3.json"), "--out", "{tmp}/ladder.json"],
        [*flag, "theorem1", "{tmp}/ladder.json"],
    ]
    for mode, flag in (("json", ["--json"]), ("text", []))
})

CASES.update({
    f"{name}-{mode}": [
        [*flag, "solve", str(DATA / f"{name}.json"), "--out", "{tmp}/sized.json"],
        [*flag, "validate", str(DATA / f"{name}.json")],
        [*flag, "equiv-check", str(DATA / f"{name}.json")],
        [*flag, "to-circuit", str(DATA / f"{name}.json")],
        [*flag, "dehn-check", str(DATA / f"{name}.json")],
        [*flag, "render", str(DATA / f"{name}.json"), "-o", "{tmp}/wall.svg"],
    ]
    for name in ("wall_q", "wall_q_sized", "wall_q_moved")
    for mode, flag in (("json", ["--json"]), ("text", []))
})


def run_case(commands, tmp_path, capsys) -> list:
    """Exit code, stdout, stderr and written files of each command, in order."""
    tmp = str(tmp_path)
    results = []
    for argv in commands:
        before = {p.name for p in tmp_path.iterdir()}
        code = run([arg.replace("{tmp}", tmp) for arg in argv])
        captured = capsys.readouterr()
        written = {
            p.name: p.read_text(encoding="utf-8")
            for p in sorted(tmp_path.iterdir()) if p.name not in before
        }
        results.append({
            "exit": code,
            "stdout": captured.out.replace(tmp, "{tmp}"),
            "stderr": captured.err.replace(tmp, "{tmp}"),
            "written": written,
        })
    return results


def test_every_case_has_pinned_output():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_quadratic_output_is_byte_identical(case, tmp_path, capsys):
    assert run_case(CASES[case], tmp_path, capsys) == GOLDEN[case]
