"""``cli.run`` builds its parser once per process and reuses it.

Every request through the shared parser must give the same exit code,
stdout, stderr and written files as a request through a parser of its own,
in any order, and the parser ``build_parser`` returns must stay the
caller's own.
"""

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tilecircuit import cli
from tilecircuit.dissection import dump_dissection, load_dissection, solve_sizes

DATA = Path(__file__).parent / "data"

# "{data}" is tests/data, "{in}" holds the sized shelf and "{out}" is
# emptied before every request.
COMMANDS = [
    ["validate", "{in}/shelf_sized.json"],
    ["validate", "{data}/shelf.json"],
    ["solve", "{data}/shelf.json"],
    ["solve", "{data}/five_similar.json", "--out", "{out}/sized.json"],
    ["dehn-check", "{in}/shelf_sized.json"],
    ["dehn-check", "{data}/wall_sqrt2.json"],
    ["to-circuit", "{data}/shelf.json"],
    ["to-circuit", "{data}/shelf.json", "--out", "{out}/net.txt"],
    ["resistance", "{data}/net_series_1_1.txt"],
    ["resistance", "{data}/net_parallel_1_t.txt", "--symbolic"],
    ["equiv-check", "{data}/wall_sqrt5.json"],
    ["theorem1", "{data}/five_similar.json"],
    ["lfs", "cond3", "--poly", "x^2-2x-1"],
    ["lfs", "cond3", "--poly", "-x+5"],
    ["lfs", "cond3", "--elem", "1 + sqrt(2)"],
    ["lfs", "cond3", "--elem", "7/5", "--d", "3"],
    ["lfs", "eval-cf", "{data}/ladder_sqrt3.json"],
    ["lfs", "build", "{data}/ladder_sqrt3.json", "--out", "{out}/ladder.json"],
    ["render", "{data}/shelf.json", "-o", "{out}/shelf.svg"],
    # failures of the tool and of the mathematics
    ["solve", "{in}/missing.json"],
    ["lfs", "cond3", "--poly", "x^^2"],
    ["lfs", "cond3", "--poly", "x^2-2"],
]
USAGE = [
    [],
    ["--help"],
    ["lfs", "--help"],
    ["lfs", "cond3", "-h"],
    ["frobnicate"],
    ["lfs"],
    ["lfs", "cond3"],
    ["lfs", "cond3", "--poly", "x", "--elem", "2"],
    ["lfs", "cond3", "--poly", "-h"],
    ["lfs", "cond3", "--elem", "2", "--d", "two"],
    ["lfs", "build", "{data}/ladder_sqrt3.json"],
    ["solve"],
    ["solve", "a", "b"],
    ["render", "{data}/shelf.json", "--unknown"],
    ["--json"],
]
BATTERY = [flag + argv for argv in COMMANDS for flag in ([], ["--json"])] + USAGE


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("reuse")
    inputs, out = base / "in", base / "out"
    inputs.mkdir()
    sized = solve_sizes(load_dissection((DATA / "shelf.json").read_text())).sized
    (inputs / "shelf_sized.json").write_text(dump_dissection(sized))
    return {"{data}": str(DATA), "{in}": str(inputs), "{out}": str(out)}


@pytest.fixture
def fresh_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _request(argv, dirs):
    """Exit code, stdout, stderr and written files of one ``cli.run``."""
    out_dir = Path(dirs["{out}"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    for key, path in dirs.items():
        argv = [arg.replace(key, path) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.run(argv)
    written = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), written


def test_shared_parser_answers_as_a_fresh_one(dirs, fresh_cache, monkeypatch):
    shared = cli._parser
    fresh = {}
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        for argv in BATTERY:
            fresh[tuple(argv)] = _request(argv, dirs)
    # two rounds, the second in reverse order, so each request follows a
    # different one than in the fresh run
    for battery in (BATTERY, BATTERY[::-1]):
        for argv in battery:
            assert _request(argv, dirs) == fresh[tuple(argv)], argv
    assert shared.cache_info().currsize == 1
    codes = {result[0] for result in fresh.values()}
    assert codes == {0, 1, 2}


def test_run_builds_the_parser_once(dirs, fresh_cache, monkeypatch):
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        for argv in BATTERY:
            _request(argv, dirs)
    assert len(calls) == 1


def test_a_returned_parser_is_the_callers_own(dirs, fresh_cache):
    argvs = [["--help"], ["lfs", "cond3", "--poly", "x^2-2"], ["frobnicate"],
             ["--json", "solve", "{data}/shelf.json"]]
    before = [_request(argv, dirs) for argv in argvs]
    mine = cli.build_parser()
    mine.prog = "changed"
    mine.description = "changed"
    mine.set_defaults(json=True, func=lambda args, out: 7)
    mine.add_argument("--extra", action="store_true")
    assert mine is not cli._parser()
    assert [_request(argv, dirs) for argv in argvs] == before
    assert _request(["--extra", "frobnicate"], dirs)[0] == 2
