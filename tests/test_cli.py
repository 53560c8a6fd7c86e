import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rieszlab import cli
from rieszlab.errors import ToleranceError


@pytest.fixture
def files(tmp_path):
    paths = {}

    def dump(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)

    dump("delta.json", {"n": 1, "masses": [{"a": 1.0, "c": [0.0]}]})
    dump(
        "pair.json",
        {
            "n": 2,
            "masses": [
                {"a": 1.0, "c": [0.0, 0.0]},
                {"a": 2.0, "c": [1.5, 0.0]},
            ],
        },
    )
    dump("unit.json", {"n": 1, "L": 0, "cells": [[0]]})
    dump("empty.json", {"n": 1, "L": 0, "cells": []})
    dump(
        "grid.json",
        {
            "n": 1,
            "L": 1,
            "box": {"level": -2, "coords": [0]},
            "values": [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        },
    )
    return paths


def run_ok(capsys, argv):
    assert cli.run(argv) == 0
    return capsys.readouterr().out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_constants_row(capsys):
    rows = parse_csv(run_ok(capsys, ["constants", "--n", "1"]))
    assert len(rows) == 1
    assert float(rows[0]["dimensional_constant"]) == pytest.approx(
        2.0 / math.pi, rel=1e-10
    )
    assert float(rows[0]["ball_volume"]) == pytest.approx(2.0, rel=1e-12)
    # 17 significant digits so the doubles survive a round trip
    assert len(rows[0]["sphere_l1"].replace("0.", "")) == 17


def run_python(args):
    """A fresh interpreter that imports rieszlab from this checkout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_module_entry_point(capsys):
    # python -m rieszlab.cli used to import the module and print nothing
    proc = run_python(["-m", "rieszlab.cli", "constants", "--n", "3"])
    assert proc.returncode == 0
    assert proc.stdout == run_ok(capsys, ["constants", "--n", "3"])
    assert len(parse_csv(proc.stdout)) == 1


@pytest.mark.parametrize("n", [12, 13, 15, 50])
def test_sphere_constants_in_high_dimension(capsys, tmp_path, n):
    # the sphere constants are closed forms, so no quadrature can fail here
    rows = parse_csv(run_ok(capsys, ["constants", "--n", str(n)]))
    assert float(rows[0]["sphere_l1"]) == 2.0 / math.pi
    run_ok(capsys, ["verify-kernel", "--kind", "second-order", "--n", str(n),
                    "--i", "1", "--j", "1", "--samples", "20000", "--seed", "1"])
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": n, "masses": [
        {"a": 1.0, "c": [0.0] * n}, {"a": 2.0, "c": [0.1] * n}]}))
    rows = parse_csv(run_ok(capsys, [
        "levelset", "--measure", str(path), "--lambda", "1", "--method", "mc",
        "--samples", "2000", "--seed", "1"]))
    assert float(rows[0]["standard_error"]) > 0.0


def test_import_leaves_quadrature_unloaded():
    # only the sphere quadrature oracle needs scipy.integrate
    code = "import sys, rieszlab, rieszlab.cli; print('scipy.integrate' in sys.modules)"
    proc = run_python(["-c", code])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_scipy_loads_only_where_it_runs(files, tmp_path):
    # only the quadrature oracle of verify-kernel imports scipy: the CLI,
    # these commands, search and sweep, whose Nelder-Mead is plain numpy, and
    # hilbert-exact, whose line solver is plain numpy, never do
    code = (
        "import json, sys; from rieszlab.cli import run; code = run(sys.argv[1:]); "
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy')])); "
        "sys.exit(code)"
    )

    def scipy_after(argv):
        proc = run_python(["-c", code, *argv])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        return lines[:-1], json.loads(lines[-1])

    proc = run_python(["-c", "import sys, rieszlab, rieszlab.cli; "
                       "print([m for m in sys.modules if m.startswith('scipy')])"])
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
    for argv in (
        ["cz", "--grid", files["grid.json"], "--lambda", "1", "--max-depth", "3"],
        ["whitney", "--set", files["unit.json"], "--max-depth", "4"],
        ["constants", "--n", "3"],
        ["levelset", "--measure", files["pair.json"], "--lambda", "1",
         "--method", "mc", "--samples", "2000", "--seed", "1"],
        ["search", "--n", "2", "--count", "2", "--samples", "1000",
         "--seed", "1", "--iterations", "8"],
        ["sweep", "--ns", "1,2", "--counts", "1,2", "--samples", "1000",
         "--seed", "1", "--iterations", "8"],
    ):
        assert scipy_after(argv)[1] == [], argv
    # lambda |{|H nu| > lambda}| / |nu| is 2 / pi; one pole needs no solve
    out, loaded = scipy_after(["hilbert-exact", "--measure", files["delta.json"],
                               "--lambda", "1"])
    assert float(out[-1].split(",")[-1]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert loaded == []
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n": 1, "masses": [{"a": 1.0, "c": [0.0]},
                                                   {"a": 1.0, "c": [1.0]}]}))
    out, loaded = scipy_after(["hilbert-exact", "--measure", str(path), "--lambda", "1"])
    assert loaded == []
    assert float(out[-1].split(",")[-1]) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_non_integer_json_exits_2(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"n": 1, "L": 0, "cells": [[0.5]]}))
    assert cli.run(["whitney", "--set", str(path), "--max-depth", "3"]) == 2
    path.write_text(json.dumps({"n": True, "masses": [{"a": 1.0, "c": [0.0]}]}))
    assert cli.run(["levelset", "--measure", str(path), "--lambda", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["whitney", "--max-depth", "3", "--set"],
         {"n": 1, "L": 0, "cells": [[2**70]]}),
        (["cz", "--lambda", "1", "--max-depth", "3", "--grid"],
         {"n": 1, "L": 1, "box": {"level": 0, "coords": [2**70]},
          "values": [1.5, 1.0]}),
        (["whitney", "--max-depth", str(2**70), "--set"],
         {"n": 1, "L": 0, "cells": [[0]]}),
    ],
    ids=["whitney-cell", "cz-box", "whitney-depth"],
)
def test_out_of_int64_integers_exit_2(capsys, tmp_path, argv, doc):
    # each once raised an uncaught OverflowError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.run(argv + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "level, argv",
    [
        (-2000, ["cz", "--lambda", "1", "--max-depth", "-1998"]),
        (-2000, ["cancellation", "--n", "1", "--kind", "hilbert",
                 "--center", "0", "--radius", "1e300"]),
        (1100, ["cz", "--lambda", "1", "--max-depth", "1100"]),
        (1100, ["cancellation", "--n", "1", "--kind", "hilbert",
                "--center", "0", "--radius", "1"]),
    ],
    ids=["cz-coarse", "cancellation-coarse", "cz-fine", "cancellation-fine"],
)
def test_grid_cell_volume_outside_doubles_exits_2(capsys, tmp_path, level, argv):
    # 2^-L is inf or 0.0 here: once numpy overflow warnings and a refusal
    # that blamed the masses, an OverflowError or a ZeroDivisionError
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": 1, "L": level, "values": [2.0, 0.0],
                                "box": {"level": level - 1, "coords": [0]}}))
    flag = "--grid" if argv[0] == "cz" else "--density"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(argv + [flag, str(path)]) == 2
    assert not caught
    assert "grid level %d" % level in capsys.readouterr().err


def test_cz_depth_past_the_double_range_names_the_depth(capsys, tmp_path):
    # pieces finer than level 1074 have volume 2^-1076 = 0.0: the input at
    # fault is --max-depth, so the refusal names it, not the masses
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": 1, "L": 1074, "values": [2.0, 0.0],
                                "box": {"level": 1073, "coords": [0]}}))
    argv = ["cz", "--grid", str(path), "--lambda", "1", "--max-depth", "1076"]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "max_depth 1076" in err and "level-1076 piece masses underflow" in err


def test_fine_grid_inside_doubles_still_decomposes(capsys, tmp_path):
    # cell volume 2^-1000 is a normal double: accepted, bytes as before
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": 1, "L": 1000, "values": [2.0, 0.0],
                                "box": {"level": 999, "coords": [0]}}))
    out = run_ok(capsys, ["cz", "--grid", str(path), "--lambda", "1",
                          "--max-depth", "1003"])
    digest = "e91fc720cdd3538b764a3a43976fec712ad98a7f22b17a4349ba2b4d220adb0f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, doc",
    [
        ("levelset", {"n": 1, "masses": [{"a": "2.5", "c": [0.5]}]}),
        ("levelset", {"n": 1, "masses": [{"a": 2.5, "c": ["0.5"]}]}),
        ("levelset", {"n": 1, "masses": [{"a": True, "c": [0.5]}]}),
        ("levelset", {"n": 1, "masses": [{"a": 2.5, "c": [False]}]}),
        ("cz", {"n": 1, "L": 1, "box": {"level": 0, "coords": [0]},
                "values": ["1.5", 1.0]}),
        ("cz", {"n": 1, "L": 1, "box": {"level": 0, "coords": [0]},
                "values": [1.5, True]}),
    ],
)
def test_non_number_json_floats_exit_2(capsys, tmp_path, command, doc):
    # each was once read as a float: "2.5" as 2.5 and true as 1.0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "levelset": ["levelset", "--measure", str(path), "--lambda", "1"],
        "cz": ["cz", "--grid", str(path), "--lambda", "1", "--max-depth", "3"],
    }[command]
    assert cli.run(argv) == 2
    capsys.readouterr()


def test_hilbert_exact_single_pole(capsys, files):
    out = run_ok(
        capsys,
        ["hilbert-exact", "--measure", files["delta.json"], "--lambda", "1"],
    )
    rows = parse_csv(out)
    assert rows[-1]["side"] == "total"
    assert float(rows[-1]["value"]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    plus = [r for r in rows if r["side"] == "plus"]
    assert len(plus) == 1
    assert float(plus[0]["right"]) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_hilbert_exact_rows_are_the_solved_lengths(capsys, tmp_path):
    # masses 1e-20 give intervals of about 3e-21 beside poles at 1 and 2,
    # far below the spacing of doubles there: right - left would read 0
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 1, "masses": [
        {"a": 1e-20, "c": [0.0]}, {"a": 1e-20, "c": [1.0]}, {"a": 1e-20, "c": [2.0]}]}))
    rows = parse_csv(run_ok(capsys, ["hilbert-exact", "--measure", str(path),
                                     "--lambda", "1"]))
    lengths = [float(r["value"]) for r in rows[:-1]]
    assert len(lengths) == 6 and min(lengths) > 0.0
    total = float(rows[-1]["value"])
    assert total == pytest.approx(2.0 / math.pi, rel=1e-12)
    # the total is lambda times the summed rows over |nu| = 3e-20
    assert math.fsum(lengths) / 3e-20 == pytest.approx(total, rel=1e-12)


def test_levelset_and_weaktype_rows(capsys, files):
    rows = parse_csv(
        run_ok(
            capsys,
            ["levelset", "--measure", files["delta.json"], "--lambda", "1"],
        )
    )
    assert rows[0]["method"] == "interval"
    assert float(rows[0]["value"]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    argv = [
        "weaktype", "--measure", files["pair.json"], "--lambda", "1",
        "--method", "mc", "--samples", "20000", "--seed", "4",
    ]
    rows = parse_csv(run_ok(capsys, argv))
    assert rows[0]["method"] == "mc" and rows[0]["seed"] == "4"
    value = float(rows[0]["value"])
    se = float(rows[0]["standard_error"])
    assert 0.1 < value < 0.6 and 0.0 < se < 0.05


def test_whitney_json_and_empty_set(capsys, files):
    out = run_ok(
        capsys,
        ["whitney", "--set", files["unit.json"], "--max-depth", "4"],
    )
    doc = json.loads(out)
    assert len(doc["cubes"]) == 8 and len(doc["residual"]) == 4
    assert all(c["level"] == 4 for c in doc["residual"])
    assert cli.run(
        ["whitney", "--set", files["empty.json"], "--max-depth", "6"]
    ) == 2


# Fixed inputs for whitney and cz, and the sha256 of each output. The other
# Whitney tests accept any valid tiling; these pin which cubes, residual
# cells and pieces come out, byte for byte.
FROZEN_RUNS = {
    "whitney-ring-2d": (
        ["whitney", "--max-depth", "4", "--set"],
        {"n": 2, "L": 0, "cells": [
            [x, y] for x in range(6) for y in range(6)
            if not (2 <= x <= 3 and 2 <= y <= 3)]},
        "d81514fba706e37f20a806b58624f096379f505d973d984025c29525f759a4d6",
    ),
    "whitney-blob-3d": (
        ["whitney", "--max-depth", "4", "--set"],
        {"n": 3, "L": 0, "cells": [
            [x, y, z] for x in range(-1, 1) for y in range(2)
            for z in range(2)] + [[1, 0, 0]]},
        "1700687f9fd0bb61c3788d2e8a6f131828e4e2c0448bf9c41c285f8486c527a0",
    ),
    "cz-2d": (
        ["cz", "--lambda", "1.0", "--max-depth", "6", "--grid"],
        {"n": 2, "L": 3, "box": {"level": 0, "coords": [0, -1]},
         "values": [2.0 if abs(i - 3.5) + abs(j - 3.5) <= 3 else (i + j) % 4 / 8
                    for i in range(8) for j in range(8)]},
        "77a515bbbf7dc6634ade485099f1f1cf16fe70b9e1c36e20a73f9787ba0ac197",
    ),
    "cz-3d": (
        ["cz", "--lambda", "0.75", "--max-depth", "4", "--grid"],
        {"n": 3, "L": 2, "box": {"level": 0, "coords": [-1, 0, 0]},
         "values": [((i + 2 * j + 3 * k) % 5) / 2.0
                    for i in range(4) for j in range(4) for k in range(4)]},
        "fd2e0710f8686b4bed148adf04168db5ef52b451da4b998c81f42bc3f4dd0f84",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_whitney_and_cz_bytes_frozen(capsys, tmp_path, name):
    argv, doc, digest = FROZEN_RUNS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = run_ok(capsys, argv + [str(path)])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cz_json(capsys, files):
    out = run_ok(
        capsys,
        ["cz", "--grid", files["grid.json"], "--lambda", "0.5",
         "--max-depth", "6"],
    )
    doc = json.loads(out)
    assert set(doc) >= {"lambda", "good", "pieces", "measure",
                        "residual_measure"}
    assert doc["lambda"] == 0.5
    assert len(doc["pieces"]) >= 1


def test_cancellation_row(capsys, files):
    out = run_ok(
        capsys,
        ["cancellation", "--n", "1", "--kind", "hilbert",
         "--density", files["grid.json"], "--center", "2",
         "--radius", "0.5", "--quad-depth", "3"],
    )
    rows = parse_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(0.1953485717, rel=1e-5)


def test_cancellation_non_finite_mass_exits_2(capsys, files):
    for bad in ("nan", "inf"):
        argv = ["cancellation", "--n", "1", "--density", files["grid.json"],
                "--center", "2", "--radius", "0.5", "--mass", bad]
        assert cli.run(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("level, radius", [(-1000, "1e302"), (1000, "1.5e-301")])
def test_cancellation_radius_past_the_double_range_exits_2(capsys, tmp_path,
                                                           level, radius):
    # the support lies inside the ball at both ends; once the coarse end
    # overflowed the support check and the fine end printed inf,inf, exit 0
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": 1, "L": level, "values": [2.0, 0.0],
                                "box": {"level": level - 1, "coords": [0]}}))
    argv = ["cancellation", "--n", "1", "--density", str(path),
            "--center", "0", "--radius", radius]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(argv) == 2
    assert not caught
    err = capsys.readouterr().err
    assert "support radius %r" % float(radius) in err
    assert "escapes" not in err


def test_exhaustion_table(capsys, files):
    out = run_ok(
        capsys,
        ["exhaustion", "--measure", files["pair.json"], "--lambda", "1",
         "--samples", "20000", "--seed", "7"],
    )
    rows = parse_csv(out)
    assert [r["k"] for r in rows] == ["1", "2"]
    assert float(rows[0]["radius"]) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12
    )
    assert float(rows[1]["volume"]) == pytest.approx(
        2.0, abs=3.0 * float(rows[1]["standard_error"])
    )


def test_search_json_round_trip(capsys):
    out = run_ok(
        capsys,
        ["search", "--n", "2", "--count", "2", "--samples", "2000",
         "--seed", "5", "--iterations", "20", "--restarts", "2"],
    )
    doc = json.loads(out)
    from rieszlab.measures import PointMassMeasure

    best = PointMassMeasure.from_json_dict(doc["best"])
    assert best.count == 2 and best.n == 2
    assert doc["reevaluated_value"] == pytest.approx(
        1.0 / math.pi, abs=max(1e-12, 5.0 * doc["reevaluated_se"] + 0.05)
    )
    trace = doc["trace"]
    assert all(a[1] <= b[1] for a, b in zip(trace, trace[1:]))


def test_sweep_csv_and_timings(capsys):
    argv = ["sweep", "--ns", "1,2", "--counts", "1,2", "--samples", "2000",
            "--seed", "3", "--iterations", "16", "--restarts", "2"]
    rows = parse_csv(run_ok(capsys, argv))
    assert [(r["n"], r["count"]) for r in rows] == [
        ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"),
    ]
    assert "wall_time" not in rows[0]
    assert float(rows[2]["value"]) == pytest.approx(
        1.0 / math.pi, rel=1e-10
    )
    timed = parse_csv(run_ok(capsys, argv + ["--timings"]))
    assert all(float(r["wall_time"]) >= 0.0 for r in timed)


def test_byte_identity_and_threads(capsys, files):
    argv = [
        "weaktype", "--measure", files["pair.json"], "--lambda", "1",
        "--method", "mc", "--samples", "40000", "--seed", "4",
    ]
    first = run_ok(capsys, argv)
    second = run_ok(capsys, argv)
    threaded = run_ok(capsys, argv + ["--threads", "4"])
    assert first == second == threaded
    argv2 = ["exhaustion", "--measure", files["pair.json"], "--lambda", "1",
             "--samples", "20000", "--seed", "7"]
    assert run_ok(capsys, argv2) == run_ok(capsys, argv2)


def test_out_flag_writes_file(tmp_path, capsys, files):
    target = tmp_path / "result.csv"
    argv = ["constants", "--n", "3", "--out", str(target)]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == ""
    inline = run_ok(capsys, ["constants", "--n", "3"])
    assert target.read_text() == inline


def test_threads_env_fallback(monkeypatch, capsys, files):
    argv = [
        "weaktype", "--measure", files["pair.json"], "--lambda", "1",
        "--method", "mc", "--samples", "40000", "--seed", "4",
    ]
    plain = run_ok(capsys, argv)
    monkeypatch.setenv("RIESZ_LAB_THREADS", "4")
    assert run_ok(capsys, argv) == plain
    # a count below 1 is refused, not read as 1
    for bad in ("zebra", "0", "-1"):
        monkeypatch.setenv("RIESZ_LAB_THREADS", bad)
        assert cli.run(argv) == 2
    monkeypatch.delenv("RIESZ_LAB_THREADS")
    assert cli.run(argv + ["--threads", "0"]) == 2
    assert cli.run(argv + ["--threads", "-1"]) == 2


def test_exit_codes(capsys, files, monkeypatch):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["levelset", "--measure", files["pair.json"]]) == 2
    assert cli.run(
        ["levelset", "--measure", "/does/not/exist.json", "--lambda", "1"]
    ) == 2
    # MC without samples or seed is a validation error
    assert cli.run(
        ["weaktype", "--measure", files["pair.json"], "--lambda", "1"]
    ) == 2
    # the random-restart optimizer is gone: argparse refuses the choice
    assert cli.run(
        ["search", "--n", "2", "--count", "2", "--samples", "2000", "--seed",
         "5", "--optimizer", "random-restart"]
    ) == 2
    capsys.readouterr()

    def boom(*_args, **_kwargs):
        raise ToleranceError("made up", partial=1.0)

    monkeypatch.setattr(cli.levelset, "levelset_measure", boom)
    assert cli.run(
        ["levelset", "--measure", files["delta.json"], "--lambda", "1"]
    ) == 3
    capsys.readouterr()


def test_hilbert_exact_solves_each_side_once(capsys, files, monkeypatch):
    # both sides are one stacked solve
    solve = cli.levelset._line_lengths
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cli.levelset, "_line_lengths", counted)
    argv = ["hilbert-exact", "--measure", files["delta.json"], "--lambda", "1"]
    rows = parse_csv(run_ok(capsys, argv))
    assert len(calls) == 1
    assert float(rows[-1]["value"]) == pytest.approx(2.0 / math.pi, rel=1e-12)
