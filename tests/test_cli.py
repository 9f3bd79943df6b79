import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domus import aesthetics, cli, designer, synthesis, vm
from domus.world import VoxelStructure, load_constraints

from conftest import CORPUS

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.run([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_row3(tmp_path, capsys):
    out_file = tmp_path / "row.vox.txt"
    code, _, _ = run(capsys, "build", CORPUS / "row3.cvm", "--dims", 4, 1, 1,
                     "-o", out_file)
    assert code == 0
    assert out_file.read_text() == "DIMS 4 1 1\nLAYER 0\n###.\n"


def test_build_missing_file(capsys):
    code, _, err = run(capsys, "build", "missing.cvm")
    assert code == 3
    assert "missing.cvm" in err


def test_build_bad_program(tmp_path, capsys):
    bad = tmp_path / "bad.cvm"
    bad.write_text("MOVE X 0\n")
    code, _, err = run(capsys, "build", bad)
    assert code == 3 and "MOVE" in err


def test_usage_error_is_exit_2(capsys):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run([]) == 2


def test_render_writes_to_out(tmp_path, capsys):
    out_file = tmp_path / "row.vox.txt"
    code, out, _ = run(capsys, "render", CORPUS / "row3.cvm", "--dims", 4, 1, 1,
                       "-o", out_file)
    assert code == 0 and out == ""
    assert out_file.read_text() == "DIMS 4 1 1\nLAYER 0\n###.\n"


def test_render_examples(capsys):
    assert cli.render(VoxelStructure((1, 1, 1))) == "DIMS 1 1 1\nLAYER 0\n."
    assert cli.render(VoxelStructure((1, 1, 1), {(0, 0, 0)})) == "DIMS 1 1 1\nLAYER 0\n#"
    assert cli.render(VoxelStructure((2, 1, 1), {(0, 0, 0), (1, 0, 0)})) == "DIMS 2 1 1\nLAYER 0\n##"


def test_complexity_report(tmp_path, capsys):
    out_file = tmp_path / "row.vox.txt"
    run(capsys, "build", CORPUS / "row3.cvm", "--dims", 4, 1, 1, "-o", out_file)
    code, out, _ = run(capsys, "complexity", out_file)
    assert code == 0
    report = json.loads(out)
    assert report["length"] == 10
    assert report["cells"] == 3
    assert vm.execute(vm.parse(report["program_text"]), (4, 1, 1)).occupied == {
        (0, 0, 0), (1, 0, 0), (2, 0, 0)}


def test_beauty_report(tmp_path, capsys):
    out_file = tmp_path / "slab.vox.txt"
    run(capsys, "build", CORPUS / "slab4.cvm", "--dims", 4, 4, 1, "-o", out_file)
    code, out, _ = run(capsys, "beauty", out_file, "--dict", CORPUS / "brick.pat")
    assert code == 0
    report = json.loads(out)
    assert report["score"] == report["D"] * report["N"] + report["r"]
    assert report["residual_cells"] == []


def test_natural_exit_codes(capsys):
    code, out, _ = run(capsys, "natural", CORPUS / "slab4.cvm", "--dims", 8, 8, 8)
    assert code == 1  # a plain slab reads as artificial
    assert json.loads(out)["label"] == "Artificial"


def test_natural_small_structure_has_null_dimension(capsys):
    code, out, _ = run(capsys, "natural", CORPUS / "row3.cvm", "--dims", 4, 1, 1)
    report = json.loads(out)
    assert report["fractal_dimension"] is None
    assert code in (0, 1)


def test_attack_report(capsys):
    code, out, _ = run(capsys, "attack", CORPUS / "bridge.cvm",
                       "--fleet", 50, "--builder", "human", "--p", 0.2,
                       "--k", 2, "--seed", 1, "--dims", 8, 1, 8)
    assert code == 0
    report = json.loads(out)
    assert report["transfer_rate"] < 1.0
    assert report["distinct_structures"] > 1
    assert report["prototype_collapse"] >= 0.5


def test_attack_on_an_empty_program_removes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty.cvm"
    empty.write_text("")
    code, out, _ = run(capsys, "attack", empty, "--dims", 4, 4, 4, "--fleet", 2)
    assert code == 0 and json.loads(out)["attack_cells"] == []


def test_attack_on_every_cell_of_the_depth_4_carpet_is_fast(capsys):
    # the greedy search recounts only the gains near each pick, so a
    # budget of all 4,096 cells takes seconds, not minutes
    start = time.process_time()
    code, out, _ = run(capsys, "attack", CORPUS / "sierpinski4.cvm", "--dims", 81, 81, 1,
                       "--k", 4096, "--fleet", 1)
    assert time.process_time() - start < 30.0
    assert code == 0
    assert len(json.loads(out)["attack_cells"]) >= 1


def test_attack_budget_above_the_cell_count_equals_the_cell_count(capsys):
    def report(k):
        code, out, _ = run(capsys, "attack", CORPUS / "bridge.cvm", "--dims", 8, 1, 8,
                           "--builder", "human", "--p", 0.2, "--seed", 1, "--fleet", 20,
                           "--k", k)
        assert code == 0
        return json.loads(out)

    cells = report(14)
    above = report(1000)
    assert (cells["k"], above["k"]) == (14, 1000)
    assert {**above, "k": 14} == cells


def test_a_second_run_reads_the_defaults_not_the_first_runs_options(capsys):
    # one parser serves every run
    assert cli._build_parser() is cli._build_parser()
    argv = ["attack", CORPUS / "bridge.cvm", "--dims", 8, 1, 8, "--fleet", 1]
    code, out, _ = run(capsys, *argv, "--k", 3, "--format", "text")
    assert code == 0 and out.startswith("attack: ")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["k"] == 2


@pytest.mark.parametrize("bad", [
    ["--k", "0"],
    ["--fleet", "0"],
    ["--builder", "human", "--p", "1.5"],
    ["--builder", "human", "--p", "nan"],
    ["--threshold", "nan"],
    ["--threshold", "inf"],
])
def test_attack_bad_arguments_are_usage_errors(capsys, bad):
    code, out, err = run(capsys, "attack", CORPUS / "bridge.cvm", "--dims", 8, 1, 8, *bad)
    assert code == 2
    assert out == ""
    assert f"argument {bad[-2]}" in err and "Traceback" not in err


def test_natural_rejects_non_finite_threshold(capsys):
    code, _, err = run(capsys, "natural", CORPUS / "slab4.cvm", "--threshold", "nan")
    assert code == 2 and "argument --threshold" in err


def test_optimize_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "design"
    code, out, _ = run(capsys, "optimize",
                       "--dict", CORPUS / "brick.pat",
                       "--constraints", CORPUS / "constraints.json",
                       "--dims", 8, 8, 8, "--seed", 7, "--iters", 50,
                       "--out-dir", out_dir)
    assert code == 0
    assert (out_dir / "best.cvm").exists()
    assert (out_dir / "best.vox.txt").exists()
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,objective,accepted,best"
    assert len(trace) == 51
    built = VoxelStructure.from_layer_text((out_dir / "best.vox.txt").read_text().rstrip("\n"))
    rebuilt = vm.execute(vm.parse((out_dir / "best.cvm").read_text()), (8, 8, 8))
    assert built == rebuilt


def test_optimize_anneals_with_the_given_temperature_and_cooling(tmp_path, capsys):
    out_dir = tmp_path / "design"
    code, _, err = run(capsys, "optimize", "--dict", CORPUS / "brick.pat",
                       "--constraints", CORPUS / "constraints.json",
                       "--dims", 8, 8, 8, "--seed", 7, "--iters", 50,
                       "--temperature", 2, "--cooling", 0.9, "--out-dir", out_dir)
    assert code == 0, err
    dictionary = aesthetics.load_patterns((CORPUS / "brick.pat").read_text())
    cs = load_constraints((CORPUS / "constraints.json").read_text())
    params = designer.SearchParams(seed=7, iterations=50, dims=(8, 8, 8))
    _, default = designer.optimize(dictionary, cs, params)
    _, trace = designer.optimize(dictionary, cs, dataclasses.replace(
        params, initial_temperature=2.0, cooling=0.9))
    assert (out_dir / "trace.csv").read_text() == trace.to_csv() != default.to_csv()


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    args = ["natural", str(CORPUS / "sierpinski2.cvm"), "--dims", "9", "9", "1"]
    cli.run(args)
    first = capsys.readouterr().out
    cli.run(args)
    second = capsys.readouterr().out
    assert first == second


def test_corpus_builds_at_documented_dims(capsys):
    # sierpinski4 spans 81 cells, wider than the default 64-cell world
    sizes = {
        "row3.cvm": (64, 64, 64),
        "slab4.cvm": (64, 64, 64),
        "pillar.cvm": (64, 64, 64),
        "bridge.cvm": (64, 64, 64),
        "sierpinski2.cvm": (64, 64, 64),
        "sierpinski3.cvm": (64, 64, 64),
        "sierpinski4.cvm": (81, 81, 1),
    }
    for name, dims in sizes.items():
        code, _, err = run(capsys, "build", CORPUS / name,
                           "--dims", *dims)
        assert code == 0, (name, err)


def test_env_placement_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 2)
    code, _, err = run(capsys, "build", CORPUS / "slab4.cvm", "--dims", 4, 4, 1)
    assert code == 3
    assert "placements" in err


def test_dims_that_are_not_ints_are_usage_errors(capsys):
    code, out, err = run(capsys, "build", CORPUS / "row3.cvm", "--dims", 4, "x", 1)
    assert code == 2 and out == ""
    assert "argument --dims: invalid int value: 'x'" in err


def test_out_into_a_missing_directory_is_an_error(tmp_path, capsys):
    code, out, err = run(capsys, "build", CORPUS / "row3.cvm", "--dims", 4, 1, 1,
                         "-o", tmp_path / "missing" / "row.vox.txt")
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "No such file or directory" in err


@pytest.mark.parametrize("command", ["natural", "beauty"])
def test_metrics_refuse_structures_over_the_cell_limit(monkeypatch, capsys, command):
    # row3 has 3 cells; beauty's residual, after one brick, has 1
    argv = [command, CORPUS / "row3.cvm", "--dims", 4, 1, 1]
    if command == "beauty":
        argv += ["--dict", CORPUS / "brick.pat"]
    monkeypatch.setattr(synthesis, "DEFAULT_CELL_LIMIT", 3)
    assert run(capsys, *argv)[0] in (0, 1)
    monkeypatch.setattr(synthesis, "DEFAULT_CELL_LIMIT", 2)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "domus: error: structure has 3 cells, limit 2\n"


def test_env_placement_budget_reaches_witness_verification(tmp_path, capsys, monkeypatch):
    row = tmp_path / "row.vox.txt"
    row.write_text("DIMS 3 1 1\nLAYER 0\n###\n")
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 1)
    code, out, err = run(capsys, "complexity", row)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "placements" in err


@pytest.mark.parametrize("command", ["complexity", "beauty"])
def test_every_witness_check_of_a_command_keeps_to_the_one_budget(tmp_path, capsys,
                                                                  monkeypatch, command):
    # layered text is read, not built, so only the witness check of the
    # row (complexity) or of its residual (beauty, whose one pattern fits
    # nowhere in a 3 x 1 x 1 world) can refuse it
    row = tmp_path / "row.vox.txt"
    row.write_text("DIMS 3 1 1\nLAYER 0\n###\n")
    argv = [command, row]
    if command == "beauty":
        pat = tmp_path / "column.pat"
        pat.write_text("PATTERN column\n0 0 0\n0 1 0\n")
        argv += ["--dict", pat]
    assert run(capsys, *argv)[0] in (0, 1)
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 1)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "more than 1 placements" in err


def test_optimize_searches_within_the_placement_budget(tmp_path, capsys, monkeypatch):
    # the dictionary's one stamp encloses a cell, which the constraint pays
    # for; its witness charges 31 placements, so the budget admits one
    # stamp of the shell but not two
    shell = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)
             if (x, y, z) != (1, 1, 1)]
    pat = tmp_path / "shell.pat"
    pat.write_text("PATTERN shell\n" + "\n".join(f"{x} {y} {z}" for x, y, z in shell) + "\n")
    cons = tmp_path / "enclose.json"
    cons.write_text(json.dumps([{"kind": "EnclosedVolumeAtLeast",
                                 "params": {"v_min": 1}, "weight": 100.0}]))
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 40)
    out_dir = tmp_path / "design"
    code, out, err = run(capsys, "optimize", "--dict", pat, "--constraints", cons,
                         "--dims", 3, 3, 3, "--seed", 0, "--iters", 30, "--out-dir", out_dir)
    assert code == 0, err
    assert json.loads(out)["objective"] == 0
    best = vm.parse((out_dir / "best.cvm").read_text())
    assert vm.execute(best, (3, 3, 3)).occupied == set(shell)


def test_deeply_nested_program_is_an_error(tmp_path, capsys):
    deep = tmp_path / "deep.cvm"
    deep.write_text("REPEAT 2 { " * 3000 + "PLACE" + " }" * 3000)
    code, _, err = run(capsys, "build", deep, "--dims", 2, 2, 2)
    assert code == 3
    assert err.startswith("domus: error:") and "nested deeper" in err


def test_non_utf8_program_is_an_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cvm"
    bad.write_bytes("PLACE # café".encode("latin-1"))
    code, _, err = run(capsys, "build", bad, "--dims", 2, 2, 2)
    assert code == 3
    assert err.startswith("domus: error:") and "UTF-8" in err


def _call_chain(defs: int, repeats: int) -> str:
    """Each DEF wraps the previous one's CALL (or a PLACE) in `repeats`
    nested REPEATs; the program calls the last."""
    lines = []
    inner = "PLACE"
    for i in range(defs):
        lines.append(f"DEF d{i} {{ " + "REPEAT 2 { " * repeats + inner + " }" * repeats + " }")
        inner = f"CALL d{i}"
    return "\n".join(lines + [inner]) + "\n"


def test_call_chain_nested_too_deep_is_an_error(tmp_path, capsys):
    chain = tmp_path / "chain.cvm"
    chain.write_text(_call_chain(8, 99))
    code, _, err = run(capsys, "build", chain, "--dims", 2, 2, 2)
    assert code == 3
    assert err.startswith("domus: error:") and "nested deeper" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [
    ["--iters", "0"],
    ["--islands", "0"],
    ["--temperature", "0"],
    ["--temperature", "-1"],
    ["--temperature", "inf"],
    ["--temperature", "nan"],
    ["--cooling", "0"],
    ["--cooling", "1"],
    ["--cooling", "1.5"],
    ["--cooling", "nan"],
    ["--max-bytes", "-5"],
    ["--max-bytes", "23"],  # brick.pat's stamp prelude alone is 24 bytes
])
def test_optimize_bad_arguments_are_usage_errors(tmp_path, capsys, bad):
    out_dir = tmp_path / "design"
    code, out, err = run(capsys, "optimize", "--dict", CORPUS / "brick.pat",
                         "--constraints", CORPUS / "constraints.json",
                         "--dims", 4, 4, 4, "--out-dir", out_dir, *bad)
    assert code == 2
    assert out == "" and not out_dir.exists()
    assert f"argument {bad[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["build", CORPUS / "row3.cvm"],
    ["render", CORPUS / "row3.cvm"],
    ["complexity", CORPUS / "row3.cvm"],
    ["beauty", CORPUS / "row3.cvm", "--dict", CORPUS / "brick.pat"],
    ["natural", CORPUS / "row3.cvm"],
    ["optimize", "--dict", CORPUS / "brick.pat", "--constraints", CORPUS / "constraints.json"],
    ["attack", CORPUS / "row3.cvm"],
], ids=lambda c: c[0])
def test_zero_dims_are_usage_errors(capsys, command):
    code, out, err = run(capsys, *command, "--dims", 0, 1, 1)
    assert code == 2 and out == ""
    assert "argument --dims" in err and "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    ("build", "--seed", "1"),
    ("render", "--seed", "1"),
    ("complexity", "--seed", "1"),
    ("beauty", "--seed", "1"),
    ("natural", "--seed", "1"),
    ("build", "--format", "text"),
    ("render", "--format", "text"),
    ("optimize", "--workers", "2"),
])
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command,
                                                           option, value):
    inputs = {
        "beauty": [CORPUS / "row3.cvm", "--dict", CORPUS / "brick.pat"],
        "optimize": ["--dict", CORPUS / "brick.pat", "--constraints", CORPUS / "constraints.json",
                     "--out-dir", tmp_path / "design"],
    }.get(command, [CORPUS / "row3.cvm"])
    out_file = tmp_path / "out"
    code, out, err = run(capsys, command, *inputs, "--dims", 4, 1, 1, "-o", out_file,
                         option, value)
    assert code == 2 and out == ""
    assert not out_file.exists() and not (tmp_path / "design").exists()
    assert f"unrecognized arguments: {option}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["build", CORPUS / "row3.cvm"],
    ["render", CORPUS / "row3.cvm"],
    ["optimize", "--dict", CORPUS / "brick.pat", "--constraints", CORPUS / "constraints.json"],
], ids=lambda c: c[0])
def test_worlds_too_large_to_render_are_usage_errors(tmp_path, capsys, command):
    out_dir = tmp_path / "design"
    argv = [*command, "--dims", 100000, 100000, 100000]
    if command[0] == "optimize":
        argv += ["--out-dir", out_dir]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and not out_dir.exists()
    assert "argument --dims" in err and "Traceback" not in err


def test_render_cap_leaves_64_cubed_and_structure_files_alone(tmp_path, capsys):
    out_file = tmp_path / "row.vox.txt"
    code, _, _ = run(capsys, "build", CORPUS / "row3.cvm", "--dims", 64, 64, 64, "-o", out_file)
    assert code == 0
    assert out_file.read_text().startswith("DIMS 64 64 64\nLAYER 0\n###.")
    # a structure file's world is its own, whatever --dims says
    code, out, _ = run(capsys, "render", out_file, "--dims", 100000, 100000, 100000)
    assert code == 0 and out == out_file.read_text()


def test_attack_on_a_sparse_structure_in_a_huge_world_is_an_error(tmp_path, capsys):
    # two cells whose attack grid would span 10^16 cells
    far = tmp_path / "far.cvm"
    far.write_text("PLACE\nMOVE X 99999999\nMOVE Y 99999999\nPLACE\n")
    code, out, err = run(capsys, "attack", far, "--dims", 100000000, 100000000, 1,
                         "--fleet", 1)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "Traceback" not in err


def test_attack_grid_cap_is_the_render_cap(monkeypatch, capsys):
    # row3's grid is 3 x 1 x 1
    argv = ["attack", CORPUS / "row3.cvm", "--dims", 4, 1, 1, "--fleet", 1]
    monkeypatch.setattr(cli, "MAX_RENDER_CELLS", 3)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["n"] == 1
    monkeypatch.setattr(cli, "MAX_RENDER_CELLS", 2)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "Traceback" not in err


@pytest.mark.parametrize("builder, largest", [("robot", 9), ("human", 3)])
def test_attack_fleets_above_the_render_cap_are_usage_errors(monkeypatch, capsys,
                                                             builder, largest):
    # a human member holds row3's 3 cells, a robot member shares them
    monkeypatch.setattr(cli, "MAX_RENDER_CELLS", 9)
    argv = ["attack", CORPUS / "row3.cvm", "--dims", 4, 1, 1, "--builder", builder]
    code, out, _ = run(capsys, *argv, "--fleet", largest)
    assert code == 0 and json.loads(out)["n"] == largest
    code, out, err = run(capsys, *argv, "--fleet", largest + 1)
    assert code == 2 and out == ""
    assert "argument --fleet" in err and "Traceback" not in err


_TEXT_REPORTS = {
    "complexity": (["complexity", CORPUS / "row3.cvm", "--dims", 4, 1, 1], 0,
                   "length: 10\nmethod: compressed\ncells: 3\nprogram:\nFILL 3 1 1\n"),
    "beauty": (["beauty", CORPUS / "row3.cvm", "--dict", CORPUS / "brick.pat"], 0,
               "D: 35\nN: 1\nr: 0\nscore: 35\nplacements: 2\nresidual cells: 0\n"),
    "natural": (["natural", CORPUS / "sierpinski3.cvm", "--dims", 27, 27, 1], 1,
                "straightness: 1.0\n"
                "planarity: 0.7684210526315789\n"
                "symmetry: 1.0\n"
                "fractal_dimension: 1.8158547674089713\n"
                "fit_r2: 0.9987330100697825\n"
                "regularity_index: 0.9228070175438597\n"
                "naturalness: 0.07719298245614026\n"
                "label: Artificial\n"),
    "optimize": (["optimize", "--dict", CORPUS / "brick.pat", "--constraints",
                  CORPUS / "constraints.json", "--dims", 4, 4, 4, "--iters", 30,
                  "--out-dir", "{out_dir}"], 0,
                 "objective: 0.0\nwrote {out_dir}/best.cvm\n"),
    "attack": (["attack", CORPUS / "bridge.cvm", "--dims", 8, 1, 8, "--builder", "human",
                "--seed", 1, "--fleet", 3], 0,
               "attack: [(0, 0, 0), (5, 0, 0)]\n"
               "prototype collapse: 1.0\n"
               "fleet: 3 members, 2 distinct\n"
               "transfer rate: 1.0\n"),
}


@pytest.mark.parametrize("command", sorted(_TEXT_REPORTS))
def test_text_reports_are_pinned(tmp_path, capsys, command):
    argv, expected_code, expected = _TEXT_REPORTS[command]
    out_dir = str(tmp_path / "design")
    argv = [str(a).format(out_dir=out_dir) for a in argv]
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == expected_code
    assert out == expected.format(out_dir=out_dir)


# every corpus program's natural report at its criterion-8 dims, each
# value as printed, in the JSON payload's key order
_NATURAL_KEYS = ("fit_r2", "fractal_dimension", "label", "naturalness", "planarity",
                 "regularity_index", "straightness", "symmetry")
_NATURAL_PAYLOADS = {
    "row3.cvm": ((4, 1, 1), "null", "null", '"Artificial"', "0.33333333333333337",
                 "0.0", "0.6666666666666666", "1.0", "1.0"),
    "slab4.cvm": ((8, 8, 4), "null", "null", '"Artificial"', "0.0",
                  "1.0", "1.0", "1.0", "1.0"),
    "pillar.cvm": ((4, 4, 10), "1.0", "1.0", '"Artificial"', "0.019607843137254832",
                   "0.9411764705882353", "0.9803921568627452", "1.0", "1.0"),
    "bridge.cvm": ((8, 1, 8), "null", "null", '"Artificial"', "0.011494252873563204",
                   "0.9655172413793104", "0.9885057471264368", "1.0", "1.0"),
    "sierpinski2.cvm": ((9, 9, 1), "0.9983668658222807", "1.7826624321183975",
                        '"Artificial"', "0.0705128205128206", "0.7884615384615384",
                        "0.9294871794871794", "1.0", "1.0"),
    "sierpinski3.cvm": ((27, 27, 1), "0.9987330100697825", "1.8158547674089713",
                        '"Artificial"', "0.07719298245614026", "0.7684210526315789",
                        "0.9228070175438597", "1.0", "1.0"),
    "sierpinski4.cvm": ((81, 81, 1), "0.9991250591820685", "1.8643580130551194",
                        '"Artificial"', "0.0800363801728059", "0.7598908594815825",
                        "0.9199636198271941", "1.0", "1.0"),
}


def _natural_text(values) -> str:
    return "{\n" + ",\n".join(
        f'  "{key}": {value}' for key, value in zip(_NATURAL_KEYS, values)) + "\n}\n"


@pytest.mark.parametrize("name", sorted(_NATURAL_PAYLOADS))
def test_corpus_natural_payloads_are_pinned(capsys, name):
    dims, *values = _NATURAL_PAYLOADS[name]
    code, out, _ = run(capsys, "natural", CORPUS / name, "--dims", *dims)
    assert code == 1  # every corpus program reads as Artificial
    assert out == _natural_text(values)


def test_natural_on_a_sparse_world_is_cheap(tmp_path):
    # two cells at opposite corners of a 100000^3 world: a metric that
    # allocated by world or bounding-box volume would not end in time
    prog = tmp_path / "corners.cvm"
    prog.write_text("PLACE\nMOVE X 99999\nMOVE Y 99999\nMOVE Z 99999\nPLACE\n")
    res = subprocess.run(
        [sys.executable, "-c", "import sys; from domus.cli import main; sys.exit(main())",
         "natural", str(prog), "--dims", "100000", "100000", "100000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert res.returncode == 0, res.stderr
    assert res.stdout == _natural_text(
        ("1.0", "0.0", '"Natural"', "0.9999966666666666", "0.0",
         "3.3333333333333337e-06", "1e-05", "0.0"))


@pytest.mark.parametrize("weight", ["-1.0", "NaN"])
def test_bad_constraint_weight_is_an_error(tmp_path, capsys, weight):
    cons = tmp_path / "weights.json"
    cons.write_text(f'[{{"kind": "Stability", "weight": {weight}}}]')
    out_dir = tmp_path / "design"
    code, out, err = run(capsys, "optimize", "--dict", CORPUS / "brick.pat",
                         "--constraints", cons, "--dims", 4, 4, 4, "--iters", 5,
                         "--out-dir", out_dir)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "weight" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name, text", [
    ("params.json", '[{"kind": "Stability", "params": null}]'),
    ("overflow.json", '[{"kind": "MaterialAtMost", "params": {"m_max": 1e400}}]'),
    ("box.json", '[{"kind": "WithinBox", "params": {"box": [3, 0, 0, 1, 3, 3]}}]'),
    ("dims.vox.txt", "DIMS 2 1 -1\n"),
], ids=["params-null", "int-overflow", "inverted-box", "negative-dims"])
def test_hostile_inputs_are_format_errors(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    if name.endswith(".json"):
        argv = ["optimize", "--dict", CORPUS / "brick.pat", "--constraints", path,
                "--dims", 4, 4, 4, "--iters", 5, "--out-dir", tmp_path / "design"]
    else:
        argv = ["render", path]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "Traceback" not in err


def test_witness_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(synthesis, "_extract_defs", lambda program, **_: vm.Program(()))
    code, out, err = run(capsys, "complexity", CORPUS / "row3.cvm", "--dims", 4, 1, 1)
    assert code == 3 and out == ""
    assert err.startswith("domus: error:") and "does not rebuild" in err


# --- hostile-input fuzzing ---

_FUZZ_PROGRAMS = sorted(p.name for p in CORPUS.glob("*.cvm"))
_FUZZ_TOKENS = ["0", "1", "-1", "9", "-9", "10", "4096", "99999999999", "1e400", "nan",
                "-0", "{", "}", "[", "]", "DEF", "REPEAT", "CALL", "MOVE", "PLACE", "FILL",
                "X", "Y", "Z", "W", "a", "c1", "#", ".", "LAYER", "DIMS", "PATTERN", '"',
                ":", ",", "null", "true", '"kind"', '"params"', '"weight"', '"Stability"',
                "\x00", "é", ""]


def _layer_text(name: str, dims) -> str:
    return cli.render(vm.execute(vm.parse((CORPUS / name).read_text()), dims)) + "\n"


_FUZZ_LAYERS = [_layer_text("row3.cvm", (4, 1, 1)), _layer_text("bridge.cvm", (8, 1, 8)),
                _layer_text("sierpinski2.cvm", (9, 9, 1))]

_LAYER_JUNK = ["", " ", "#", "..#", "LAYER", "LAYER -1", "LAYER 0 0", "LAYER 99999999999",
               "DIMS 1 1 1", "DIMS 2 2", "\t.", "é#", "\x00"]


@st.composite
def _scratch_layers(draw) -> bytes:
    """Layer text written from scratch: a DIMS line, then LAYER lines and
    rows spelled out for those dims at a random density, with a few
    lines dropped, duplicated or replaced by junk."""
    dims = draw(st.tuples(*(st.integers(-1, 4),) * 3))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    nx, ny, nz = (max(n, 0) for n in dims)
    lines = ["DIMS " + " ".join(map(str, dims))]
    for z in range(nz):
        lines.append(f"LAYER {z}")
        lines += ["".join("#" if rng.random() < density else "." for _ in range(nx))
                  for _ in range(ny)]
    for at, junk in draw(st.lists(st.tuples(st.integers(0, 10**6),
                                            st.one_of(st.none(), st.just(0),
                                                      st.sampled_from(_LAYER_JUNK))),
                                  max_size=2)):
        if not lines:
            break
        at %= len(lines)
        if junk is None:
            del lines[at]
        elif junk == 0:
            lines.insert(at, lines[at])
        else:
            lines[at] = junk
    return ("\n".join(lines) + draw(st.sampled_from(["", "\n"]))).encode()


_PRINTABLE = "0123456789-{} \n#.XYZ"
_byte = st.one_of(st.binary(min_size=1, max_size=1), st.sampled_from(_PRINTABLE).map(str.encode))
_bytes = st.one_of(st.binary(max_size=4), st.text(_PRINTABLE, max_size=4).map(str.encode))
_edits = st.lists(st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 10**6), _byte),
    st.tuples(st.just("insert"), st.integers(0, 10**6), _bytes),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
    st.tuples(st.just("token"), st.integers(0, 10**6), st.sampled_from(_FUZZ_TOKENS)),
), min_size=1, max_size=3)


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        if kind == "token":
            parts = re.split(rb"(\s+)", data)
            i = 2 * (at % ((len(parts) + 1) // 2))
            parts[i] = arg.encode()
            data = b"".join(parts)
            continue
        at %= len(data) + 1
        if kind == "byte":
            data = data[:at] + arg + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
        else:
            data = data[:at] + data[at + arg:]
    return data


# the commands that read each kind of input file
_READERS = {".cvm": ["build", "complexity", "natural", "attack", "beauty"],
            ".vox.txt": ["render", "complexity", "natural", "beauty"],
            ".pat": ["beauty", "optimize"],
            ".json": ["optimize"]}


@st.composite
def _hostile_cases(draw):
    """A command over one corpus input with a few byte and token edits,
    over layer text written from scratch, or over random bytes written as
    a file of any kind the command reads."""
    role = draw(st.sampled_from(["program", "layers", "scratch", "pat", "constraints",
                                 "bytes"]))
    if role == "program":
        name = draw(st.sampled_from(_FUZZ_PROGRAMS))
        source, suffix = (CORPUS / name).read_bytes(), ".cvm"
        command = draw(st.sampled_from(_READERS[".cvm"]))
    elif role == "layers":
        source, suffix = draw(st.sampled_from(_FUZZ_LAYERS)).encode(), ".vox.txt"
        command = draw(st.sampled_from(["complexity", "natural", "beauty"]))
    elif role == "scratch":
        source, suffix = draw(_scratch_layers()), ".vox.txt"
        command = draw(st.sampled_from(_READERS[".vox.txt"]))
    elif role == "pat":
        source, suffix = (CORPUS / "brick.pat").read_bytes(), ".pat"
        command = draw(st.sampled_from(_READERS[".pat"]))
    elif role == "constraints":
        source, suffix = (CORPUS / "constraints.json").read_bytes(), ".json"
        command = "optimize"
    else:
        source, suffix = draw(st.binary()), draw(st.sampled_from(sorted(_READERS)))
        command = draw(st.sampled_from(_READERS[suffix]))
    # 9^3 holds every corpus program but pillar and the larger carpets
    dims = draw(st.one_of(st.just((9, 9, 9)),
                          st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))))
    data = source if role in ("scratch", "bytes") else _mutate(source, draw(_edits))
    return suffix, data, command, dims


def _hostile_argv(suffix, path, command, dims, tmp):
    dims = ["--dims", *map(str, dims)]
    if command == "optimize":
        pat = path if suffix == ".pat" else CORPUS / "brick.pat"
        cons = path if suffix == ".json" else CORPUS / "constraints.json"
        return ["optimize", "--dict", pat, "--constraints", cons, *dims,
                "--iters", "5", "--out-dir", tmp / "design"]
    target = CORPUS / "bridge.cvm" if suffix == ".pat" else path
    argv = [command, target, *dims]
    if command == "beauty":
        argv += ["--dict", path if suffix == ".pat" else CORPUS / "brick.pat"]
    if command == "attack":
        argv += ["--builder", "human", "--fleet", "3", "--seed", "1"]
    return argv


@given(_hostile_cases())
@settings(max_examples=1500, deadline=None)
def test_hostile_inputs_end_in_a_documented_exit_code(case):
    suffix, data, command, dims = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / f"input{suffix}"
        path.write_bytes(data)
        argv = [str(a) for a in _hostile_argv(suffix, path, command, dims, tmp)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, data)
    if code == 3:
        assert "domus: error:" in err.getvalue(), (argv, data)
