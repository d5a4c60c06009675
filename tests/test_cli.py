import dataclasses
import re
from argparse import Namespace

import numpy as np
import pytest

from hpss import (
    Excitation,
    KernelSpec,
    assemble,
    bistatic_rcs,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    gmres,
    read_mesh_csv,
    rhs,
)
from hpss.cli import _FIELD_TYPES, COMMAND_KEYS, RunConfig, main, parse_config, resolve_config


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_empty_file(tmp_path):
    assert parse_config(write_config(tmp_path, ""), "solve") == {}
    assert parse_config(write_config(tmp_path, "# only a comment\n\n"), "solve") == {}


def test_parse_config_coercions(tmp_path):
    path = write_config(
        tmp_path,
        """
        geometry = disk   # trailing comment
        eps_r = 2.0-0.5j
        leaf_size = 24
        aca_tol = 5e-4
        levels = 1,2
        """,
    )
    values = parse_config(path, "solve")
    assert values == {
        "geometry": "disk",
        "eps_r": 2.0 - 0.5j,
        "leaf_size": 24,
        "aca_tol": 5e-4,
        "levels": "1,2",
    }


def test_parse_config_unknown_key_lists_valid_ones(tmp_path):
    path = write_config(tmp_path, "leaf_sise = 24\n")
    with pytest.raises(ValueError, match="valid keys"):
        parse_config(path, "solve")
    try:
        parse_config(path, "solve")
    except ValueError as exc:
        assert "leaf_size" in str(exc)
        assert "run.cfg:1" in str(exc)


def test_parse_config_requires_key_value(tmp_path):
    with pytest.raises(ValueError, match="key=value"):
        parse_config(write_config(tmp_path, "just some words\n"), "solve")


def test_field_types_stay_in_sync_with_runconfig():
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(_FIELD_TYPES) == field_names
    # every field is read by some subcommand, and every key names a field
    assert set().union(*COMMAND_KEYS.values()) == field_names
    for keys in COMMAND_KEYS.values():
        assert len(set(keys)) == len(keys)


CONFIG_VALUES = {
    "geometry": "disk",
    "length": "3",
    "radius": "0.5",
    "eps_r": "2.5-0.1j",
    "density": "12",
    "leaf_size": "16",
    "eta": "0.8",
    "aca_tol": "1e-4",
    "gmres_tol": "1e-7",
    "gmres_restart": "30",
    "gmres_maxit": "500",
    "series_order": "3",
    "levels": "leaf",
    "solver": "gmres",
    "solvers": "pss,lu",
    "phi_inc_deg": "45",
    "angle_start": "10",
    "angle_stop": "170",
    "angle_count": "9",
    "out": "results",
    "sizes": "512,1024",
    "assert_rms_db": "1",
}


def test_parse_config_returns_annotated_types(tmp_path):
    # each subcommand's file sets all of its keys
    values = {}
    for command, keys in COMMAND_KEYS.items():
        text = "".join(f"{key} = {CONFIG_VALUES[key]}\n" for key in keys)
        values.update(parse_config(write_config(tmp_path, text), command))
    defaults = RunConfig()
    assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
    for name, value in values.items():
        # every default but assert_rms_db (None) carries its annotated type
        want = float if name == "assert_rms_db" else type(getattr(defaults, name))
        assert type(value) is want, name
    assert values["assert_rms_db"] == 1.0
    assert values["eps_r"] == 2.5 - 0.1j
    assert values["leaf_size"] == 16
    RunConfig(**values).validate()


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path, "density = 10\nleaf_size = 8\n")
    cfg = resolve_config(Namespace(command="solve", config=path, density=12.0))
    assert cfg.density == 12.0
    assert cfg.leaf_size == 8
    assert cfg.geometry == "strip"


def test_coarsest_level_parsing():
    assert RunConfig(levels="all").coarsest_level(3) == 1
    assert RunConfig(levels="all").coarsest_level(0) == 1
    assert RunConfig(levels="leaf").coarsest_level(3) == 3
    assert RunConfig(levels="leaf").coarsest_level(0) == 1
    assert RunConfig(levels="3,2").coarsest_level(3) == 2
    assert RunConfig(levels="1,2,3").coarsest_level(3) == 1
    # a list must be a contiguous run of levels from 1 up that ends at the leaf level
    for levels, depth in (("1,2", 3), ("1,3", 3), ("0,1,2,3", 3), ("9", 3), ("1", 0)):
        message = f"levels must be a contiguous run ending at the leaf level {depth}, got {levels!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(levels=levels).coarsest_level(depth)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="geometry"):
        RunConfig(geometry="torus").validate()
    with pytest.raises(ValueError, match="solver"):
        RunConfig(solver="cg").validate()
    with pytest.raises(ValueError, match="solvers list"):
        RunConfig(solvers="pss,cg").validate()
    for solvers in (",", "", "gmres,gmres"):
        with pytest.raises(ValueError, match="solvers must name each solver once"):
            RunConfig(solvers=solvers).validate()
    for sizes in ("", ",", "0", "256,-512"):
        with pytest.raises(ValueError, match="sizes must list at least one positive"):
            RunConfig(sizes=sizes).validate()
    with pytest.raises(ValueError, match="sizes must be a comma list of integers"):
        RunConfig(sizes="256,big").validate()
    with pytest.raises(ValueError, match="angle_count"):
        RunConfig(angle_count=0).validate()
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gmres_tol"):
            RunConfig(gmres_tol=tol).validate()
    for restart in (0, -1):
        with pytest.raises(ValueError, match="gmres_restart must be at least 1"):
            RunConfig(gmres_restart=restart).validate()
    for maxit in (0, -1):
        with pytest.raises(ValueError, match="gmres_maxit must be at least 1"):
            RunConfig(gmres_maxit=maxit).validate()
    for start, stop in ((180.0, 0.0), (90.0, 90.0)):
        with pytest.raises(ValueError, match="angle_start"):
            RunConfig(angle_start=start, angle_stop=stop, angle_count=5).validate()
    RunConfig(angle_start=90.0, angle_stop=90.0, angle_count=1).validate()


def test_bad_config_value_exits_one_not_traceback(tmp_path, capsys):
    path = write_config(tmp_path, "geometry = torus\n")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_names_key_file_and_line(tmp_path, capsys):
    path = write_config(tmp_path, "# leaf size\nleaf_size = 1.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad value '1.5' for config key 'leaf_size'")):
        parse_config(path, "solve")
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert f"error: {path}:2: bad value '1.5' for config key 'leaf_size'" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_gmres_tol_exits_one_before_solving(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["solve", "--solver", "gmres", "--gmres-tol", "-1", "--out", str(out)])
    assert rc == 1
    assert "error: gmres_tol must be positive and finite, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# each subcommand takes only the flags of the fields it reads
@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--symmetric"],
        ["bench", "--geometry", "disk"],
        ["oracle-check", "--angle-count", "5"],
        ["solve", "--sizes", "64"],
        ["solve", "--symmetric"],
        ["compare", "--symmetric"],
    ],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("solve", "sizes = 64"),
        ("solve", "assert_rms_db = 1"),
        ("solve", "symmetric = yes"),
        ("bench", "symmetric = yes"),
    ],
)
def test_config_key_a_subcommand_does_not_read_exits_one(tmp_path, capsys, command, line):
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, line + "\n"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"unknown config key {line.split()[0]!r} for {command}" in err
    assert "valid keys: " + ", ".join(sorted(COMMAND_KEYS[command])) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--solvers", ","], "solvers must name each solver once"),
        (["compare", "--solvers", "gmres,gmres"], "solvers must name each solver once"),
        (["bench", "--sizes", ""], "sizes must list at least one positive"),
    ],
)
def test_empty_or_duplicate_lists_exit_one_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# each is refused by validate, by the mesh, by the tree or by assemble
@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--solver", "gmres", "--gmres-restart", "0"], "gmres_restart must be at least 1"),
        (["compare", "--solvers", "gmres", "--gmres-maxit", "0"], "gmres_maxit must be at least 1"),
        (["bench", "--sizes", "256", "--leaf-size", "1"], "leaf_size must be at least 2"),
        (["bench", "--sizes", "256", "--aca-tol", "-1"], "compression tolerance must be in [0, 1), got -1"),
        (["bench", "--sizes", "256", "--density", "5"], "elements_per_wavelength must be at least 10"),
        (["solve", "--solver", "pss", "--order", "0"], "series_order must be at least 1, got 0"),
    ],
    ids=[
        "solve-gmres-restart-0",
        "compare-gmres-maxit-0",
        "bench-leaf-size-1",
        "bench-aca-tol-negative",
        "bench-density-5",
        "solve-order-0",
    ],
)
def test_bad_input_exits_one_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


STRIP_ARGS = [
    "--geometry", "strip", "--length", "4.0", "--density", "10",
    "--leaf-size", "10", "--angle-count", "19",
]


# NaN fails every comparison, so a guard written as "refuse if below the
# bound" lets it through to the operator
@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--aca-tol", "nan"], "compression tolerance must be in [0, 1), got nan"),
        (["solve", "--eta", "nan"], "eta must be positive, got nan"),
        (["compare", "--solvers", "pss,gmres", "--aca-tol", "nan"], "compression tolerance must be in [0, 1), got nan"),
        (["bench", "--sizes", "256", "--eta", "nan"], "eta must be positive, got nan"),
    ],
    ids=["solve-aca-tol", "solve-eta", "compare-aca-tol", "bench-eta"],
)
def test_nan_tolerance_or_eta_exits_one_before_writing(tmp_path, capsys, argv, message):
    problem = STRIP_ARGS if argv[0] != "bench" else []
    out = tmp_path / "o"
    assert main([argv[0], *problem, *argv[1:], "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1", "1.5", "inf"])
def test_tolerance_of_one_or_more_exits_one_before_writing(tmp_path, capsys, tol):
    # such a tolerance would zero the far field and report the residual of
    # the near field alone
    out = tmp_path / "o"
    assert main(["solve", *STRIP_ARGS, "--aca-tol", tol, "--out", str(out)]) == 1
    assert f"error: compression tolerance must be in [0, 1), got {float(tol):g}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", *STRIP_ARGS, "--solver", "pss", "--out", str(out)])
    assert rc == 0
    for name in ("mesh.csv", "memory_report.csv", "rcs_pss.csv", "solve_report.txt", "summary.txt"):
        assert (out / name).exists(), name
    assert "unknowns: 40" in capsys.readouterr().out
    assert "matvec" in (out / "solve_report.txt").read_text()


@pytest.mark.parametrize(
    "shape, mesh",
    [
        (["--geometry", "circle", "--radius", "2.0"], discretize_circle(2.0, 10)),
        (["--geometry", "disk", "--radius", "0.5", "--eps-r", "2"], discretize_disk(0.5, 10, 2.0)),
    ],
    ids=["circle", "disk"],
)
def test_solve_meshes_a_circle_and_a_disk(tmp_path, capsys, shape, mesh):
    out = tmp_path / "run"
    assert main(["solve", *shape, "--leaf-size", "8", "--angle-count", "19", "--solver", "gmres", "--out", str(out)]) == 0
    for name in ("mesh.csv", "memory_report.csv", "rcs_gmres.csv", "iterative_report.csv", "solve_report.txt", "summary.txt"):
        assert (out / name).exists(), name
    written = read_mesh_csv(str(out / "mesh.csv"))
    assert written.kind == mesh.kind
    assert np.array_equal(written.centers, mesh.centers) and np.array_equal(written.eps_r, mesh.eps_r)
    assert f"geometry: {shape[1]}" in capsys.readouterr().out
    assert "converged: True" in (out / "solve_report.txt").read_text()


# a 20-unknown strip whose leaf-level radius, 0.353, draws a guard warning
N20_STRIP_ARGS = ["--geometry", "strip", "--length", "2", "--density", "10", "--leaf-size", "5", "--angle-count", "19"]


def test_solve_and_compare_show_the_cascade_residual_and_warnings(tmp_path, capsys):
    out = tmp_path / "solve"
    assert main(["solve", *N20_STRIP_ARGS, "--solver", "pss", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    report = (out / "solve_report.txt").read_text().splitlines()
    shown = [line for line in report if line.startswith(("relative residual", "warning: "))]
    assert shown[0].startswith("relative residual: ")
    assert shown[1:] == [
        "warning: level-2 series factor convergence radius 0.353 exceeds 0.1; truncation error may dominate"
    ]
    summary = (out / "summary.txt").read_text().splitlines()
    for line in shown:
        assert line in stdout and line in summary

    # compare writes no solve_report.txt: the same lines stand under its pss line
    out = tmp_path / "compare"
    assert main(["compare", *N20_STRIP_ARGS, "--solvers", "pss,gmres", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    lines = (out / "comparison_summary.txt").read_text().splitlines()
    assert lines == stdout
    at = next(i for i, line in enumerate(lines) if line.startswith("pss: "))
    assert lines[at + 1 : at + 1 + len(shown)] == [f"  {line}" for line in shown]
    assert lines[at + 1 + len(shown)].startswith("gmres: ")


def test_unconverged_gmres_writes_its_files_then_exits_one(tmp_path, capsys):
    problem = ["--geometry", "strip", "--length", "40", "--angle-count", "19", "--gmres-maxit", "3"]
    line = "gmres did not converge: true relative residual 0.045177 above tolerance 1e-06 after 3 iterations"
    out = tmp_path / "solve"
    assert main(["solve", *problem, "--solver", "gmres", "--out", str(out)]) == 1
    assert line in capsys.readouterr().out.splitlines()
    assert line in (out / "summary.txt").read_text().splitlines()
    assert "converged: False" in (out / "solve_report.txt").read_text()

    # the files are those of the unconverged solve, as with a converged one
    mesh = discretize_strip(40.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    h = assemble(spec, build_cluster_tree(mesh, 32), tol=1e-3)
    x, report = gmres(h.matvec, h.permute(rhs(spec, Excitation(np.pi / 2))), 1e-6, 50, 3)
    report.to_csv(str(tmp_path / "iterative_report.csv"))
    bistatic_rcs(mesh, h.unpermute(x), np.linspace(0.0, 180.0, 19)).to_csv(str(tmp_path / "rcs_gmres.csv"))
    for name in ("iterative_report.csv", "rcs_gmres.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    compared = tmp_path / "compare"
    assert main(["compare", *problem, "--solvers", "pss,gmres", "--out", str(compared)]) == 1
    assert f"  {line}" in capsys.readouterr().out.splitlines()
    assert f"  {line}" in (compared / "comparison_summary.txt").read_text().splitlines()
    for name in ("iterative_report.csv", "rcs_gmres.csv"):
        assert (compared / name).read_bytes() == (out / name).read_bytes(), name


# a 126-unknown circle whose level-3 series factor has radius 1.1, which the
# guard refuses; compare runs gmres first, so it has a run to write, too
REFUSED_PSS_ARGS = ["--geometry", "circle", "--radius", "2.0", "--leaf-size", "8", "--angle-count", "19"]


@pytest.mark.parametrize("argv", [["solve", "--solver", "pss"], ["compare", "--solvers", "gmres,pss"]], ids=["solve", "compare"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "empty-out"])
def test_a_refused_power_series_writes_nothing(tmp_path, capsys, argv, existing):
    out = tmp_path / "o"
    if existing:
        out.mkdir()
    assert main([argv[0], *REFUSED_PSS_ARGS, *argv[1:], "--out", str(out)]) == 1
    assert "error: level-3 series factor convergence radius 1.1 >= 1" in capsys.readouterr().err
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


# at tolerance 0 every far block keeps full rank, so every one is flagged
@pytest.mark.parametrize("aca_tol, all_flagged", [("1e-3", False), ("0", True)])
def test_solve_summary_counts_far_blocks_and_rank_flags(tmp_path, aca_tol, all_flagged):
    out = tmp_path / "run"
    assert main(["solve", *STRIP_ARGS, "--solver", "gmres", "--aca-tol", aca_tol, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    memory = [row.split(",") for row in (out / "memory_report.csv").read_text().splitlines()[1:]]
    far = sum(int(row[1]) for row in memory if row[0] not in ("near", "total"))
    assert far > 0
    assert f"far blocks: {far}" in lines
    flags = far if all_flagged else 0
    assert f"rank flags (far blocks of rank above half their smaller side): {flags}" in lines


def test_solve_csvs_are_byte_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["solve", *STRIP_ARGS, "--solver", "gmres", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("mesh.csv", "memory_report.csv", "rcs_gmres.csv", "iterative_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_no_wall_time_columns_in_csvs(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", *STRIP_ARGS, "--solver", "gmres", "--out", str(out)]) == 0
    for path in out.glob("*.csv"):
        header = path.read_text().splitlines()[0].lower()
        assert "time" not in header, path.name
        assert "wall" not in header, path.name


def test_compare_runs_three_solvers(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main([
        "compare", *STRIP_ARGS, "--solvers", "pss,gmres,lu",
        "--assert-rms-db", "1.0", "--out", str(out),
    ])
    assert rc == 0
    for name in ("rcs_pss.csv", "rcs_gmres.csv", "rcs_lu.csv", "comparison_summary.txt"):
        assert (out / name).exists(), name
    text = (out / "comparison_summary.txt").read_text()
    assert "rcs rms difference pss vs gmres" in text
    assert "rcs rms difference gmres vs lu" in text
    assert "ASSERTION FAILED" not in text
    capsys.readouterr()


def test_compare_assertion_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main([
        "compare", *STRIP_ARGS, "--solvers", "pss,lu",
        "--assert-rms-db", "1e-9", "--out", str(out),
    ])
    assert rc == 1
    assert "ASSERTION FAILED" in (out / "comparison_summary.txt").read_text()
    capsys.readouterr()


def test_bench_small_sizes(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main([
        "bench", "--sizes", "16,128,256", "--density", "10",
        "--leaf-size", "16", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,full_entries,leaf_entries"
    assert len(lines) == 4
    # 16 unknowns are one leaf: a depth-0 tree has no far level to drop
    assert lines[1] == "16,256,256"
    n1, full1, leaf1 = (int(tok) for tok in lines[2].split(","))
    assert n1 == 128 and leaf1 <= full1 < 128 * 128
    assert "slope" in (out / "bench_summary.txt").read_text()
    capsys.readouterr()


# 116 / 14 * 14 rounds up past 116, so a strip of length 116 / 14 meshes
# with ceil(length * 14) = 117 elements unless the length is stepped down
def test_bench_builds_exactly_the_sizes_given(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--sizes", "116", "--density", "14", "--leaf-size", "16", "--out", str(out)]) == 0
    assert (out / "bench.csv").read_text().splitlines()[1].split(",")[0] == "116"
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, angles",
    [
        (["solve", "--solver", "gmres"], ["--angle-start", "180", "--angle-stop", "0"]),
        (["compare", "--solvers", "pss,gmres"], ["--angle-start", "90", "--angle-stop", "90", "--angle-count", "5"]),
    ],
)
def test_non_increasing_angles_exit_one_before_solving(tmp_path, capsys, command, angles):
    out = tmp_path / "o"
    rc = main([command[0], *STRIP_ARGS, *command[1:], *angles, "--out", str(out)])
    assert rc == 1
    assert "error: angle_start" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["pss", "gmres"])
def test_bad_levels_exit_one_before_assembly(tmp_path, capsys, monkeypatch, solver):
    # 40 elements at leaf size 5 give a depth-3 tree, so levels 1,2 miss the
    # leaf, level 9 lies below it and leaf,2 is not a list of integers
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled despite bad levels")

    monkeypatch.setattr("hpss.cli.assemble", no_assembly)
    out = tmp_path / "o"
    run = "levels must be a contiguous run ending at the leaf level 3, got {!r}"
    for levels, message in (
        ("1,2", run.format("1,2")),
        ("9", run.format("9")),
        ("leaf,2", "levels must be 'all', 'leaf', or a comma list of integers"),
    ):
        rc = main(["solve", *STRIP_ARGS, "--leaf-size", "5", "--solver", solver, "--levels", levels, "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_out_of_range_coarsest_level_is_refused_before_any_fill(tmp_path, capsys, monkeypatch):
    """``assemble``, ``keep_levels`` and ``--levels`` refuse a level outside
    the tree before any entry is evaluated or any file written."""
    mesh = discretize_strip(4.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 5)
    assert tree.depth == 3
    full = assemble(spec, tree, tol=1e-3)
    leaf = assemble(spec, tree, tol=1e-3, coarsest=3)
    flat = build_cluster_tree(mesh, 64)
    assert flat.depth == 0

    def no_fill(*args):
        raise AssertionError("entries were evaluated despite a bad level")

    monkeypatch.setattr("hpss.hmatrix.entry_function", no_fill)
    refusals = [
        (lambda: assemble(spec, tree, tol=1e-3, coarsest=0), "1..3, got 0"),
        (lambda: assemble(spec, tree, tol=1e-3, coarsest=4), "1..3, got 4"),
        (lambda: assemble(spec, flat, tol=1e-3, coarsest=2), "1..1, got 2"),
        (lambda: full.keep_levels(0), "1..3, got 0"),
        (lambda: full.keep_levels(4), "1..3, got 4"),
        (lambda: leaf.keep_levels(2), "3..3, got 2"),
    ]
    for refused, bounds in refusals:
        with pytest.raises(ValueError, match=re.escape(f"coarsest far level must lie in {bounds}")):
            refused()

    out = tmp_path / "o"
    for command in (["solve", "--solver", "pss"], ["compare", "--solvers", "pss,gmres"]):
        for levels in ("0,1,2,3", "4"):
            argv = [command[0], *STRIP_ARGS, "--leaf-size", "5", *command[1:], "--levels", levels]
            rc = main([*argv, "--out", str(out)])
            assert rc == 1
            message = f"error: levels must be a contiguous run ending at the leaf level 3, got {levels!r}"
            assert message in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("command", [["solve", "--solver", "lu"], ["compare", "--solvers", "gmres,lu"]])
def test_lu_beyond_dense_cap_exits_one_before_assembly(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("hpss.kernels.DENSE_SIZE_CAP", 30)
    out = tmp_path / "o"
    rc = main([command[0], *STRIP_ARGS, *command[1:], "--out", str(out)])
    assert rc == 1
    assert "error: solver lu refused: dense assembly needs N <= cap 30, got N = 40" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_passes(tmp_path, capsys):
    out = tmp_path / "oracle"
    rc = main(["oracle-check", "--out", str(out)])
    assert rc == 0
    text = (out / "oracle_report.txt").read_text()
    assert text.count("PASS") == 2
    assert "FAIL" not in text
    capsys.readouterr()


def test_compare_levels_leaf_runs_pss_on_the_leaf_only_operator(tmp_path, capsys):
    # on a depth-3 strip the leaf-only operator drops level 2's far blocks;
    # compare's pss curve is that of solve --levels leaf, while its memory
    # report stays the full operator's, which its baselines solve
    depth3 = [*STRIP_ARGS, "--leaf-size", "5"]
    runs = {
        "compare": ["compare", *depth3, "--levels", "leaf", "--solvers", "pss,gmres"],
        "leaf": ["solve", *depth3, "--levels", "leaf", "--solver", "pss"],
        "full": ["solve", *depth3, "--solver", "gmres"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    read = lambda name, csv: (tmp_path / name / csv).read_bytes()
    assert read("compare", "rcs_pss.csv") == read("leaf", "rcs_pss.csv")
    assert read("compare", "rcs_gmres.csv") == read("full", "rcs_gmres.csv")
    assert read("compare", "memory_report.csv") == read("full", "memory_report.csv")
    assert read("leaf", "memory_report.csv") != read("full", "memory_report.csv")


def test_compare_levels_assembles_once(tmp_path, capsys, monkeypatch):
    import hpss.cli as cli

    real, filters = cli.assemble, []

    def counting(*args, **kwargs):
        filters.append(kwargs.get("coarsest"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble", counting)
    argv = ["compare", *STRIP_ARGS, "--leaf-size", "5", "--levels", "leaf", "--solvers", "pss,gmres"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert filters == [None]


def test_pss_solve_levels_leaf_matches_all_on_depth_two_strip(tmp_path):
    # depth-2 strips have an empty level-1 far set, so restricting the
    # series to the leaf level must reproduce the full-chain curve
    curves = {}
    for tag, levels in (("all", "all"), ("leaf", "leaf")):
        out = tmp_path / tag
        rc = main(["solve", *STRIP_ARGS, "--solver", "pss", "--levels", levels, "--out", str(out)])
        assert rc == 0
        rows = (out / "rcs_pss.csv").read_text().splitlines()[1:]
        curves[tag] = np.array([float(r.split(",")[1]) for r in rows])
    assert np.allclose(curves["all"], curves["leaf"], atol=1e-9)
