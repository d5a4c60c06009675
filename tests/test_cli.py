import dataclasses
from argparse import Namespace

import numpy as np
import pytest

from hpss.cli import _FIELD_TYPES, RunConfig, main, parse_config, resolve_config


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_empty_file(tmp_path):
    assert parse_config(write_config(tmp_path, "")) == {}
    assert parse_config(write_config(tmp_path, "# only a comment\n\n")) == {}


def test_parse_config_coercions(tmp_path):
    path = write_config(
        tmp_path,
        """
        geometry = disk   # trailing comment
        eps_r = 2.0-0.5j
        leaf_size = 24
        aca_tol = 5e-4
        symmetric = yes
        levels = 1,2
        """,
    )
    values = parse_config(path)
    assert values == {
        "geometry": "disk",
        "eps_r": 2.0 - 0.5j,
        "leaf_size": 24,
        "aca_tol": 5e-4,
        "symmetric": True,
        "levels": "1,2",
    }


def test_parse_config_unknown_key_lists_valid_ones(tmp_path):
    path = write_config(tmp_path, "leaf_sise = 24\n")
    with pytest.raises(ValueError, match="valid keys"):
        parse_config(path)
    try:
        parse_config(path)
    except ValueError as exc:
        assert "leaf_size" in str(exc)
        assert "run.cfg:1" in str(exc)


def test_parse_config_requires_key_value(tmp_path):
    with pytest.raises(ValueError, match="key=value"):
        parse_config(write_config(tmp_path, "just some words\n"))


def test_field_types_stay_in_sync_with_runconfig():
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(_FIELD_TYPES) == field_names


def test_parse_config_returns_annotated_types(tmp_path):
    keys = """
        geometry = disk
        length = 3
        radius = 0.5
        eps_r = 2.5-0.1j
        density = 12
        leaf_size = 16
        eta = 0.8
        aca_tol = 1e-4
        gmres_tol = 1e-7
        gmres_restart = 30
        gmres_maxit = 500
        series_order = 3
        levels = leaf
        solver = gmres
        solvers = pss,lu
        phi_inc_deg = 45
        angle_start = 10
        angle_stop = 170
        angle_count = 9
        symmetric = on
        seed = 7
        out = results
        sizes = 512,1024
        assert_rms_db = 1
    """
    values = parse_config(write_config(tmp_path, keys))
    defaults = RunConfig()
    assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
    for name, value in values.items():
        # every default but assert_rms_db (None) carries its annotated type
        want = float if name == "assert_rms_db" else type(getattr(defaults, name))
        assert type(value) is want, name
    assert values["assert_rms_db"] == 1.0
    assert values["eps_r"] == 2.5 - 0.1j
    assert values["symmetric"] is True
    assert values["leaf_size"] == 16
    RunConfig(**values).validate()


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path, "density = 10\nleaf_size = 8\n")
    cfg = resolve_config(Namespace(config=path, density=12.0))
    assert cfg.density == 12.0
    assert cfg.leaf_size == 8
    assert cfg.geometry == "strip"


def test_level_filter_parsing():
    assert RunConfig(levels="all").level_filter(3) is None
    assert RunConfig(levels="leaf").level_filter(3) == [3]
    assert RunConfig(levels="leaf").level_filter(0) == []
    assert RunConfig(levels="1,2").level_filter(3) == [1, 2]


def test_config_validation_errors():
    with pytest.raises(ValueError, match="geometry"):
        RunConfig(geometry="torus").validate()
    with pytest.raises(ValueError, match="solver"):
        RunConfig(solver="cg").validate()
    with pytest.raises(ValueError, match="solvers list"):
        RunConfig(solvers="pss,cg").validate()
    with pytest.raises(ValueError, match="levels"):
        RunConfig(levels="leaf,2").validate()
    with pytest.raises(ValueError, match="angle_count"):
        RunConfig(angle_count=0).validate()
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gmres_tol"):
            RunConfig(gmres_tol=tol).validate()


def test_bad_config_value_exits_one_not_traceback(tmp_path, capsys):
    path = write_config(tmp_path, "geometry = torus\n")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_nonpositive_gmres_tol_exits_one_before_solving(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["solve", "--solver", "gmres", "--gmres-tol", "-1", "--out", str(out)])
    assert rc == 1
    assert "error: gmres_tol must be positive and finite, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


STRIP_ARGS = [
    "--geometry", "strip", "--length", "4.0", "--density", "10",
    "--leaf-size", "10", "--angle-count", "19",
]


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", *STRIP_ARGS, "--solver", "pss", "--out", str(out)])
    assert rc == 0
    for name in ("mesh.csv", "memory_report.csv", "rcs_pss.csv", "solve_report.txt", "summary.txt"):
        assert (out / name).exists(), name
    assert "unknowns: 40" in capsys.readouterr().out
    assert "matvec" in (out / "solve_report.txt").read_text()


def test_solve_csvs_are_byte_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["solve", *STRIP_ARGS, "--solver", "gmres", "--seed", "3", "--out", str(out)])
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
        "bench", "--sizes", "128,256", "--density", "10",
        "--leaf-size", "16", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,full_entries,leaf_entries"
    assert len(lines) == 3
    n0, full0, leaf0 = (int(tok) for tok in lines[1].split(","))
    assert n0 == 128 and leaf0 <= full0 < 128 * 128
    assert "slope" in (out / "bench_summary.txt").read_text()
    capsys.readouterr()


def test_oracle_check_passes(tmp_path, capsys):
    out = tmp_path / "oracle"
    rc = main(["oracle-check", "--out", str(out)])
    assert rc == 0
    text = (out / "oracle_report.txt").read_text()
    assert text.count("PASS") == 2
    assert "FAIL" not in text
    capsys.readouterr()


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
