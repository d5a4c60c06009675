"""Command-line front end: solve, compare, bench, and oracle-check.

Configuration comes from an optional plain-text ``key=value`` file plus
command-line flags, flags winning.  Unknown keys are rejected with the
valid list.  All CSV artifacts are byte-deterministic for a fixed config
and seed: timings appear only in the plain-text summaries.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import pss
from .geometry import Mesh, build_cluster_tree, discretize_circle, discretize_disk, discretize_strip, write_mesh_csv
from .hmatrix import HMatrix, assemble, memory_report
from .kernels import Excitation, KernelSpec, assemble_dense, rhs
from .postproc import RcsCurve, bistatic_rcs, rcs_rms_error, series_dielectric_cylinder, series_pec_cylinder
from .scaling import compute_scaling
from .solvers import IterativeReport, gmres, lu_solve

GEOMETRIES = ("strip", "circle", "disk")
SOLVER_NAMES = ("pss", "gmres", "lu")
BENCH_MATVEC_ROUNDS = 11


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one CLI run."""

    geometry: str = "strip"
    length: float = 4.0
    radius: float = 1.0
    eps_r: complex = 2.0 + 0.0j
    density: float = 10.0
    leaf_size: int = 32
    eta: float = 1.0
    aca_tol: float = 1e-3
    gmres_tol: float = 1e-6
    gmres_restart: int = 50
    gmres_maxit: int = 2000
    series_order: int = 2
    levels: str = "all"
    solver: str = "pss"
    solvers: str = "pss,gmres,lu"
    phi_inc_deg: float = 90.0
    angle_start: float = 0.0
    angle_stop: float = 180.0
    angle_count: int = 361
    symmetric: bool = False
    seed: int = 0
    out: str = "hpss_out"
    sizes: str = "512,1024,2048,4096"
    assert_rms_db: Optional[float] = None

    def validate(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}")
        for name in self._solver_list():
            if name not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {name!r} in solvers list")
        if self.angle_count < 1:
            raise ValueError("angle_count must be positive")
        if not (math.isfinite(self.gmres_tol) and self.gmres_tol > 0.0):
            raise ValueError(f"gmres_tol must be positive and finite, got {self.gmres_tol:g}")
        if self.levels not in ("all", "leaf"):
            try:
                [int(tok) for tok in self.levels.split(",")]
            except ValueError as exc:
                raise ValueError("levels must be 'all', 'leaf', or a comma list of integers") from exc

    def _solver_list(self) -> List[str]:
        return [tok.strip() for tok in self.solvers.split(",") if tok.strip()]

    def angles(self) -> np.ndarray:
        return np.linspace(self.angle_start, self.angle_stop, self.angle_count)

    def level_filter(self, depth: int) -> Optional[List[int]]:
        if self.levels == "all":
            return None
        if self.levels == "leaf":
            return [depth] if depth >= 1 else []
        return [int(tok) for tok in self.levels.split(",")]


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, kind: type, raw: str):
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {name} expects a boolean, got {raw!r}")
    if kind is complex:
        return complex(raw.replace(" ", ""))
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


# read through get_type_hints because annotations are strings under
# `from __future__ import annotations`; Optional[float] coerces as float
_FIELD_TYPES: Dict[str, type] = {
    name: next((arg for arg in get_args(hint) if arg is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}


def parse_config(path: str) -> Dict[str, object]:
    """Read a key=value config file; unknown keys are rejected."""
    values: Dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELD_TYPES:
                valid = ", ".join(sorted(_FIELD_TYPES))
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}; valid keys: {valid}")
            values[key] = _coerce(key, _FIELD_TYPES[key], raw)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then explicit flags."""
    file_values: Dict[str, object] = {}
    if getattr(args, "config", None):
        file_values = parse_config(args.config)
    flag_values = {
        name: getattr(args, name)
        for name in _FIELD_TYPES
        if getattr(args, name, None) is not None
    }
    cfg = replace(replace(RunConfig(), **file_values), **flag_values)
    cfg.validate()
    return cfg


def build_mesh(cfg: RunConfig) -> Mesh:
    if cfg.geometry == "strip":
        return discretize_strip(cfg.length, cfg.density)
    if cfg.geometry == "circle":
        return discretize_circle(cfg.radius, cfg.density)
    return discretize_disk(cfg.radius, cfg.density, cfg.eps_r)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_iterative_csv(path: str, report: IterativeReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("step,relative_residual,kind\n")
        for k, r, kind in report.history_csv_rows():
            fh.write(f"{k},{r},{kind}\n")


@dataclass
class SolverRun:
    name: str
    solution_mesh_order: np.ndarray
    rcs: RcsCurve
    wall_time_s: float
    detail: str
    matvec_count: Optional[int] = None
    iterations: Optional[int] = None


def _run_one_solver(
    name: str,
    cfg: RunConfig,
    mesh: Mesh,
    spec: KernelSpec,
    h: HMatrix,
    b_mesh: np.ndarray,
) -> Tuple[SolverRun, Optional[IterativeReport], Optional[pss.SolveReport]]:
    angles = cfg.angles()
    start = time.perf_counter()
    if name == "pss":
        b_perm = h.permute(b_mesh)
        scaled = compute_scaling(h, b_perm, probe_seed=cfg.seed)
        config = pss.PssConfig(
            series_order=cfg.series_order,
            active_levels=cfg.level_filter(h.depth),
            seed=cfg.seed,
        )
        x_perm, report = pss.solve(scaled, h, config)
        x_mesh = h.unpermute(x_perm)
        wall = time.perf_counter() - start
        rcs = bistatic_rcs(mesh, x_mesh, angles)
        run = SolverRun("pss", x_mesh, rcs, wall, report.to_text(), report.total_solve_matvecs)
        return run, None, report
    if name == "gmres":
        b_perm = h.permute(b_mesh)
        x_perm, report = gmres(
            h.matvec, b_perm, tol=cfg.gmres_tol, restart=cfg.gmres_restart, maxit=cfg.gmres_maxit
        )
        x_mesh = h.unpermute(x_perm)
        wall = time.perf_counter() - start
        rcs = bistatic_rcs(mesh, x_mesh, angles)
        detail = (
            f"gmres iterations: {report.iterations}\n"
            f"converged: {report.converged}\n"
            f"final relative residual (true, recomputed): {report.true_residuals[-1][1]:.6g}\n"
            f"matvecs: {report.n_matvecs}\n"
        )
        run = SolverRun("gmres", x_mesh, rcs, wall, detail, report.n_matvecs, report.iterations)
        return run, report, None
    # dense LU oracle, mesh order throughout
    z = assemble_dense(spec)
    x_mesh = lu_solve(z, b_mesh)
    wall = time.perf_counter() - start
    rcs = bistatic_rcs(mesh, x_mesh, angles)
    run = SolverRun("lu", x_mesh, rcs, wall, "dense partial-pivot LU oracle\n")
    return run, None, None


def _build_problem(
    cfg: RunConfig, level_filter: Callable[[int], Optional[List[int]]]
) -> Tuple[Mesh, KernelSpec, HMatrix, np.ndarray]:
    """Mesh, kernel, H-matrix assembled with ``level_filter(depth)``, and the
    mesh-order plane-wave RHS; writes mesh.csv and memory_report.csv."""
    os.makedirs(cfg.out, exist_ok=True)
    mesh = build_mesh(cfg)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, cfg.leaf_size)
    b_mesh = rhs(spec, Excitation(math.radians(cfg.phi_inc_deg)))
    h = assemble(
        spec,
        tree,
        cfg.aca_tol,
        eta=cfg.eta,
        level_filter=level_filter(tree.depth),
        symmetric_mode=cfg.symmetric,
        probe_seed=cfg.seed,
    )
    write_mesh_csv(mesh, os.path.join(cfg.out, "mesh.csv"))
    memory_report(h).to_csv(os.path.join(cfg.out, "memory_report.csv"))
    return mesh, spec, h, b_mesh


def run_solve(cfg: RunConfig) -> int:
    mesh, spec, h, b_mesh = _build_problem(cfg, cfg.level_filter)
    run, it_report, pss_report = _run_one_solver(cfg.solver, cfg, mesh, spec, h, b_mesh)
    run.rcs.to_csv(os.path.join(cfg.out, f"rcs_{run.name}.csv"))
    _write_text(os.path.join(cfg.out, "solve_report.txt"), run.detail)
    if it_report is not None:
        _write_iterative_csv(os.path.join(cfg.out, "iterative_report.csv"), it_report)

    lines = [
        f"geometry: {cfg.geometry}",
        f"unknowns: {mesh.n_elements}",
        f"tree depth: {h.depth}",
        f"solver: {run.name}",
        f"wall time: {run.wall_time_s:.3f} s",
        f"outputs: {cfg.out}",
    ]
    _write_text(os.path.join(cfg.out, "summary.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def run_compare(cfg: RunConfig) -> int:
    # the comparison baseline always sees the complete operator; the power
    # series honors the configured level filter through its active levels
    mesh, spec, h, b_mesh = _build_problem(cfg, lambda depth: None)

    runs: Dict[str, SolverRun] = {}
    for name in cfg._solver_list():
        run, it_report, _ = _run_one_solver(name, cfg, mesh, spec, h, b_mesh)
        runs[name] = run
        run.rcs.to_csv(os.path.join(cfg.out, f"rcs_{name}.csv"))
        if it_report is not None:
            _write_iterative_csv(os.path.join(cfg.out, "iterative_report.csv"), it_report)

    lines = [
        f"geometry: {cfg.geometry}, unknowns {mesh.n_elements}, tree depth {h.depth}",
        f"power-series levels: {cfg.levels}, order {cfg.series_order}",
    ]
    for name, run in runs.items():
        counts = f", matvecs {run.matvec_count}" if run.matvec_count is not None else ""
        iters = f", iterations {run.iterations}" if run.iterations is not None else ""
        lines.append(f"{name}: wall {run.wall_time_s:.3f} s{counts}{iters}")
    names = list(runs)
    failures: List[str] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            rms = rcs_rms_error(runs[a].rcs, runs[b].rcs)
            lines.append(f"rcs rms difference {a} vs {b}: {rms:.4f} dB")
            if cfg.assert_rms_db is not None and "pss" in (a, b) and rms > cfg.assert_rms_db:
                failures.append(f"rms {a} vs {b} = {rms:.4f} dB exceeds {cfg.assert_rms_db} dB")
    for failure in failures:
        lines.append(f"ASSERTION FAILED: {failure}")
    text = "\n".join(lines) + "\n"
    _write_text(os.path.join(cfg.out, "comparison_summary.txt"), text)
    print(text, end="")
    return 1 if failures else 0


def _median_time(fn, repeats: int) -> Tuple[float, object]:
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def run_bench(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    sizes = [int(tok) for tok in cfg.sizes.split(",") if tok.strip()]
    if cfg.geometry != "strip":
        raise ValueError("bench supports strip geometry only")
    rows = []
    operators = []
    failures: List[str] = []
    rng = np.random.default_rng(cfg.seed)
    for n_target in sizes:
        length = n_target / cfg.density
        mesh = discretize_strip(length, cfg.density)
        spec = KernelSpec.for_mesh(mesh)
        tree = build_cluster_tree(mesh, cfg.leaf_size)
        n = mesh.n_elements
        assert_here = n_target >= 2048
        repeats = 3 if assert_here else 1

        t_full, h_full = _median_time(
            lambda: assemble(spec, tree, cfg.aca_tol, eta=cfg.eta), repeats
        )
        t_leaf, h_leaf = _median_time(
            lambda: assemble(spec, tree, cfg.aca_tol, eta=cfg.eta, level_filter=[tree.depth]),
            repeats,
        )
        full_entries = memory_report(h_full).total_entries
        leaf_entries = memory_report(h_leaf).total_entries
        operators.append((h_full, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        rows.append((n, full_entries, leaf_entries, t_full, t_leaf))
        if assert_here:
            if not leaf_entries < full_entries:
                failures.append(f"N={n}: leaf-only entries {leaf_entries} not below full {full_entries}")
            if not t_leaf < t_full:
                failures.append(f"N={n}: leaf-only fill {t_leaf:.3f}s not below full {t_full:.3f}s")
            if not (full_entries < n * n and leaf_entries < n * n):
                failures.append(f"N={n}: stored entries reach the dense count {n * n}")

    # every size's matvec is timed once per round, so a change in host speed
    # during the run slows all sizes alike instead of tilting the slope
    samples: List[List[float]] = [[] for _ in operators]
    for _ in range(BENCH_MATVEC_ROUNDS):
        for (h, x), times in zip(operators, samples):
            h.matvec(x)  # untimed warm-up
            t0 = time.perf_counter()
            h.matvec(x)
            times.append(time.perf_counter() - t0)
    rows = [row + (float(np.median(times)),) for row, times in zip(rows, samples)]

    with open(os.path.join(cfg.out, "bench.csv"), "w", newline="") as fh:
        fh.write("n,full_entries,leaf_entries\n")
        for n, fe, le, *_ in rows:
            fh.write(f"{n},{fe},{le}\n")

    lines = ["n full_entries leaf_entries t_full(s) t_leaf(s) t_matvec(s)"]
    for n, fe, le, tf, tl, tm in rows:
        lines.append(f"{n} {fe} {le} {tf:.3f} {tl:.3f} {tm:.5f}")
    if len(rows) >= 2:
        logn = np.log([r[0] for r in rows])
        entry_slope = float(np.polyfit(logn, np.log([r[1] for r in rows]), 1)[0])
        matvec_slope = float(np.polyfit(logn, np.log([r[5] for r in rows]), 1)[0])
        lines.append(f"stored-entry log-log slope: {entry_slope:.3f}")
        lines.append(f"matvec-time log-log slope: {matvec_slope:.3f}")
    for failure in failures:
        lines.append(f"ASSERTION FAILED: {failure}")
    text = "\n".join(lines) + "\n"
    _write_text(os.path.join(cfg.out, "bench_summary.txt"), text)
    print(text, end="")
    return 1 if failures else 0


def run_oracle_check(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    angles = np.linspace(0.0, 180.0, 181)
    lines: List[str] = []
    failures = 0

    # PEC cylinder, one wavelength radius, lambda/20 contour mesh
    mesh = discretize_circle(1.0, 20.0)
    spec = KernelSpec.for_mesh(mesh)
    b = rhs(spec, Excitation(0.0))
    x = lu_solve(assemble_dense(spec), b)
    mom = bistatic_rcs(mesh, x, angles)
    oracle = series_pec_cylinder(1.0, angles, phi_inc_rad=0.0)
    rms = rcs_rms_error(mom, oracle)
    ok = rms <= 0.3
    failures += 0 if ok else 1
    lines.append(f"pec cylinder (k0*a = 2*pi, lambda/20): rms {rms:.4f} dB, limit 0.3 dB: {'PASS' if ok else 'FAIL'}")

    # dielectric disk, eps_r = 2; 20 cells per wavelength is the coarsest
    # staircase grid whose boundary error sits inside the oracle tolerance
    mesh = discretize_disk(0.3, 20.0, 2.0)
    spec = KernelSpec.for_mesh(mesh)
    b = rhs(spec, Excitation(0.0))
    x = lu_solve(assemble_dense(spec), b)
    mom = bistatic_rcs(mesh, x, angles)
    oracle = series_dielectric_cylinder(0.3, 2.0, angles, phi_inc_rad=0.0)
    rms = rcs_rms_error(mom, oracle)
    ok = rms <= 0.75
    failures += 0 if ok else 1
    lines.append(
        f"dielectric disk (0.3 wl, eps 2, lambda/20 cells): rms {rms:.4f} dB, "
        f"limit 0.75 dB: {'PASS' if ok else 'FAIL'}"
    )

    text = "\n".join(lines) + "\n"
    _write_text(os.path.join(cfg.out, "oracle_report.txt"), text)
    print(text, end="")
    return 1 if failures else 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--geometry", choices=GEOMETRIES)
    parser.add_argument("--length", type=float, help="strip length in wavelengths")
    parser.add_argument("--radius", type=float, help="circle/disk radius in wavelengths")
    parser.add_argument("--eps-r", dest="eps_r", type=complex, help="disk relative permittivity")
    parser.add_argument("--density", type=float, help="elements or cells per wavelength")
    parser.add_argument("--leaf-size", dest="leaf_size", type=int)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--aca-tol", dest="aca_tol", type=float)
    parser.add_argument("--gmres-tol", dest="gmres_tol", type=float)
    parser.add_argument("--gmres-restart", dest="gmres_restart", type=int)
    parser.add_argument("--gmres-maxit", dest="gmres_maxit", type=int)
    parser.add_argument("--order", dest="series_order", type=int, help="power-series order")
    parser.add_argument("--levels", help="'all', 'leaf', or comma list ending at the leaf level")
    parser.add_argument("--phi-inc-deg", dest="phi_inc_deg", type=float)
    parser.add_argument("--angle-start", dest="angle_start", type=float)
    parser.add_argument("--angle-stop", dest="angle_stop", type=float)
    parser.add_argument("--angle-count", dest="angle_count", type=int)
    parser.add_argument("--symmetric", action="store_const", const=True, default=None)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="hpss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="assemble and solve one configuration")
    _add_common_flags(p_solve)
    p_solve.add_argument("--solver", choices=SOLVER_NAMES)

    p_cmp = sub.add_parser("compare", help="run several solvers and difference their far fields")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--solvers", help="comma list from pss,gmres,lu")
    p_cmp.add_argument("--assert-rms-db", dest="assert_rms_db", type=float)

    p_bench = sub.add_parser("bench", help="scaling table over strip sizes")
    _add_common_flags(p_bench)
    p_bench.add_argument("--sizes", help="comma list of unknown counts")

    p_oracle = sub.add_parser("oracle-check", help="dense solves against the analytic series")
    _add_common_flags(p_oracle)

    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "solve":
            return run_solve(cfg)
        if args.command == "compare":
            return run_compare(cfg)
        if args.command == "bench":
            return run_bench(cfg)
        return run_oracle_check(cfg)
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
