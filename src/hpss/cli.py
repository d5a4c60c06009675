"""Command-line front end: solve, compare, bench, and oracle-check.

A run's settings are the ``RunConfig`` defaults overridden by its
command-line flags.  ``COMMAND_KEYS`` lists the ``RunConfig`` fields each
subcommand reads, and its flags are made from that list, so any other
flag is a usage error: ``bench``, which has no ``--geometry``, runs
strips only.  Every flag's value is parsed by ``_coerce``.  Every bad
setting is refused before any assembly or file: ``RunConfig.validate``
checks the GMRES settings, series order, compression tolerance and eta
with the library's own checks, and the rms threshold (which needs pss
among the solvers it compares), before any mesh is built, and the mesh
generators, the dense-size cap and the plane wave's finiteness are
checked before the fill.  ``--levels`` names the
coarsest far level the operator keeps (``all`` for 1, ``leaf`` for the
leaf level, or one integer), and so the levels the power series runs;
once the tree is built, ``RunConfig.coarsest_level`` turns it into that
level, refusing one outside the tree by the library's rule
(``check_coarsest``), for every solver.  ``compare`` assembles every
level once and runs the power series on the operator that keeps the
levels from that one down (``HMatrix.keep_levels``).
All CSV artifacts are byte-deterministic for a fixed config: timings
appear only in the plain-text summaries.  Those summaries, printed on
stdout, show each run's accuracy as its report states it
(``outcome_lines``): the power series' labelled residual and guard
warnings, and a GMRES run's true residual, labelled with the operator
it was measured against (``HMatrix.scope``), and its failure to
converge, after which ``solve`` and ``compare`` exit 1 with every file
written.  Every solver a run names runs before the run writes any file,
so a run that fails (a guard that refuses the power series, say) leaves
no output behind.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_args, get_type_hints

import numpy as np

from . import pss
from .compression import check_tolerance
from .geometry import (
    ClusterTree,
    Mesh,
    build_cluster_tree,
    check_eta,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    write_mesh_csv,
)
from .hmatrix import HMatrix, assemble, check_coarsest, memory_report
from .kernels import Excitation, KernelSpec, assemble_dense, check_dense_size, rhs
from .postproc import RcsCurve, bistatic_rcs, rcs_rms_error, series_dielectric_cylinder, series_pec_cylinder
from .scaling import compute_scaling
from .solvers import IterativeReport, check_finite_rhs, check_gmres_settings, gmres, lu_solve

GEOMETRIES = ("strip", "circle", "disk")
SOLVER_NAMES = ("pss", "gmres", "lu")
BENCH_MATVEC_ROUNDS = 11
BENCH_SAMPLE_S = 0.01  # least wall time of one timed run of consecutive matvecs


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
    out: str = "hpss_out"
    sizes: str = "512,1024,2048,4096"
    assert_rms_db: Optional[float] = None

    def validate(self) -> None:
        """Refuse a bad setting before any mesh is built, through the
        library's own check where the library owns the rule."""
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}")
        solvers = self._solver_list()
        for name in solvers:
            if name not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {name!r} in solvers list")
        if not solvers or len(set(solvers)) < len(solvers):
            raise ValueError(f"solvers must name each solver once and at least one, got {self.solvers!r}")
        try:
            sizes = self._size_list()
        except ValueError as exc:
            raise ValueError(f"sizes must be a comma list of integers, got {self.sizes!r}") from exc
        if not sizes or min(sizes) < 1:
            raise ValueError(f"sizes must list at least one positive unknown count, got {self.sizes!r}")
        if self.angle_count < 1:
            raise ValueError("angle_count must be positive")
        start, stop = self.angle_start, self.angle_stop
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"angle_start and angle_stop must be finite, got {start:g} and {stop:g}")
        if self.angle_count > 1 and start >= stop:
            raise ValueError("angle_start must be below angle_stop when angle_count exceeds 1")
        check_gmres_settings(self.gmres_tol, self.gmres_restart, self.gmres_maxit)
        pss.PssConfig(series_order=self.series_order)
        check_tolerance(self.aca_tol)
        check_eta(self.eta)
        threshold = self.assert_rms_db
        if threshold is not None and not 0.0 <= threshold < math.inf:
            raise ValueError(f"assert_rms_db must be non-negative and finite, got {threshold:g}")
        if threshold is not None and "pss" not in solvers:
            raise ValueError(f"assert_rms_db checks pairs with pss, but solvers {self.solvers!r} names no pss")
        if threshold is not None and len(solvers) < 2:
            raise ValueError(f"assert_rms_db checks pairs with pss, but solvers {self.solvers!r} names no second solver")

    def _solver_list(self) -> List[str]:
        return [tok.strip() for tok in self.solvers.split(",") if tok.strip()]

    def _size_list(self) -> List[int]:
        return [int(tok) for tok in self.sizes.split(",") if tok.strip()]

    def angles(self) -> np.ndarray:
        return np.linspace(self.angle_start, self.angle_stop, self.angle_count)

    def coarsest_level(self, depth: int) -> int:
        """The coarsest far level ``levels`` keeps on a tree of this depth:
        1 for 'all', the leaf level for 'leaf', else the integer given,
        which must lie where ``check_coarsest`` allows."""
        if self.levels == "all":
            return 1
        if self.levels == "leaf":
            return max(depth, 1)
        try:
            level = int(self.levels)
        except ValueError:
            raise ValueError(f"levels must be 'all', 'leaf', or one integer, got {self.levels!r}") from None
        check_coarsest(level, 1, depth)
        return level


def _coerce(kind: type, raw: str):
    """A flag's value as ``kind``; a complex value may hold spaces, as in
    ``2 + 0.1j``."""
    raw = raw.strip()
    if kind is complex:
        return complex(raw.replace(" ", ""))
    return kind(raw)


# read through get_type_hints because annotations are strings under
# `from __future__ import annotations`; Optional[float] coerces as float
_FIELD_TYPES: Dict[str, type] = {
    name: next((arg for arg in get_args(hint) if arg is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}


# the RunConfig fields each subcommand reads, and so its flags
_PROBLEM_KEYS = (
    "geometry", "length", "radius", "eps_r", "density", "leaf_size", "eta", "aca_tol",
    "gmres_tol", "gmres_restart", "gmres_maxit", "series_order", "levels",
    "phi_inc_deg", "angle_start", "angle_stop", "angle_count", "out",
)
COMMAND_KEYS: Dict[str, Tuple[str, ...]] = {
    "solve": _PROBLEM_KEYS + ("solver",),
    "compare": _PROBLEM_KEYS + ("solvers", "assert_rms_db"),
    "bench": ("density", "leaf_size", "eta", "aca_tol", "sizes", "out"),
    "oracle-check": ("out",),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the flags given."""
    flags = {name: getattr(args, name) for name in COMMAND_KEYS[args.command] if getattr(args, name) is not None}
    cfg = replace(RunConfig(), **flags)
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


@dataclass
class SolverRun:
    """One solver's echo width, wall time and report: the cascade's
    ``SolveReport``, GMRES's ``IterativeReport``, or None for lu.
    ``scope`` is the ``HMatrix.scope`` of the operator the run was given,
    which GMRES's residual lines carry; the cascade's report holds its own
    label, and lu solves the dense matrix."""

    name: str
    rcs: RcsCurve
    wall_time_s: float
    report: Union[pss.SolveReport, IterativeReport, None] = None
    scope: str = ""

    @property
    def detail(self) -> str:
        """The text of ``solve_report.txt``."""
        if isinstance(self.report, IterativeReport):
            return self.report.to_text(self.scope)
        return "dense partial-pivot LU oracle\n" if self.report is None else self.report.to_text()

    @property
    def unconverged(self) -> bool:
        """A GMRES run that stopped at ``maxit`` above its tolerance."""
        return isinstance(self.report, IterativeReport) and not self.report.converged

    def counts(self) -> str:
        """What the run's compare line counts: for the cascade its level
        matvecs, in the solve and in the guard; for GMRES its full
        matvecs and iterations."""
        if isinstance(self.report, pss.SolveReport):
            guard = sum(self.report.setup_matvec_counts.values())
            return f", level matvecs {self.report.total_solve_matvecs}, guard level matvecs {guard}"
        if isinstance(self.report, IterativeReport):
            return f", matvecs {self.report.n_matvecs}, iterations {self.report.iterations}"
        return ""

    def notes(self) -> List[str]:
        """What a summary shows of the run's accuracy: its report's
        ``outcome_lines``, none for lu."""
        if isinstance(self.report, IterativeReport):
            return self.report.outcome_lines(self.scope)
        return [] if self.report is None else self.report.outcome_lines()


def _run_one_solver(
    name: str,
    cfg: RunConfig,
    mesh: Mesh,
    spec: KernelSpec,
    h: HMatrix,
    b_mesh: np.ndarray,
) -> SolverRun:
    """Run one solver and take the echo width of its solution.

    The wall time covers the permute, the solve and the unpermute (for lu,
    the dense fill and the solve), not the echo width.
    """
    start = time.perf_counter()
    if name == "lu":  # the dense oracle, in mesh order throughout
        x_mesh, report = lu_solve(assemble_dense(spec), b_mesh), None
    else:
        b_perm = h.permute(b_mesh)
        if name == "pss":
            config = pss.PssConfig(series_order=cfg.series_order)
            x_perm, report = pss.solve(compute_scaling(h, b_perm), h, config)
        else:
            x_perm, report = gmres(h.matvec, b_perm, cfg.gmres_tol, cfg.gmres_restart, cfg.gmres_maxit)
        x_mesh = h.unpermute(x_perm)
    wall = time.perf_counter() - start
    rcs = bistatic_rcs(mesh, x_mesh, cfg.angles())
    return SolverRun(name, rcs, wall, report, h.scope)


def _build_problem(cfg: RunConfig, solvers: Sequence[str]) -> Tuple[Mesh, KernelSpec, ClusterTree, int, np.ndarray]:
    """Mesh, kernel, cluster tree, the coarsest far level ``--levels``
    keeps on it (``cfg.coarsest_level``) and the mesh-order plane-wave RHS.

    The levels are checked against the tree, N by ``check_dense_size``
    when ``solvers`` include lu, and the RHS by ``check_finite_rhs``,
    before anything is assembled or written.
    """
    mesh = build_mesh(cfg)
    if "lu" in solvers:
        check_dense_size(mesh.n_elements)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, cfg.leaf_size)
    coarsest = cfg.coarsest_level(tree.depth)
    b_mesh = rhs(spec, Excitation(math.radians(cfg.phi_inc_deg)))
    check_finite_rhs(b_mesh)
    return mesh, spec, tree, coarsest, b_mesh


def _write_outputs(cfg: RunConfig, mesh: Mesh, h: HMatrix, runs: Sequence[SolverRun]) -> None:
    """mesh.csv, the memory_report.csv of ``h`` and each run's
    ``rcs_<name>.csv``, with ``iterative_report.csv`` for gmres."""
    os.makedirs(cfg.out, exist_ok=True)
    write_mesh_csv(mesh, os.path.join(cfg.out, "mesh.csv"))
    memory_report(h).to_csv(os.path.join(cfg.out, "memory_report.csv"))
    for run in runs:
        run.rcs.to_csv(os.path.join(cfg.out, f"rcs_{run.name}.csv"))
        if isinstance(run.report, IterativeReport):
            run.report.to_csv(os.path.join(cfg.out, "iterative_report.csv"))


def run_solve(cfg: RunConfig) -> int:
    mesh, spec, tree, coarsest, b_mesh = _build_problem(cfg, [cfg.solver])
    h = assemble(spec, tree, cfg.aca_tol, eta=cfg.eta, coarsest=coarsest)
    run = _run_one_solver(cfg.solver, cfg, mesh, spec, h, b_mesh)
    _write_outputs(cfg, mesh, h, [run])
    _write_text(os.path.join(cfg.out, "solve_report.txt"), run.detail)

    lines = [
        f"geometry: {cfg.geometry}",
        f"unknowns: {mesh.n_elements}",
        f"tree depth: {h.depth}",
        f"far blocks: {sum(len(blocks) for blocks in h.far_blocks.values())}",
        f"rank flags (far blocks of rank above half their smaller side): {len(h.stats['rank_flags'])}",
        f"solver: {run.name}",
        f"wall time: {run.wall_time_s:.3f} s",
        *run.notes(),
        f"outputs: {cfg.out}",
    ]
    _write_text(os.path.join(cfg.out, "summary.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 1 if run.unconverged else 0


def run_compare(cfg: RunConfig) -> int:
    # the baselines, and memory_report.csv, see the complete operator; the
    # power series runs on the part of it that keeps the levels --levels names
    solvers = cfg._solver_list()
    mesh, spec, tree, coarsest, b_mesh = _build_problem(cfg, solvers)
    h = assemble(spec, tree, cfg.aca_tol, eta=cfg.eta)
    h_pss = h.keep_levels(coarsest)

    runs = {name: _run_one_solver(name, cfg, mesh, spec, h_pss if name == "pss" else h, b_mesh) for name in solvers}
    _write_outputs(cfg, mesh, h, list(runs.values()))

    lines = [
        f"geometry: {cfg.geometry}, unknowns {mesh.n_elements}, tree depth {h.depth}",
        f"power-series levels: {cfg.levels}, order {cfg.series_order}",
    ]
    for name, run in runs.items():
        lines.append(f"{name}: wall {run.wall_time_s:.3f} s{run.counts()}")
        lines += [f"  {note}" for note in run.notes()]
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
    return 1 if failures or any(run.unconverged for run in runs.values()) else 0


def _median_time(fn, repeats: int) -> Tuple[float, object]:
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def _matvec_work(h: HMatrix) -> int:
    """Entries one product reads: each near operand (a mirror reads its
    stored block again) and each far factor."""
    return sum(op.size for op in h.near.operands) + h.far.left.nnz + h.far.right.nnz


def run_bench(cfg: RunConfig) -> int:
    sizes = cfg._size_list()
    rows = []
    operators = []
    failures: List[str] = []
    rng = np.random.default_rng(0)
    for n_target in sizes:
        length = n_target / cfg.density
        if math.ceil(length * cfg.density) > n_target:  # rounded up past n_target
            length = math.nextafter(length, 0.0)
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
            lambda: assemble(spec, tree, cfg.aca_tol, eta=cfg.eta, coarsest=max(tree.depth, 1)), repeats
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
    # during the run slows all sizes alike instead of tilting the slope; each
    # timing runs enough products back to back to span BENCH_SAMPLE_S, so
    # host noise does not rule the smallest sizes, whose one product is short
    counts = []
    for h, x in operators:
        h.matvec(x)
        t0 = time.perf_counter()
        h.matvec(x)
        counts.append(max(1, math.ceil(BENCH_SAMPLE_S / (time.perf_counter() - t0))))
    samples: List[List[float]] = [[] for _ in operators]
    for _ in range(BENCH_MATVEC_ROUNDS):
        for (h, x), count, times in zip(operators, counts, samples):
            h.matvec(x)  # untimed warm-up
            t0 = time.perf_counter()
            for _ in range(count):
                h.matvec(x)
            times.append((time.perf_counter() - t0) / count)
    rows = [row + (float(np.median(times)),) for row, times in zip(rows, samples)]

    os.makedirs(cfg.out, exist_ok=True)
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
        work_slope = float(np.polyfit(logn, np.log([_matvec_work(h) for h, _ in operators]), 1)[0])
        lines.append(f"stored-entry log-log slope: {entry_slope:.3f}")
        lines.append(f"matvec-time log-log slope: {matvec_slope:.3f}")
        lines.append(f"matvec-work log-log slope: {work_slope:.3f}")
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

    # (label, mesh, analytic curve, rms limit in dB): a PEC cylinder of one
    # wavelength radius on a lambda/20 contour mesh, and a dielectric disk,
    # eps_r = 2, on 20 cells per wavelength, the coarsest staircase grid
    # whose boundary error sits inside the oracle tolerance
    cases = (
        ("pec cylinder (k0*a = 2*pi, lambda/20)", discretize_circle(1.0, 20.0),
         series_pec_cylinder(1.0, angles, phi_inc_rad=0.0), 0.3),
        ("dielectric disk (0.3 wl, eps 2, lambda/20 cells)", discretize_disk(0.3, 20.0, 2.0),
         series_dielectric_cylinder(0.3, 2.0, angles, phi_inc_rad=0.0), 0.75),
    )
    for label, mesh, oracle, limit in cases:
        spec = KernelSpec.for_mesh(mesh)
        x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(0.0)))
        rms = rcs_rms_error(bistatic_rcs(mesh, x, angles), oracle)
        ok = rms <= limit
        failures += 0 if ok else 1
        lines.append(f"{label}: rms {rms:.4f} dB, limit {limit} dB: {'PASS' if ok else 'FAIL'}")

    text = "\n".join(lines) + "\n"
    _write_text(os.path.join(cfg.out, "oracle_report.txt"), text)
    print(text, end="")
    return 1 if failures else 0


_FLAG_CHOICES = {"geometry": GEOMETRIES, "solver": SOLVER_NAMES}
_FLAG_HELP = {
    "length": "strip length in wavelengths",
    "radius": "circle/disk radius in wavelengths",
    "eps_r": "disk relative permittivity",
    "density": "elements or cells per wavelength",
    "series_order": "power-series order",
    "levels": "the coarsest far level kept: 'all', 'leaf', or one integer",
    "solvers": "comma list from pss,gmres,lu",
    "sizes": "comma list of unknown counts",
}
_COMMANDS = {
    "solve": (run_solve, "assemble and solve one configuration"),
    "compare": (run_compare, "run several solvers and difference their far fields"),
    "bench": (run_bench, "scaling table over strip sizes"),
    "oracle-check": (run_oracle_check, "dense solves against the analytic series"),
}


def _add_flag(parser: argparse.ArgumentParser, name: str) -> None:
    """``--name`` with ``_`` as ``-`` (``series_order`` is ``--order``),
    its value parsed by ``_coerce``."""
    flag = "--" + ("order" if name == "series_order" else name).replace("_", "-")
    kind = _FIELD_TYPES[name]
    parse = functools.partial(_coerce, kind)
    parse.__name__ = kind.__name__  # argparse's refusal names it: "invalid int value: '1.5'"
    parser.add_argument(flag, dest=name, type=parse, choices=_FLAG_CHOICES.get(name), help=_FLAG_HELP.get(name))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="hpss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        for name in COMMAND_KEYS[command]:
            _add_flag(p_command, name)

    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](resolve_config(args))
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
