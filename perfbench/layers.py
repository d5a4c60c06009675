"""The hooks the traced run installs in hpss and the per-layer metrics.

Layers are named by hpss module.  Every hook wraps a name where the
program, or the benchmark's own pipeline, looks it up at call time:

* pipeline stages on the ``hpss`` package (the benchmark calls them there);
* ``kernels.z_block``, which the ``entry_function`` lambda reads when called;
* ``aca``, ``recompress`` and ``build_block_partition`` in ``hmatrix``;
* ``HMatrix.matvec``, ``near_matvec`` and ``matvec_level``;
* ``ScaledSystem.near_solve`` and ``splu`` / ``lu_factor`` in ``scaling``;
* ``estimate_spectral_radius`` and ``build_factor_chain`` in ``pss``.

Counts taken from spans are checked against the program's own counters,
so a hook that silently stopped firing shows up as a failed check.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import hpss
from tracer import END, NAME, PARENT, START, TAG, Hook, Span

# name -> (unit, span names the metric is derived from).  A metric whose
# span hook is missing is left out of the report instead of reading zero.
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "geometry.mesh_s": ("s", ("geometry.mesh",)),
    "geometry.tree_s": ("s", ("geometry.tree",)),
    "kernels.calls": ("count", ("kernels.z_block",)),
    "kernels.entries": ("count", ("kernels.z_block",)),
    "kernels.s": ("s", ("kernels.z_block",)),
    "kernels.entries_per_s": ("1/s", ("kernels.z_block",)),
    "compression.aca_calls": ("count", ("compression.aca",)),
    "compression.aca_self_s": ("s", ("compression.aca", "kernels.z_block")),
    "compression.aca_kernel_s": ("s", ("compression.aca", "kernels.z_block")),
    "compression.recompress_s": ("s", ("compression.recompress",)),
    "compression.mean_rank": ("count", ("compression.recompress",)),
    "compression.max_rank": ("count", ("compression.recompress",)),
    "compression.rank_flags": ("count", ()),
    "compression.sample_rel_err": ("1", ()),
    "hmatrix.partition_s": ("s", ("hmatrix.partition",)),
    "hmatrix.assemble_s": ("s", ("hmatrix.assemble",)),
    "hmatrix.near_fill_s": ("s", ("hmatrix.assemble", "kernels.z_block")),
    "hmatrix.near_blocks": ("count", ("hmatrix.assemble", "kernels.z_block")),
    "hmatrix.far_blocks": ("count", ("compression.recompress",)),
    "hmatrix.near_entries": ("count", ("hmatrix.assemble", "kernels.z_block")),
    "hmatrix.far_entries": ("count", ("compression.recompress",)),
    "hmatrix.matvec_calls": ("count", ("hmatrix.matvec",)),
    "hmatrix.matvec_s": ("s", ("hmatrix.matvec",)),
    "hmatrix.near_matvec_s": ("s", ("hmatrix.near_matvec",)),
    "hmatrix.level_matvec_calls": ("count", ("hmatrix.matvec_level",)),
    "hmatrix.level_matvec_s": ("s", ("hmatrix.matvec_level",)),
    "hmatrix.empty_level_matvecs": ("count", ("hmatrix.matvec_level",)),
    "hmatrix.matvec_gbps_computed": ("GB/s", ("hmatrix.matvec",)),
    "scaling.compute_scaling_s": ("s", ("scaling.compute_scaling",)),
    "scaling.near_factor_s": ("s", ("scaling.splu", "scaling.lu_factor")),
    "scaling.near_solve_calls": ("count", ("scaling.near_solve",)),
    "scaling.near_solve_s": ("s", ("scaling.near_solve",)),
    "scaling.radius_estimates": ("count", ("scaling.estimate_spectral_radius",)),
    "scaling.radius_estimate_s": ("s", ("scaling.estimate_spectral_radius",)),
    "pss.guard_s": ("s", ("pss.build_factor_chain",)),
    "pss.cascade_s": ("s", ("pss.solve", "pss.build_factor_chain", "hmatrix.matvec")),
    "pss.setup_matvecs": ("count", ("pss.build_factor_chain", "hmatrix.matvec_level")),
    "pss.solve_matvecs": ("count", ("pss.solve", "hmatrix.matvec_level")),
    "pss.setup_per_solve_matvecs": ("1", ("pss.solve", "pss.build_factor_chain", "hmatrix.matvec_level")),
    "pss.max_radius": ("1", ()),
    "solvers.gmres_iterations": ("count", ()),
    "solvers.gmres_matvecs": ("count", ("solvers.gmres", "hmatrix.matvec")),
    "solvers.gmres_self_s": ("s", ("solvers.gmres", "hmatrix.matvec")),
    "postproc.rcs_s": ("s", ("postproc.bistatic_rcs",)),
}


def _entries(args: Tuple[Any, ...], out: np.ndarray) -> int:
    return int(out.size)


def _rank_and_entries(args: Tuple[Any, ...], out: Tuple[np.ndarray, np.ndarray]) -> Tuple[int, int]:
    u, v = out
    return int(u.shape[1]), int(u.shape[1] * (u.shape[0] + v.shape[1]))


def _level(args: Tuple[Any, ...], out: np.ndarray) -> int:
    return int(args[1])


def hooks() -> List[Hook]:
    hm, sc, ps = hpss.hmatrix, hpss.scaling, hpss.pss
    return [
        Hook(hpss, "discretize_strip", "geometry.mesh"),
        Hook(hpss, "discretize_disk", "geometry.mesh"),
        Hook(hpss, "build_cluster_tree", "geometry.tree"),
        Hook(hpss, "assemble", "hmatrix.assemble"),
        Hook(hpss, "rhs", "kernels.rhs", starts_trace=True),
        Hook(hpss, "compute_scaling", "scaling.compute_scaling"),
        Hook(hpss, "solve", "pss.solve"),
        Hook(hpss, "gmres", "solvers.gmres"),
        Hook(hpss, "bistatic_rcs", "postproc.bistatic_rcs"),
        Hook(hpss.kernels, "z_block", "kernels.z_block", tag=_entries),
        Hook(hm, "aca", "compression.aca"),
        Hook(hm, "recompress", "compression.recompress", tag=_rank_and_entries),
        Hook(hm, "build_block_partition", "hmatrix.partition"),
        Hook(hm.HMatrix, "matvec", "hmatrix.matvec"),
        Hook(hm.HMatrix, "near_matvec", "hmatrix.near_matvec"),
        Hook(hm.HMatrix, "matvec_level", "hmatrix.matvec_level", tag=_level),
        Hook(sc.ScaledSystem, "near_solve", "scaling.near_solve"),
        Hook(sc, "splu", "scaling.splu"),
        Hook(sc, "lu_factor", "scaling.lu_factor"),
        Hook(ps, "estimate_spectral_radius", "scaling.estimate_spectral_radius"),
        Hook(ps, "build_factor_chain", "pss.build_factor_chain"),
    ]


def sample_far_error(h: Any, spec: Any, rng: np.random.Generator, blocks: int = 8, rows: int = 32) -> float:
    """Largest relative error of sampled far blocks against ``z_block``.

    The generator picks ``blocks`` far blocks and up to ``rows`` rows of
    each; the rows of U V are compared with the same rows evaluated from the
    kernel, in Frobenius norm.
    """
    far = [blk for level in sorted(h.far_blocks) for blk in h.far_blocks[level]]
    if not far:
        return 0.0
    entry_fn = hpss.entry_function(spec, h.permutation)
    worst = 0.0
    for k in rng.choice(len(far), size=min(blocks, len(far)), replace=False):
        blk = far[int(k)]
        m, n = blk.shape
        local = np.sort(rng.choice(m, size=min(rows, m), replace=False))
        exact = entry_fn(blk.row_start + local, np.arange(blk.col_start, blk.col_start + n))
        approx = blk.u[local] @ blk.v
        worst = max(worst, float(np.linalg.norm(approx - exact) / np.linalg.norm(exact)))
    return worst


def layer_metrics(
    spans: Sequence[Span], h: Any, reports: Sequence[Any], solver: str
) -> Tuple[Dict[str, float], List[Tuple[str, Tuple[str, ...], bool, str]]]:
    """Per-layer metrics of one traced pass, and the count checks.

    ``reports`` are the solver reports of the pass's right-hand sides.
    Each check is ``(label, span names it needs, passed, detail)``.
    """
    dur = [s[END] - s[START] for s in spans]
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def parent(i: int) -> str:
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    def within(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def total(name: str, under: str = "") -> float:
        return float(sum(dur[i] for i in by_name[name] if not under or parent(i) == under))

    def calls(name: str, under: str = "") -> int:
        return sum(1 for i in by_name[name] if not under or parent(i) == under)

    z_s = total("kernels.z_block")
    z_entries = sum(spans[i][TAG] for i in by_name["kernels.z_block"])
    aca_kernel_s = total("kernels.z_block", under="compression.aca")
    near_fill = [i for i in by_name["kernels.z_block"] if parent(i) == "hmatrix.assemble"]
    recompressed = [spans[i][TAG] for i in by_name["compression.recompress"]]
    ranks = [rank for rank, _ in recompressed]
    matvec_durations = [dur[i] for i in by_name["hmatrix.matvec"]]
    matvec_s = statistics.median(matvec_durations) if matvec_durations else 0.0
    level_spans = by_name["hmatrix.matvec_level"]
    setup_matvecs = sum(1 for i in level_spans if within(i, "pss.build_factor_chain"))
    solve_matvecs = calls("hmatrix.matvec_level", under="pss.solve")
    report_memory = hpss.memory_report(h)
    near_row = report_memory.rows[0]
    stored_bytes = report_memory.total_entries * hpss.hmatrix.BYTES_PER_ENTRY
    radii = [est.value for r in reports if solver == "pss" for lvl, est in r.factor_norms.items() if lvl >= 1]

    m: Dict[str, float] = {
        "geometry.mesh_s": total("geometry.mesh"),
        "geometry.tree_s": total("geometry.tree"),
        "kernels.calls": calls("kernels.z_block"),
        "kernels.entries": z_entries,
        "kernels.s": z_s,
        "kernels.entries_per_s": z_entries / z_s if z_s > 0 else 0.0,
        "compression.aca_calls": calls("compression.aca"),
        "compression.aca_self_s": total("compression.aca") - aca_kernel_s,
        "compression.aca_kernel_s": aca_kernel_s,
        "compression.recompress_s": total("compression.recompress"),
        "compression.mean_rank": float(np.mean(ranks)) if ranks else 0.0,
        "compression.max_rank": max(ranks, default=0),
        "compression.rank_flags": len(h.stats["rank_flags"]),
        "hmatrix.partition_s": total("hmatrix.partition"),
        "hmatrix.assemble_s": total("hmatrix.assemble"),
        "hmatrix.near_fill_s": float(sum(dur[i] for i in near_fill)),
        "hmatrix.near_blocks": len(near_fill),
        "hmatrix.far_blocks": len(recompressed),
        "hmatrix.near_entries": sum(spans[i][TAG] for i in near_fill),
        "hmatrix.far_entries": sum(entries for _, entries in recompressed),
        "hmatrix.matvec_calls": calls("hmatrix.matvec"),
        "hmatrix.matvec_s": matvec_s,
        "hmatrix.near_matvec_s": total("hmatrix.near_matvec"),
        "hmatrix.level_matvec_calls": len(level_spans),
        "hmatrix.level_matvec_s": total("hmatrix.matvec_level"),
        "hmatrix.empty_level_matvecs": sum(1 for i in level_spans if not h.far_blocks.get(spans[i][TAG])),
        "hmatrix.matvec_gbps_computed": stored_bytes / matvec_s / 1e9 if matvec_s > 0 else 0.0,
        "scaling.compute_scaling_s": total("scaling.compute_scaling"),
        "scaling.near_factor_s": total("scaling.splu") + total("scaling.lu_factor"),
        "scaling.near_solve_calls": calls("scaling.near_solve"),
        "scaling.near_solve_s": total("scaling.near_solve"),
        "scaling.radius_estimates": calls("scaling.estimate_spectral_radius"),
        "scaling.radius_estimate_s": total("scaling.estimate_spectral_radius"),
        "pss.guard_s": total("pss.build_factor_chain"),
        "pss.cascade_s": total("pss.solve")
        - total("pss.build_factor_chain", under="pss.solve")
        - total("hmatrix.matvec", under="pss.solve"),
        "pss.setup_matvecs": setup_matvecs,
        "pss.solve_matvecs": solve_matvecs,
        "pss.setup_per_solve_matvecs": setup_matvecs / solve_matvecs if solve_matvecs else 0.0,
        "pss.max_radius": max(radii, default=0.0),
        "solvers.gmres_iterations": sum(r.iterations for r in reports) if solver == "gmres" else 0,
        "solvers.gmres_matvecs": calls("hmatrix.matvec", under="solvers.gmres"),
        "solvers.gmres_self_s": total("solvers.gmres") - total("hmatrix.matvec", under="solvers.gmres"),
        "postproc.rcs_s": total("postproc.bistatic_rcs"),
    }

    far_levels = h.stats["far_levels"]
    checks: List[Tuple[str, Tuple[str, ...], bool, str]] = []

    def check(label: str, needs: Tuple[str, ...], traced: float, program: float) -> None:
        checks.append((label, needs, traced == program, f"traced {traced} vs program {program}"))

    fill = ("hmatrix.assemble", "kernels.z_block")
    check("near blocks = memory_report", fill, m["hmatrix.near_blocks"], near_row[1])
    check("near entries = memory_report", fill, m["hmatrix.near_entries"], near_row[2])
    far = ("compression.recompress",)
    check("far entries = memory_report", far, m["hmatrix.far_entries"], report_memory.total_entries - near_row[2])
    check("far blocks = stats far_levels", far, m["hmatrix.far_blocks"], sum(v["blocks"] for v in far_levels.values()))
    check("far entries = stats far_levels", far, m["hmatrix.far_entries"], sum(v["entries"] for v in far_levels.values()))
    check("max rank = stats far_levels", far, m["compression.max_rank"], max((v["max_rank"] for v in far_levels.values()), default=0))
    if solver == "pss":
        chain = ("pss.build_factor_chain", "hmatrix.matvec_level")
        check("setup matvecs = SolveReport", chain, setup_matvecs, sum(sum(r.setup_matvec_counts.values()) for r in reports))
        cascade = ("pss.solve", "hmatrix.matvec_level")
        check("solve matvecs = SolveReport", cascade, solve_matvecs, sum(sum(r.solve_matvec_counts.values()) for r in reports))
    else:
        gm = ("solvers.gmres", "hmatrix.matvec")
        check("gmres matvecs = IterativeReport", gm, m["solvers.gmres_matvecs"], sum(r.n_matvecs for r in reports))
    return m, checks
