"""Workloads of the hpss benchmark, the passes that time them, and checks.

A pass is one scattering problem end to end: mesh -> cluster tree ->
assembled H-matrix (the set-up), then for every incidence angle the
plane-wave right-hand side -> solution in mesh order (one solve), then its
echo width.  Passes call only names exported by ``hpss`` and look each one
up on the package when they call it, so the tracer can hook them without
touching the program.  Everything a pass does not need (residual
recomputation, references, comparisons) runs outside its timed regions,
and with the hooks removed.

A run repeats passes until ``--seconds`` are used up and reports medians.
The traced run spends the first half of its time on untraced passes and
the second half on traced ones; the difference of their medians is the
tracing overhead.

On a shared 2-vCPU VM one thread's speed changes by up to 1.7 times in
phases of a second to minutes, so raw wall times of runs made minutes apart
disagree by far more than any code change worth measuring.  Every timed region is therefore
followed by a fixed reference task that uses numpy and scipy but no hpss
code (``Calibration``), and once the run is over each region's time is
scaled by the reference task's time on a quiet host over the median of
the ten calibrations nearest the region.  The scaled times are the
reported seconds; the raw wall times are kept in the detail record.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
import scipy.special

import hpss
from layers import PER_LAYER, hooks, layer_metrics, sample_far_error
from tracer import Tracer, summarize

# Fixed for every workload: ACA tolerance, admissibility, all far levels.
ACA_TOL = 1e-3
ETA = 1.0
LEAF_SIZE = 32
GMRES_TOL = 1e-6
GMRES_RESTART = 50
SERIES_ORDER = 2

RESIDUAL_AGREEMENT = 1e-8  # reported vs recomputed residual, relative
REFERENCE_TOL = 1e-10

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
    "stored_mb": "MB",
}

# Reported with the per-layer metrics: both depend on the seed-drawn angles
# far more than on the code, so they cannot carry a run-to-run bound.
ACCURACY: Dict[str, str] = {"accuracy.residual": "1", "accuracy.rcs_rms_db": "dB"}
TRACE_COST: Dict[str, str] = {"trace.setup_overhead_s": "s", "trace.solve_overhead_s": "s"}


def per_layer_units() -> Dict[str, str]:
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    units.update(ACCURACY)
    units.update(TRACE_COST)
    return units


# ---------------------------------------------------------------------------
# host-speed calibration

# Time of one reference task on a quiet host: a 2.1 GHz Xeon vCPU, one
# thread.  It only sets the scale of the reported seconds; both commits of
# a comparison are scaled by the same constant.
REFERENCE_S = 0.09
# A region is scaled by the median of this many calibrations on each side.
# One calibration is too short to stand for a region of seconds: single
# ones scatter more than the host's speed changes over ten of them.
NEAREST = 5


class Timed(NamedTuple):
    """One timed region: raw wall seconds, and the index of the calibration
    that followed it."""

    wall_s: float
    tick: int


class Calibration:
    """A fixed task, independent of hpss, timed between timed regions.

    The task mixes what hpss spends its time on: complex BLAS products,
    Hankel functions over an array, and a Python loop of small numpy calls.
    Its inputs come from a fixed generator, never from the workload seed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._points = rng.random(60000) * 50.0 + 0.1
        self._vectors = [rng.standard_normal(32) for _ in range(64)]
        self.times: List[float] = []

    def _task(self) -> float:
        for _ in range(24):
            self._matrix @ self._matrix
        scipy.special.hankel2(0, self._points)
        acc = 0.0
        for _ in range(120):
            for v in self._vectors:
                acc += float(np.dot(v, v))
        return acc

    def tick(self) -> int:
        t0 = time.perf_counter()
        self._task()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def region(self, wall_s: float) -> Timed:
        """Calibrate after a region that just ended, and remember where."""
        return Timed(wall_s, self.tick())

    def seconds(self, t: Timed) -> float:
        """``t`` at reference speed, once the calibrations after it are done."""
        near = self.times[max(0, t.tick - NEAREST) : t.tick + NEAREST]
        return t.wall_s * REFERENCE_S / statistics.median(near)

    def record(self, t: Timed) -> Dict[str, float]:
        return {"wall_s": t.wall_s, "s": self.seconds(t), "tick": t.tick}


@dataclass(frozen=True)
class Workload:
    """One scattering problem and the plane waves a pass solves on it."""

    name: str
    geometry: str  # "strip" or "disk"
    size_wl: float  # strip length or disk radius, in wavelengths
    density: float  # elements or cells per wavelength
    solver: str  # "gmres" or "pss"
    angle_range: Tuple[float, float]  # incidence angles, degrees
    angle_bands: int  # one angle drawn uniformly in each equal band
    bistatic_span: Optional[float]  # observation arc in degrees; None = monostatic
    reference: str  # "toeplitz", "dense" or "series"
    eps_r: float = 1.0
    rcs_limit_db: Optional[float] = None  # largest echo-width error counted correct
    setups_per_solve: int = 0  # extra timed set-ups after each untraced solve

    def mesh(self) -> Any:
        if self.geometry == "strip":
            return hpss.discretize_strip(self.size_wl, self.density)
        return hpss.discretize_disk(self.size_wl, self.density, self.eps_r)

    def angles(self, seed: int) -> np.ndarray:
        """Stratified incidence angles: the same seed gives the same angles."""
        lo, hi = self.angle_range
        draws = np.random.default_rng(seed).random(self.angle_bands)
        return lo + (np.arange(self.angle_bands) + draws) * (hi - lo) / self.angle_bands

    def observation(self, angle: float) -> np.ndarray:
        if self.bistatic_span is None:
            return np.array([angle])
        return np.linspace(0.0, self.bistatic_span, 361)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # largest problem: fill and ACA bound the set-up, matvecs bound GMRES;
        # two plane waves, as GMRES iterations vary with the angle
        Workload("strip16k-gmres", "strip", 1638.4, 10.0, "gmres", (45.0, 90.0), 2, 180.0, "toeplitz", rcs_limit_db=0.1),
        # the paper's fixed-work cascade, one operator, many right-hand sides;
        # its set-up is 2 % of a pass, so extra set-ups give setup_s samples
        Workload("strip1k-pss-sweep", "strip", 64.0, 16.0, "pss", (0.0, 90.0), 10, None, "dense", setups_per_solve=1),
        # volume kernel on a 2-D cluster geometry, analytic ground truth; three
        # plane waves, as one 1 s solve per pass gives too few solve samples
        Workload("disk2k5-gmres", "disk", 1.0, 20.0, "gmres", (0.0, 360.0), 3, 360.0, "series", eps_r=2.0, rcs_limit_db=0.5),
    )
}

# Same code path at a few hundred unknowns: warm-up and tests.
MINIATURE_SIZE = {"strip16k-gmres": 25.6, "strip1k-pss-sweep": 16.0, "disk2k5-gmres": 0.35}


def miniature(wl: Workload) -> Workload:
    return replace(wl, size_wl=MINIATURE_SIZE[wl.name])


@dataclass(eq=False)
class Solve:
    angle: float
    time: Timed  # rhs to solution in mesh order
    x: Optional[np.ndarray] = None  # mesh order
    report: Any = None
    sigma_db: Optional[np.ndarray] = None
    residual: Optional[float] = None  # recomputed with h.matvec
    failure: Optional[str] = None


@dataclass(eq=False)
class Pass:
    setup: Timed
    parts: List[Timed]  # set-up, every solve and every echo width
    solves: List[Solve]
    mesh: Any
    spec: Any
    h: Any = None
    extra_setups: List[Timed] = field(default_factory=list)


def setup(wl: Workload) -> Tuple[Any, Any, Any]:
    mesh = wl.mesh()
    spec = hpss.KernelSpec.for_mesh(mesh)
    tree = hpss.build_cluster_tree(mesh, LEAF_SIZE)
    return mesh, spec, hpss.assemble(spec, tree, tol=ACA_TOL, eta=ETA)


def run_pass(wl: Workload, angles: Sequence[float], cal: Calibration, extra_setups: bool = True) -> Pass:
    """One timed pass; a solve that raises is recorded and the pass goes on.

    The set-up, each solve with its echo width, and each extra set-up is
    followed by a calibration; a solve and its echo width are timed apart
    and share their calibration.  With ``extra_setups`` the workload's extra
    set-ups run after each solve; they are left out of the pass's parts.
    """
    t0 = time.perf_counter()
    mesh, spec, h = setup(wl)
    setup_t = cal.region(time.perf_counter() - t0)
    parts = [setup_t]
    solves: List[Solve] = []
    extra: List[Timed] = []
    for angle in angles:
        t0 = time.perf_counter()
        try:
            b = h.permute(hpss.rhs(spec, hpss.Excitation(math.radians(angle))))
            if wl.solver == "gmres":
                x, report = hpss.gmres(h.matvec, b, tol=GMRES_TOL, restart=GMRES_RESTART)
            else:
                scaled = hpss.compute_scaling(h, b)
                x, report = hpss.solve(scaled, h, hpss.PssConfig(series_order=SERIES_ORDER))
            x_mesh = h.unpermute(x)
        except Exception:
            solve_t = cal.region(time.perf_counter() - t0)
            parts.append(solve_t)
            solves.append(Solve(angle, solve_t, failure=traceback.format_exc(limit=4)))
            continue
        solve_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        curve = hpss.bistatic_rcs(mesh, x_mesh, wl.observation(angle))
        rcs_wall = time.perf_counter() - t0
        solve_t = cal.region(solve_wall)
        parts += [solve_t, Timed(rcs_wall, solve_t.tick)]
        solves.append(Solve(angle, solve_t, x_mesh, report, curve.sigma_db))
        for _ in range(wl.setups_per_solve if extra_setups else 0):
            t0 = time.perf_counter()
            setup(wl)
            extra.append(cal.region(time.perf_counter() - t0))
    return Pass(setup_t, parts, solves, mesh, spec, h, extra)


def check_pass(wl: Workload, p: Pass) -> None:
    """Mark failed solves: raised, non-finite x, GMRES not converged, a
    cascade matvec count off the closed form, or a reported residual that
    disagrees with the one recomputed here."""
    h = p.h
    for s in p.solves:
        if s.failure is not None:
            continue
        if not np.all(np.isfinite(s.x)):
            s.failure = "non-finite solution"
            continue
        b = h.permute(hpss.rhs(p.spec, hpss.Excitation(math.radians(s.angle))))
        s.residual = float(np.linalg.norm(h.matvec(h.permute(s.x)) - b) / np.linalg.norm(b))
        if wl.solver == "gmres":
            if not s.report.converged:
                s.failure = f"GMRES did not converge in {s.report.iterations} iterations"
                continue
            reported = s.report.residual_history[-1]
        else:
            reported = s.report.residual
            expected = hpss.expected_solve_counts(h.depth, s.report.active_levels, s.report.order)
            if s.report.solve_matvec_counts != expected:
                s.failure = f"solve matvecs {s.report.solve_matvec_counts} != closed form {expected}"
                continue
        if reported is None or abs(reported - s.residual) > RESIDUAL_AGREEMENT * s.residual + 1e-14:
            s.failure = f"reported residual {reported} disagrees with recomputed {s.residual:.6e}"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(
    wl: Workload,
    angles: Sequence[float],
    deadline: float,
    cal: Calibration,
    digest: Callable[[Pass], None],
    tracer: Optional[Tracer] = None,
) -> List[Pass]:
    """Passes until too little time is left before ``deadline``; at least one.

    A further pass starts only while at least half the median pass, checks
    included, is left, so a run ends within half a pass of its deadline.
    ``digest`` runs after each pass's checks, while its operator is alive;
    the operator is dropped before the next pass so memory does not stack.
    Traced passes skip the extra set-ups, which would add to the spans.
    """
    passes: List[Pass] = []
    durations: List[float] = []
    while True:
        t0 = time.perf_counter()
        gc.collect()
        cal.tick()  # host speed just before the pass, after the collection
        if tracer is None:
            p = run_pass(wl, angles, cal)
        else:
            with tracer:
                p = run_pass(wl, angles, cal, extra_setups=False)
        check_pass(wl, p)
        digest(p)
        p.h = None
        passes.append(p)
        now = time.perf_counter()
        durations.append(now - t0)
        if deadline - now < median(durations) / 2:
            return passes


# ---------------------------------------------------------------------------
# references, computed outside every timed region


def toeplitz_operator(spec: Any) -> Callable[[np.ndarray], np.ndarray]:
    """Uncompressed strip operator applied by FFT.

    A straight strip of equal segments gives a symmetric Toeplitz matrix, so
    its first row defines it; the product runs through a circulant of twice
    the size.  Checked against ``z_block`` rows before use.
    """
    mesh = spec.mesh
    n = mesh.n_elements
    x = mesh.centers[:, 0]
    step = x[1] - x[0]
    if not (
        np.all(mesh.centers[:, 1] == 0.0)
        and np.allclose(np.diff(x), step, rtol=1e-9, atol=0.0)
        and np.all(mesh.extents == mesh.extents[0])
    ):
        raise ValueError("the Toeplitz reference needs a straight strip of equal segments")
    first = hpss.z_block(spec, np.array([0]), np.arange(n))[0]
    spectrum = np.fft.fft(np.concatenate([first, [0.0], first[:0:-1]]))

    def apply(v: np.ndarray) -> np.ndarray:
        return np.fft.ifft(spectrum * np.fft.fft(v, 2 * n))[:n]

    probe = np.random.default_rng(0).standard_normal(n) + 0j
    rows = np.array([0, n // 3, n // 2, n - 1])
    exact = hpss.z_block(spec, rows, np.arange(n)) @ probe
    err = np.linalg.norm(apply(probe)[rows] - exact) / np.linalg.norm(exact)
    if err > 1e-10:
        raise ValueError(f"Toeplitz reference disagrees with z_block rows: {err:.3e}")
    return apply


def reference_curves(wl: Workload, mesh: Any, spec: Any, angles: Sequence[float]) -> List[np.ndarray]:
    """Echo width of the reference solution for every angle, in dB."""
    n = mesh.n_elements
    if wl.reference == "series":
        return [
            hpss.series_dielectric_cylinder(wl.size_wl, wl.eps_r, wl.observation(a), math.radians(a)).sigma_db
            for a in angles
        ]
    if wl.reference == "dense":
        factors = scipy.linalg.lu_factor(hpss.assemble_dense(spec))

        def solve_ref(b: np.ndarray) -> np.ndarray:
            return scipy.linalg.lu_solve(factors, b)

    else:
        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=toeplitz_operator(spec), dtype=np.complex128)

        def solve_ref(b: np.ndarray) -> np.ndarray:
            x, info = scipy.sparse.linalg.gmres(op, b, rtol=REFERENCE_TOL, atol=0.0, restart=100, maxiter=100)
            if info != 0:
                raise RuntimeError(f"reference GMRES stopped with info {info}")
            return x

    curves = []
    for a in angles:
        x = solve_ref(hpss.rhs(spec, hpss.Excitation(math.radians(a))))
        curves.append(hpss.bistatic_rcs(mesh, x, wl.observation(a)).sigma_db)
    return curves


def rms(values: Sequence[float]) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def accuracy(wl: Workload, p: Pass) -> Dict[str, float]:
    """Residual and echo-width error of one pass's solutions."""
    done = [s for s in p.solves if s.failure is None]
    if not done:
        return {}
    refs = reference_curves(wl, p.mesh, p.spec, [s.angle for s in done])
    if wl.bistatic_span is None:  # one monostatic curve over the sweep
        rcs_err = rms([s.sigma_db[0] - ref[0] for s, ref in zip(done, refs)])
    else:  # RMS over right-hand sides of each bistatic curve's RMS
        rcs_err = rms([rms(s.sigma_db - ref) for s, ref in zip(done, refs)])
    return {"accuracy.residual": max(s.residual for s in done), "accuracy.rcs_rms_db": rcs_err}


# ---------------------------------------------------------------------------
# one run


def same_solutions(passes: Sequence[Pass]) -> bool:
    """Every pass returned bitwise the same solutions as the first."""
    first = passes[0].solves
    for p in passes[1:]:
        for a, b in zip(first, p.solves):
            if (a.x is None) != (b.x is None) or (a.x is not None and a.x.tobytes() != b.x.tobytes()):
                return False
    return True


def warm_up(wl: Workload, cal: Calibration) -> None:
    """One miniature pass, so imports and first-call costs stay untimed."""
    mini = miniature(wl)
    run_pass(mini, mini.angles(0)[:1], cal)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload; returns the result line and a detail record."""
    angles = wl.angles(seed)
    cal = Calibration()
    warm_up(wl, cal)
    cal.times.clear()
    start = time.perf_counter()
    checks: List[Dict[str, Any]] = []
    facts: Dict[str, Any] = {}

    def keep_stored(p: Pass) -> None:
        # the peak of one problem: later passes only add allocator slack
        facts.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        facts["stored_mb"] = hpss.memory_report(p.h).total_entries * hpss.hmatrix.BYTES_PER_ENTRY / 1e6

    tracer = Tracer(hooks()) if trace else None
    traced_layers: List[Dict[str, float]] = []

    def keep_layers(p: Pass) -> None:
        reports = [s.report for s in p.solves if s.failure is None]
        metrics, count_checks = layer_metrics(tracer.spans, p.h, reports, wl.solver)
        metrics["compression.sample_rel_err"] = sample_far_error(p.h, p.spec, np.random.default_rng([seed, 1]))
        traced_layers.append(metrics)
        for label, needs, passed, detail in count_checks:
            if not set(needs) & set(tracer.missing):
                checks.append({"check": label, "passed": passed, "detail": detail})
        facts["spans"] = [list(s) for s in tracer.spans]
        facts["span_summary"] = summarize(tracer.spans)

    plain = measure(wl, angles, start + (seconds / 2 if trace else seconds), cal, keep_stored)
    setups = [cal.seconds(t) for p in plain for t in [p.setup] + p.extra_setups]
    traced = measure(wl, angles, start + seconds, cal, keep_layers, tracer) if trace else []
    measured_s = time.perf_counter() - start

    passes = plain + traced
    solves = [s for p in passes for s in p.solves]
    failures = [{"angle": s.angle, "failure": s.failure} for s in solves if s.failure is not None]
    checks.append({"check": "passes return bitwise-identical solutions", "passed": same_solutions(passes), "detail": f"{len(passes)} passes"})

    acc = accuracy(wl, passes[-1])
    if wl.rcs_limit_db is not None and acc:
        checks.append(
            {
                "check": f"echo width within {wl.rcs_limit_db} dB of the {wl.reference} reference",
                "passed": acc["accuracy.rcs_rms_db"] <= wl.rcs_limit_db,
                "detail": f"{acc['accuracy.rcs_rms_db']:.6g} dB",
            }
        )

    solve_times = [cal.seconds(s.time) for p in plain for s in p.solves]
    if trace:
        units = per_layer_units()
        values: Dict[str, float] = {
            name: median([m[name] for m in traced_layers])
            for name in PER_LAYER
            if not set(PER_LAYER[name][1]) & set(tracer.missing)
        }
        values.update(acc)
        values["trace.setup_overhead_s"] = median([cal.seconds(p.setup) for p in traced]) - median(
            [cal.seconds(p.setup) for p in plain]
        )
        values["trace.solve_overhead_s"] = median([cal.seconds(s.time) for p in traced for s in p.solves]) - median(
            solve_times
        )
    else:
        units = END_TO_END
        values = {
            "setup_s": median(setups),
            "solve_s": median(solve_times),
            "time_to_solution_s": median([sum(cal.seconds(t) for t in p.parts) for p in plain]),
            "peak_rss_mb": facts["peak_rss_mb"],
            "stored_mb": facts["stored_mb"],
        }

    result = {
        "correct": not failures and all(c["passed"] for c in checks),
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "measured_s": measured_s,
        "angles_deg": [float(a) for a in angles],
        "passes": [
            {
                "traced": p in traced,
                "setup": cal.record(p.setup),
                "parts": [cal.record(t) for t in p.parts],
                "solves": [cal.record(s.time) for s in p.solves],
                "extra_setups": [cal.record(t) for t in p.extra_setups],
            }
            for p in passes
        ],
        "setup_s": setups,
        "calibration_s": cal.times,
        "reference_s": REFERENCE_S,
        "failed_ratio": len(failures) / len(solves),
        "failures": failures,
        "checks": checks,
        "accuracy": acc,
        "missing_hooks": tracer.missing if trace else [],
        "span_summary": facts.get("span_summary", {}),
        "spans": facts.get("spans", []),
    }
    return result, detail
