"""The full product's two halves: the near product on the module's worker
thread beside the far product on the caller, or both on the caller when
the process may run on one CPU.  Every test runs on both paths, choosing
one by the CPU count ``hmatrix`` sees."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hpss import KernelSpec, assemble, build_cluster_tree, discretize_disk, discretize_strip, gmres, hmatrix
from conftest import halved_strip


@pytest.fixture(params=[2, 1], ids=["worker", "one-cpu"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(hmatrix, "_usable_cpus", lambda: request.param)
    return request.param


def operator(name, strip_system):
    """strip and disk: reciprocal kernels, 1-D and 2-D trees; halved-strip:
    a kernel that is not reciprocal; kept: an operator from ``keep_levels``."""
    if name == "strip":
        return strip_system["h"]
    if name == "halved-strip":
        mesh, leaf = halved_strip(7), 32
    elif name == "disk":
        mesh, leaf = discretize_disk(0.3, 16, 2.0), 8
    else:
        mesh, leaf = discretize_strip(25.6, 10), 8
    h = assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, leaf), tol=1e-3)
    return h.keep_levels(h.depth - 1) if name == "kept" else h


def vector(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("name", ["strip", "disk", "halved-strip", "kept"])
def test_matvec_is_bitwise_the_serial_sum(cpus, name, strip_system):
    h = operator(name, strip_system)
    assert h.far.width > 0
    x = vector(h.n)
    want = h.near_matvec(x) + h.far.apply(x)
    for _ in range(3):
        assert h.matvec(x).tobytes() == want.tobytes()


def test_one_operator_serves_products_from_several_threads_at_once(cpus):
    """A product writes only arrays of its own, so threads sharing an
    operator, more of them than the cores, each get the result a single
    thread gets, bit for bit."""
    mesh = discretize_strip(51.2, 10)
    h = assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 32), tol=1e-3)
    xs = [vector(h.n, seed) for seed in range(3)]

    def products(x):
        # a solve that a wrong product stalls stops at maxit, not at 2000
        return h.near_matvec(x), h.matvec(x), gmres(h.matvec, x, maxit=200)[0]

    want = [[y.tobytes() for y in products(x)] for x in xs]

    def wrong(i):
        return sum(y.tobytes() != w for _ in range(6) for y, w in zip(products(xs[i]), want[i]))

    # switching threads more often makes an overlap of two products likelier
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(xs)) as pool:
            assert list(pool.map(wrong, range(len(xs)), timeout=120)) == [0] * len(xs)
    finally:
        sys.setswitchinterval(interval)


def test_the_near_half_runs_on_the_worker_only_when_two_cpus_are_usable(cpus, monkeypatch, strip_system):
    h = strip_system["h"]
    threads = []
    near_matvec = hmatrix.HMatrix.near_matvec

    def recorded(self, x):
        threads.append(threading.current_thread())
        return near_matvec(self, x)

    monkeypatch.setattr(hmatrix.HMatrix, "near_matvec", recorded)
    h.matvec(vector(h.n))
    assert (threads[0] is threading.current_thread()) == (cpus == 1)


def test_a_failing_near_product_raises_in_the_caller(cpus, monkeypatch, strip_system):
    h = strip_system["h"]
    x = vector(h.n)
    want = h.near_matvec(x) + h.far.apply(x)

    def failing(self, x):
        raise FloatingPointError("near product failed")

    with monkeypatch.context() as patch:
        patch.setattr(hmatrix.HMatrix, "near_matvec", failing)
        with pytest.raises(FloatingPointError, match="near product failed"):
            h.matvec(x)
    assert h.matvec(x).tobytes() == want.tobytes()


def test_a_failing_far_product_waits_for_the_near_product(cpus, monkeypatch, strip_system):
    h = strip_system["h"]
    x = vector(h.n)
    want = h.near_matvec(x) + h.far.apply(x)
    done = threading.Event()
    near_matvec = hmatrix.HMatrix.near_matvec

    def slow(self, x):
        time.sleep(0.05)
        y = near_matvec(self, x)
        done.set()
        return y

    def failing(self, x):
        raise FloatingPointError("far product failed")

    with monkeypatch.context() as patch:
        patch.setattr(hmatrix.HMatrix, "near_matvec", slow)
        patch.setattr(hmatrix.FarFactors, "apply", failing)
        with pytest.raises(FloatingPointError, match="far product failed"):
            h.matvec(x)
        # on the one-cpu path the near half ran first; on the worker path
        # the caller waited for it before raising
        assert done.is_set()
    assert h.matvec(x).tobytes() == want.tobytes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_a_forked_child_runs_a_product_after_its_parent(cpus, strip_system):
    h = strip_system["h"]
    x = vector(h.n)
    want = h.matvec(x)  # on the worker path, the parent's worker now exists

    def child():
        raise SystemExit(0 if h.matvec(x).tobytes() == want.tobytes() else 1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=20)
    if process.is_alive():
        process.kill()
        process.join()
        pytest.fail("the forked child's product did not finish")
    assert process.exitcode == 0


def test_an_operator_without_far_blocks_never_starts_the_worker(cpus, monkeypatch):
    monkeypatch.setattr(hmatrix, "_near_worker", None)
    mesh = discretize_strip(1.0, 10)
    h = assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 16), tol=1e-3)
    assert h.depth == 0 and h.far.width == 0
    x = vector(h.n)
    assert h.matvec(x).tobytes() == h.near_matvec(x).tobytes()
    assert hmatrix._near_worker is None
