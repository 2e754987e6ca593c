import importlib.machinery
import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter


def _build_compiled_kernel():
    """Compile the shipped ``_dl_core.cpp`` for this test session, if need be.

    The extension is built into a temporary directory and registered as
    ``mpfjss._dl_core`` before ``mpfjss`` is first imported, so that the
    tests parametrized over ``AVAILABLE_BACKENDS`` run on both kernels and
    the compiled one is the default, as in an installed package.  Nothing is
    written next to the sources.  Without ``g++`` or the Python headers the
    tests run on the pure kernel alone; when they are present, a failed build
    or load stops the session, so a broken kernel cannot pass unnoticed.
    """
    spec = importlib.util.find_spec("mpfjss")
    if spec is None or not spec.submodule_search_locations:
        return
    pkg = pathlib.Path(next(iter(spec.submodule_search_locations)))
    if any((pkg / f"_dl_core{suffix}").exists()
           for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        return  # already built
    source = pkg / "_dl_core.cpp"
    cxx = shutil.which("g++")
    include = pathlib.Path(sysconfig.get_paths()["include"])
    if cxx is None or not source.exists() or not (include / "Python.h").exists():
        return
    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp) / f"_dl_core{sysconfig.get_config_var('EXT_SUFFIX')}"
        build = subprocess.run([cxx, "-O2", "-shared", "-fPIC", f"-I{include}",
                                str(source), "-o", str(target)],
                               capture_output=True, text=True)
        if build.returncode != 0:
            raise RuntimeError(f"compiling {source} failed:\n{build.stderr}")
        ext = importlib.util.spec_from_file_location("mpfjss._dl_core", target)
        module = importlib.util.module_from_spec(ext)
        ext.loader.exec_module(module)
    sys.modules["mpfjss._dl_core"] = module


_build_compiled_kernel()

import pytest  # noqa: E402

from mpfjss.model import load_instance, parse_instance  # noqa: E402
from mpfjss.solver import _Search  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"


class _EveryInstance(_Search):
    """The search without symmetry breaking, as the tests' reference.

    Every instance forms a group of its own, so every capable instance
    competes for a slot, and a kept task keeps its own.
    """

    def _build_groups(self, fixed=frozenset()):
        return super()._build_groups({r.key for r in self.inst.resources})


class _LoadOrder(_Search):
    """The search that tries a slot's instances least loaded first, then by index.

    The search did so before it counted each instance's clashes with the
    task; the older step columns of the trajectory pins were taken with it.
    """

    def _candidates(self, slot):
        load, cls = self.load, slot[1]
        return sorted(super()._candidates(slot), key=lambda i: (load[(cls, i)], i))


@pytest.fixture
def example_instance():
    """The small three-job shop instance used throughout the tests."""
    return load_instance(DATA / "example.lp")


def random_tiny_instance(rng, *, twin_workers=False):
    """A random instance small enough for the exhaustive oracle.

    Two or three jobs over at most four operation types, two workers, one
    machine that covers whatever demands it; every operation keeps at least
    one capable worker so the instance is always solvable.

    With ``twin_workers``, half of the draws give both workers every
    operation, so that the two are interchangeable, which otherwise rarely
    happens; those draws give each job at most two operations, as twice the
    allocations would otherwise put nine tasks out of the oracle's reach.
    Without it, ``rng`` draws exactly what it always drew.
    """
    names = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    dur = {o: rng.randint(1, 3) for o in names}
    m_need = {o for o in names if rng.random() < 0.4}
    twins = twin_workers and rng.random() < 0.5
    lines = [f"op({o},{dur[o]})." for o in names]
    for o in names:
        lines.append(f"needs({o},w).")
        if o in m_need:
            lines.append(f"needs({o},m).")
    for o in names:
        workers = rng.sample([1, 2], rng.randint(1, 2))
        for i in [1, 2] if twins else workers:
            lines.append(f"res(w,{i},{o}).")
    for o in sorted(m_need):
        lines.append(f"res(m,1,{o}).")
    for nj in range(1, rng.randint(2, 3) + 1):
        job = f"j{nj}"
        ops = sorted(rng.sample(names, rng.randint(1, min(2 if twins else 3, len(names)))))
        lines.append(f"job({job},{rng.randint(0, 6)}).")
        for o in ops:
            lines.append(f"recipe({job},{o}).")
        for i in range(len(ops)):
            for k in range(i + 1, len(ops)):
                if rng.random() < 0.35:
                    lines.append(f"prec({job},{ops[i]},{ops[k]}).")
    return parse_instance("\n".join(lines))


def interchangeable(inst):
    """Do two instances of one class have the same capabilities?"""
    groups = Counter((r.cls, frozenset(r.capabilities)) for r in inst.resources)
    return max(groups.values()) >= 2


@pytest.fixture
def tiny_factory():
    return random_tiny_instance
