"""What importing the package loads, and that a workflow loads nothing more.

``pde`` takes LAPACK's ``dgttrf`` and ``dgttrs`` from scipy's compiled
wrapper module without running ``scipy.linalg``'s package import, whose
array-API layer imports most of numpy's namespace.  These tests pin that
import graph, check that the routines are the very objects
``scipy.linalg.lapack`` exports (which keeps every solve bitwise), and check
that ``solve`` and ``simulate`` import no module while they run, so no
import lands inside a timed workflow.
"""

import importlib.machinery
import json
import subprocess
import sys
import textwrap

from creditfolio import pde


def run_python(code: str, *args) -> str:
    """stdout of ``code`` run in a fresh interpreter; fails on a non-zero exit."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_scipy_linalg_out():
    loaded = json.loads(run_python("""
        import json, sys
        import creditfolio.cli
        print(json.dumps(sorted(sys.modules)))
    """))
    for module in ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing"):
        assert module not in loaded, module
    assert "numpy.random" in loaded   # sim imports it, so no draw imports it mid-run


def test_lapack_routines_are_the_public_objects():
    same = json.loads(run_python("""
        import json, sys
        from creditfolio import pde
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg.lapack as lapack
        print(json.dumps([pde.dgttrf is lapack.dgttrf, pde.dgttrs is lapack.dgttrs]))
    """))
    assert same == [True, True]


def test_loader_falls_back_to_the_public_routines(monkeypatch):
    import scipy.linalg.lapack as lapack

    monkeypatch.delitem(sys.modules, "scipy.linalg")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    dgttrf, dgttrs = pde._lapack_tridiagonal()
    assert dgttrf is lapack.dgttrf and dgttrs is lapack.dgttrs


def test_solve_and_simulate_import_nothing(tmp_path):
    added = json.loads(run_python("""
        import json, sys
        import creditfolio.cli as cli
        before = set(sys.modules)
        out = sys.argv[1]
        rc = [cli.main(["solve", "--preset", "benchmark_s5", "--ny", "21", "--nt", "20",
                        "--out", out + "/solve"]),
              cli.main(["simulate", "--preset", "benchmark_s5", "--ny", "21", "--nt", "20",
                        "--solution", out + "/solve", "--paths", "200", "--steps", "10",
                        "--out", out + "/mc"])]
        print(json.dumps({"rc": rc, "added": sorted(set(sys.modules) - before)}))
    """, str(tmp_path)).splitlines()[-1])
    assert added["rc"][0] == 0 and added["rc"][1] in (0, 4)
    assert added["added"] == []
