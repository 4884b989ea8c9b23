"""Public-surface guards: every exported name resolves, the test-only
reference forms stay out of the package, the package runs on numpy without
scipy, and the README's Quick start block runs as written."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import symjacobi
from symjacobi import basis, core, kernels, product, quadrature

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_DIR = Path(symjacobi.__file__).resolve().parent
# commands that must run without scipy, as argv of cli.main
NO_SCIPY_COMMANDS = (
    ["kernel", "--t", "1", "--level", "0"],
    ["verify", "--suite", "operators"],
    ["basis", "--level", "0"],
)

# finite-difference and sampled references, defined in tests/oracles.py only
ORACLE_NAMES = (
    "_CLAMP",
    "_central_diff",
    "_odd_part",
    "drift_coeff_full",
    "d_apply_pointwise",
    "delta_apply",
    "delta_star_apply",
    "lowering_compose",
    "sym_operator_apply",
    "defining_odd_phi",
    "drift_coeff",
    "jacobi_operator_apply",
    "jacobi_table",
    "_jacobi_rows",
    "_recurrence_coeffs",
    "reduce_symmetrized",
    "combine_symmetrized",
    "ball_comparable",
    "lemma_estimates_exact",
    "nested_samples",
    "_nested_samples",
    "nested_lemma_reports",
    "kernel_derivative",
)


def test_all_names_resolve():
    for module in (symjacobi, basis, core, kernels, product, quadrature):
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert missing == [], f"{module.__name__}.__all__ lists missing names {missing}"


def test_oracles_not_shipped():
    modules = [symjacobi] + [
        importlib.import_module(f"symjacobi.{info.name}")
        for info in pkgutil.iter_modules(symjacobi.__path__)
    ]
    assert len(modules) == 9
    shipped = [(m.__name__, n) for m in modules for n in ORACLE_NAMES if hasattr(m, n)]
    assert shipped == []


def test_no_module_imports_scipy():
    """scipy is a test and benchmark oracle only: no package module imports it."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_commands_leave_scipy_unloaded():
    """A fresh process imports the package and the CLI and runs a kernel
    table, the operators suite and a basis table without loading scipy."""
    code = (
        "import contextlib, io, sys\n"
        "import symjacobi, symjacobi.cli\n"
        f"for argv in {NO_SCIPY_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert symjacobi.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md (Quick start)", "exec"), namespace)
    # the block's own comment promises a roundtrip error of about 5e-13
    assert namespace["err"] < 1e-11
    assert np.isfinite(namespace["h"]) and namespace["h"] > 0.0
    assert np.isclose(namespace["m"], symjacobi.semigroup_mass(namespace["params"], 1.0))
