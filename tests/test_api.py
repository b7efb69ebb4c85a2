"""The public surface: the top-level names and the documented quick starts."""

import importlib
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import sylgmres

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "SylvesterOperator", "SolverConfig", "SolveReport", "WeightStrategy",
    "wglgmres", "wglgmres_dr", "harmonic_pairs", "collinearity_check",
    "FdmSpec", "fdm_matrix", "gen_rhs", "kron_solve",
    "read_matrix_market", "write_matrix_market",
}

MODULES = ["sylgmres"] + sorted(f"sylgmres.{info.name}"
                                for info in pkgutil.iter_modules(sylgmres.__path__))


def test_top_level_names_are_the_paper_level_api():
    assert sorted(sylgmres.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def _run(code, origin):
    namespace = {}
    exec(compile(code, origin, "exec"), namespace)
    report = namespace["report"]
    assert report.converged and report.true_resnorm <= 1e-6


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    _run(blocks[0], "README.md")


def test_package_docstring_quick_start_runs():
    doc = sylgmres.__doc__
    body = doc.split("Quick start::\n", 1)[1]
    lines = []
    for line in body.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    _run(textwrap.dedent("\n".join(lines)), "sylgmres/__init__.py")


def test_readme_building_blocks_resolve():
    # "* `sylgmres.<module>`: ..." bullets; every bare identifier in
    # backticks must exist on that module, so a removed name cannot stay
    # documented
    text = (ROOT / "README.md").read_text()
    bullets = re.findall(r"^\* `(sylgmres\.\w+)`: (.*?)(?=^\* |^$)", text, re.M | re.S)
    assert len(bullets) >= 6
    for module, body in bullets:
        mod = importlib.import_module(module)
        names = [n for n in re.findall(r"`([^`]+)`", body) if n.isidentifier()]
        assert names, module
        for name in names:
            assert hasattr(mod, name), f"README names {module}.{name}"
