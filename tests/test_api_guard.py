"""The README quickstart and the demos' imports keep working against the package, and every public
function or class of the package has a caller outside the tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names that only tests may call. generate_query_fde makes the Fde whose fingerprint
# mips_search checks against the index (test_mips_fingerprint_check); that guard has no simpler form.
TEST_ONLY_PUBLIC = {"generate_query_fde"}


def test_readme_quickstart_runs_without_runtime_warnings():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demo_imports_exist():
    checked = 0
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdesearch":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{demo.name}: {node.module} has no {alias.name}"
                    checked += 1
    assert checked > 0


def test_public_functions_have_a_non_test_caller():
    package = ROOT / "src" / "fdesearch"
    public = [(path.name, node.name) for path in sorted(package.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    callers = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "perfbench", "scripts"):
        callers += [path for path in (ROOT / folder).rglob("*.py") if not path.name.startswith("test_")]
    loaded = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [f"{module}: {name}" for module, name in public if name not in loaded | TEST_ONLY_PUBLIC]
    assert not unused, f"public names with no caller outside the tests: {unused}"
