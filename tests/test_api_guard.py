"""The README quickstart and the demos' imports keep working against the package, every public
function or class of the package has a caller outside the tests, so does every defaulted
parameter of a public function, and only util spells a float32 rounding constant."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Defaulted parameters that only tests pass, as (function, parameter). cli passes
# read_text_embeddings(normalize=) through the local name `read`, which the call audit cannot follow.
TEST_ONLY_PARAMS = {("read_text_embeddings", "normalize")}

PACKAGE = ROOT / "src" / "fdesearch"


def caller_trees():
    """Parsed modules that count as callers: the package (minus its re-exports), demos, perfbench, scripts."""
    callers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "perfbench", "scripts"):
        callers += [path for path in (ROOT / folder).rglob("*.py") if not path.name.startswith("test_")]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in callers]


def public_nodes():
    return [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


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
    loaded = set()
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [f"{module}: {node.name}" for module, node in public_nodes() if node.name not in loaded]
    assert not unused, f"public names with no caller outside the tests: {unused}"


def defaulted(fn: ast.FunctionDef) -> list:
    """(name, position or None for keyword-only) of each parameter of fn that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def call_arguments(tree) -> list:
    """(callee name, keyword or position or "*", forwarded parameter or None) of each argument of each call.

    An argument that is a bare defaulted parameter of the enclosing function forwards it: it sets
    the callee's parameter only if some call sets the forwarded one.
    """
    out = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = (node.name, {name for name, _ in defaulted(node)})
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr

            def source(value):
                forwards = scope and isinstance(value, ast.Name) and value.id in scope[1]
                return (scope[0], value.id) if forwards else None
            out.extend((callee, "*" if isinstance(a, ast.Starred) else i, source(a)) for i, a in enumerate(node.args))
            out.extend((callee, kw.arg, source(kw.value)) for kw in node.keywords if kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return out


def test_defaulted_parameters_have_a_non_test_caller():
    """A parameter with a default that no call outside the tests sets is a setting nobody uses."""
    trees = caller_trees()
    arguments = [arg for tree in trees for arg in call_arguments(tree)]
    params = {(fn.name, name, i) for tree in trees for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for name, i in defaulted(fn)}
    is_set = set()
    while True:  # a forwarded parameter is set once the parameter it forwards is
        new = {(fn, name) for fn, name, i in params if (fn, name) not in is_set and any(
            callee == fn and (slot == name or i is not None and slot in (i, "*")) and (src is None or src in is_set)
            for callee, slot, src in arguments)}
        if not new:
            break
        is_set |= new
    unset = [f"{module}: {node.name}({name}=)" for module, node in public_nodes() if isinstance(node, ast.FunctionDef)
             for name, _ in defaulted(node) if (node.name, name) not in is_set | TEST_ONLY_PARAMS]
    assert not unset, f"defaulted parameters that no caller outside the tests passes: {unset}"


# exponents of the float32 unit roundoff (2^-24), float64's (2^-53), float32's least normal (2^-126)
# and subnormal (2^-149), and 2^-120, a looser floor for float32 products that underflow
ROUNDING_EXPONENTS = {24, 53, 120, 126, 149}


def rounding_constants(tree) -> list:
    """Line numbers of each 2 ** -e (or 2.0 ** -e) with e a float32 or float64 rounding exponent."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
            and isinstance(node.right.operand, ast.Constant) and node.right.operand.value in ROUNDING_EXPONENTS]


def test_only_util_spells_a_float32_rounding_constant():
    """The float32 screens share util._screen_slack: a module deriving its own bound would spell one."""
    found = {path.name: rounding_constants(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("util.py"), "util no longer spells the screen's constants: update this guard"
    assert not {name: lines for name, lines in found.items() if lines}, "float32 rounding constants outside util"
