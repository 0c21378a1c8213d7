"""Repository-level hygiene: public surface, examples, docs, imports."""

import ast
import pathlib
import py_compile

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_version():
    assert repro.__version__


def test_all_subpackages_importable():
    for name in repro.__all__:
        if name != "__version__":
            assert getattr(repro, name) is not None


@pytest.mark.parametrize("example",
                         sorted((ROOT / "examples").glob("*.py")),
                         ids=lambda p: p.name)
def test_examples_compile(example):
    py_compile.compile(str(example), doraise=True)


@pytest.mark.parametrize("bench",
                         sorted((ROOT / "benchmarks").glob(
                             "bench_*.py")),
                         ids=lambda p: p.name)
def test_benchmarks_compile(bench):
    py_compile.compile(str(bench), doraise=True)


def test_docs_exist_and_mention_key_things():
    readme = (ROOT / "README.md").read_text()
    design = (ROOT / "DESIGN.md").read_text()
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    assert "NightVision" in readme
    assert "Takeaway 1" in readme
    assert "Substitution table" in design or "substitution" in design
    for artefact in ("Figure 2", "Figure 4", "Figure 10",
                     "Figure 12", "Figure 13"):
        assert artefact in experiments


def test_every_public_module_has_docstring():
    import importlib
    import pkgutil

    missing = []
    for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."):
        if module_info.name.endswith("__main__"):
            continue          # importing it would run the CLI
        module = importlib.import_module(module_info.name)
        if not (module.__doc__ or "").strip():
            missing.append(module_info.name)
    assert not missing, f"modules without docstrings: {missing}"


def _annotation_names(node):
    """Names in an annotation, string forward references included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _annotation_names(
                    ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and \
                node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Subscript):
            used.update(_annotation_names(node.slice))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant))
    return used


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        for name in bound:
            if name not in used:
                yield node.lineno, name


def test_no_unused_imports():
    """Every imported name is referenced in its module; ``__init__``
    files re-export, so they are exempt."""
    unused = []
    for top in ("src/repro", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for line, name in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
