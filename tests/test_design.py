"""Design checks over the package source."""

import ast
import importlib
from pathlib import Path

import biphoton

_SOURCES = sorted(Path(biphoton.__file__).parent.glob("*.py"))
_ADAPTER = Path(__file__).resolve().parents[1] / "bench" / "adapter.py"


def _defined(tree: ast.Module) -> list[str]:
    """Names a module binds at its top level with def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_private_module_name_is_referenced():
    # a module-level private function or constant that nothing in the
    # package reads is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in _SOURCES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [
        f"{module}:{name}" for module, tree in trees.items() for name in _defined(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert len(_SOURCES) > 1
    assert unreferenced == []


def test_every_public_name_is_used_by_the_program():
    # a public name that only tests call is API kept alive for them: the
    # package or the benchmark adapter must load or import it somewhere
    # other than its own definition (its __all__ entry is a string)
    used = set()
    for path in (*_SOURCES, _ADAPTER):
        for top in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.name for node in ast.walk(top) if isinstance(node, ast.alias)}
            used |= names - set(_defined(ast.Module(body=[top], type_ignores=[])))
    assert _ADAPTER.is_file()
    assert sorted(set(biphoton.__all__) - used) == []


def test_unsupported_setting_is_raised_only_beside_setting():
    # which measurement a source kind has is one rule, stated in
    # polarization.py next to Setting; other modules call it
    raised = set()
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "UnsupportedSetting":
                    raised.add(path.name)
    assert raised == {"polarization.py"}


def test_each_public_name_is_declared_in_one_module_all():
    # a public name is written once, in the __all__ of the module that
    # defines it; the package re-exports the library modules' lists
    owners: dict[str, list[str]] = {}
    for path in _SOURCES:
        if path.stem == "__init__":
            continue
        exported = importlib.import_module(f"biphoton.{path.stem}").__all__
        assert set(exported) <= set(_defined(ast.parse(path.read_text()))), path.name
        for name in exported:
            owners.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    library = {name for name, (mod,) in owners.items() if mod != "cli"}
    assert len(biphoton.__all__) == len(set(biphoton.__all__)) == 45
    assert set(biphoton.__all__) == {"__version__", *library}
    assert biphoton.OracleSetting is biphoton.Setting


def test_each_result_holds_only_what_its_call_computed():
    # a field that repeats an argument of the call (the method, the H+
    # model, the objective or x_max the caller passed) says nothing new;
    # TomographyVector keeps its method and H+ model: the benchmark
    # adapter builds one itself
    fields = {cls.__name__: list(cls._fields) for cls in (
        biphoton.RateEntry, biphoton.VisibilityResult, biphoton.CarResult, biphoton.MuOptimum,
        biphoton.EnumeratedRate, biphoton.McEstimate, biphoton.TomographyVector)}
    assert fields == {
        "RateEntry": ["value", "setting", "truncation_used"],
        "VisibilityResult": ["visibility", "contrast"],
        "CarResult": ["matched_rate", "unmatched_rate", "car"],
        "MuOptimum": ["mu", "value", "unimodal"],
        "EnumeratedRate": ["value", "tail_bound"],
        "McEstimate": ["mean", "std_error", "trials", "seed"],
        "TomographyVector": ["r", "method", "hplus_model"],
    }


def test_validate_is_one_call_of_the_harness_beside_its_rules():
    # `biphoton validate` calls one function of oracle.py, which holds the
    # grid, the policy, the tolerance and the z rule next to the loop that
    # applies them; cli.py imports nothing else from .oracle, and no rate
    trees = {path.name: ast.parse(path.read_text()) for path in _SOURCES}
    imports = [node for node in ast.walk(trees["cli.py"]) if isinstance(node, ast.ImportFrom)]
    from_oracle = [alias.name for node in imports if node.level == 1 and node.module == "oracle"
                   for alias in node.names]
    assert from_oracle == ["_validate"]
    assert "coincidence_rate" not in {alias.name for node in imports for alias in node.names}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name
            elif isinstance(node, ast.Attribute):
                yield node.attr

    readers = {module for module, tree in trees.items() if any(
        name.startswith("_VALIDATE") or name in ("_MC_Z_LIMIT", "_mc_z") for name in names(tree))}
    assert readers == {"oracle.py"}
