"""Rules on hipar's own source, checked on the syntax tree of every module
under src/hipar, on the names bench/tracing.py wraps in it, and on README's
account of the rule-file format."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hipar").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_the_modules_are_found():
    # an empty list would pass every rule below
    assert {p.name for p in MODULES} >= {"__init__.py", "pipeline.py", "enumeration.py"}


def test_no_private_name_is_imported_across_modules():
    # bench/tracing.py times hipar by wrapping the public bindings of its modules,
    # so a function another module imports under an underscore name runs untimed
    bad = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hipar"
            ):
                bad += [f"{path}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not bad, bad


def test_every_imported_name_is_used():
    # a stale import (say, of a function a rewrite stopped calling) fails here;
    # __init__.py re-exports its imports and is exempt
    bad = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not bad, bad


def test_no_function_takes_both_a_dataset_and_a_target_name():
    # a Dataset names its target (Dataset.target); a separate y or target
    # parameter could disagree with it. Private functions count too.
    bad = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            takes_dataset = any(
                p.annotation is not None
                and re.search(r"\bDataset\b", ast.unparse(p.annotation))
                for p in params
            )
            if takes_dataset and {p.arg for p in params} & {"y", "target"}:
                bad.append(f"{path}:{node.lineno}: {node.name}")
    assert not bad, bad


def test_only_the_data_module_builds_a_coded_column():
    # categorical cells are coded in one module, by data.code and the
    # CodedColumn methods; every other module takes a column as it is
    assert "data.py" in {p.name for p in MODULES}
    bad = []
    for path in MODULES:
        if path.name == "data.py":
            continue
        calls = (n for n in ast.walk(_tree(path)) if isinstance(n, ast.Call))
        bad += [f"{path}:{n.lineno}" for n in calls
                if ast.unparse(n.func).split(".")[-1] == "CodedColumn"]
    assert not bad, bad


def test_every_run_config_field_is_read():
    # a setting that no code reads is a config field nothing obeys: each field
    # of RunConfig must be read as an attribute outside RunConfig's own body
    fields, read = set(), set()
    for path in MODULES:
        tree = _tree(path)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                fields |= {n.target.id for n in node.body if isinstance(n, ast.AnnAssign)}
                inside |= {id(n) for n in ast.walk(node)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load) and id(n) not in inside}
    assert fields, "RunConfig not found"
    assert fields <= read, sorted(fields - read)


def test_every_function_the_tracer_wraps_exists():
    # bench/tracing.py names the functions it spans and counts as (layer,
    # function) pairs; one that hipar renames or drops would fail only when
    # the tracer is installed
    listed = {}
    for node in _tree(ROOT / "bench" / "tracing.py").body:
        name = ast.unparse(node.targets[0]) if isinstance(node, ast.Assign) else None
        if name in ("SPANNED", "COUNTED"):
            listed[name] = ast.literal_eval(node.value)
    assert set(listed) == {"SPANNED", "COUNTED"} and all(listed.values()), listed
    missing = [f"hipar.{layer}.{func}" for pairs in listed.values() for layer, func in pairs
               if not callable(getattr(importlib.import_module(f"hipar.{layer}"), func, None))]
    assert not missing, missing


def test_every_private_definition_is_referenced():
    # a private function, method or class that nothing in hipar names is dead
    # code: it is no API, so no caller outside the package may keep it alive
    defined, named = {}, set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    defined[node.name] = f"{path}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert defined, "no private definition found"
    dead = sorted(where for name, where in defined.items() if name not in named)
    assert not dead, dead


def test_the_readme_loader_paragraph_names_every_field_of_the_rule_file_table():
    # README's loader paragraph is written from pipeline.RULE_FILE_FIELDS, the one
    # statement of the format: a field the table gains must be described there
    fields = importlib.import_module("hipar.pipeline").RULE_FILE_FIELDS
    names = {row[0].rpartition(".")[2] for row in fields} - {"*"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("A rule file holds the whole `Predictor`")
    paragraph = readme[start:readme.index("\n\n", start)]
    missing = sorted(name for name in names if f"`{name}`" not in paragraph)
    assert len(names) > 20 and not missing, missing


def test_least_squares_has_one_call_site_the_ols_baseline():
    # every LASSO and OMP step is a grow, solve or drop of one Cholesky factor;
    # numpy's min-norm lstsq serves only the OLS branch of regression._fits, so
    # a second call site would be a per-method fallback growing back
    sites = []
    for path in MODULES:
        tree = _tree(path)
        parents = {id(child): node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("lstsq"):
                funcs, branches, up = [], [], node
                while id(up) in parents:  # up to the module: the enclosing defs and ifs
                    below, up = up, parents[id(up)]
                    if isinstance(up, ast.If) and below in up.body:
                        branches.append(ast.unparse(up.test))
                    elif isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        funcs.append(up.name)
                sites.append((path.name, funcs[:1], "method == OLS" in branches))
    assert sites == [("regression.py", ["_fits"], True)], sites
