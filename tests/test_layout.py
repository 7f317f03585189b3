"""The library holds what imsk runs: every module-level function and class
in src/imsk is referenced by src/ or bench/ code outside its own
definition, and no two modules define the same module-level name, so a
reference by name finds the one definition. Code that only tests run
belongs in tests/. Every random number flows from `util.make_rng`."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "imsk"

# library API that reads back what imsk writes; imsk itself never calls it
READ_BACK = {"read_transcript", "read_segments", "rescore"}

# attributes read off these modules name their functions, not imsk's
FOREIGN = {"np", "math"}


def _is_module(path: Path, node: ast.ImportFrom, name: str) -> bool:
    """Whether `from ... import name` in `path` imports an imsk module."""
    if node.level:
        base = path.parents[node.level - 1]
    elif node.module.split(".")[0] == "imsk":
        base = SRC.parent
    else:
        return False
    target = base.joinpath(*(node.module or "").split("."), name)
    return target.with_suffix(".py").is_file() or (target / "__init__.py").is_file()


def _references(path: Path, tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name, imported name, and attribute read off an
    imported module other than a FOREIGN one, in `tree`. An attribute read
    off anything else, such as an array's `.transpose`, is not a reference
    to an imsk function of that name."""
    refs, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.append((node.lineno, alias.name.rsplit(".", 1)[-1]))
                if isinstance(node, ast.Import):
                    modules.add(alias.asname or alias.name.split(".")[0])
                elif _is_module(path, node, alias.name):
                    modules.add(alias.asname or alias.name)
    modules -= FOREIGN
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                refs.append((node.lineno, node.attr))
    return refs


def unreferenced() -> list[str]:
    """'module.name' of each module-level function or class of src/imsk
    that no src/ or bench/ code outside its own definition refers to."""
    paths = [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}
    refs = {p: _references(p, tree) for p, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in READ_BACK:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (p == path and line in own)
                for p, found in refs.items()
                for line, name in found
            ):
                out.append(".".join([*path.relative_to(SRC).with_suffix("").parts, node.name]))
    return out


def test_every_definition_in_src_is_used_by_imsk():
    assert unreferenced() == []


def defined_twice() -> dict[str, list[str]]:
    """Each module-level name (function, class or assigned variable, but
    no dunder) that two or more modules of src/imsk define, with those
    modules."""
    where = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        names = set()
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for name in names:
            if not name.startswith("__"):
                where[name].append(str(path.relative_to(SRC)))
    return {name: mods for name, mods in where.items() if len(mods) > 1}


def test_no_two_modules_define_one_name():
    assert defined_twice() == {}


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def random_sources() -> list[str]:
    """'module:line' of each place in src/imsk outside `util.make_rng` that
    calls into numpy.random (making a generator or drawing a number) or
    imports numpy.random or the standard `random` module. A seeded model
    draws from the generator handed to it, so one seed fixes every number."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        if module == "util":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "make_rng":
                    allowed = set(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                found = _dotted(node.func).startswith(("np.random.", "numpy.random."))
            elif isinstance(node, ast.Import):
                found = any(a.name in ("random", "numpy.random") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = node.module in ("random", "numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)
                )
            else:
                continue
            if found and node.lineno not in allowed:
                out.append(f"{module}:{node.lineno}")
    return out


def test_random_numbers_flow_from_make_rng_only():
    assert random_sources() == []
