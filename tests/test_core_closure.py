"""The validation core is closed: walking the static imports of
``pipelines/validate.py`` and ``__main__.py`` — function-level imports
and the packages each import runs included — reaches exactly the
modules below. The query-side operators (``stages.agg``,
``stages.window`` and the other shuffle stages) are not among them, so
a query helper that slips back into a core module fails here. No Ray,
no imports are executed."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "fs_schema_validator_ray"

CORE = {
    "",
    "__main__",
    "audio",
    "dsl",
    "functions",
    "functions.assets",
    "functions.constraints",
    "functions.flac",
    "functions.json_payload",
    "pipelines",
    "pipelines.stats",
    "pipelines.validate",
    "report",
    "rules",
    "sinks",
    "stages",
    "stages.assets",
    "stages.combined",
    "stages.decode",
    "stages.exchange",
    "stages.referential",
    "stages.scalar",
    "stages.unique",
    "state",
    "state.sketches",
}


def _path(module: str) -> str | None:
    base = os.path.join(ROOT, *module.split("."))
    if os.path.isdir(base):
        return os.path.join(base, "__init__.py")
    return base + ".py" if os.path.exists(base + ".py") else None


def _imports(module: str) -> set[str]:
    """Package modules ``module`` imports anywhere in its source, plus
    the packages that contain it (importing a module runs them)."""
    path = _path(module)
    package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
    parts = module.split(".")
    found = {".".join(parts[:i]) for i in range(1, len(parts))}
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                up = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(up + ([base] if base else []))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found |= {n for n in names if n.split(".")[0] == PKG and _path(n)}
    return found


def _closure(roots: list[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_imports(module) - seen)
    return seen


def test_validation_core_imports_only_core_modules():
    closure = _closure([f"{PKG}.pipelines.validate", f"{PKG}.__main__"])
    got = {m[len(PKG) + 1:] for m in closure}
    assert got == CORE
    assert "stages.agg" not in got and "stages.window" not in got
