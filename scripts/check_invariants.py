#!/usr/bin/env python
"""Static invariant checks over ``src/repro`` — tier-1 CI gate.

Four repo-wide conventions are load-bearing enough to enforce
mechanically rather than by review:

**Percentile invariant.**  Latency percentiles are nearest-rank, never
interpolated, and every consumer must go through a sanctioned kernel —
``repro.sim.metrics.percentile`` (the shared metric kernel), the
P²-estimator's small-sample fallback in ``repro.monitoring.streaming``,
and the reissue kernel's own-window threshold in
``repro.baselines.routing`` (the one site adaptive kernels also feed
from).  A raw ``np.percentile`` anywhere else silently reintroduces
linear interpolation and breaks the golden pins; exactly one raw call
is allowed per sanctioned file.

**Seeding invariant.**  All randomness flows from named
``repro.rng.RngRegistry`` streams so every run is reproducible from the
root seed.  Unseeded generators (``np.random.default_rng()`` with no
argument), the global legacy API (``np.random.seed``,
``np.random.<dist>(...)``), wall-clock seeding (``time.time()`` mixed
into seeds) and ``random.random``-style stdlib draws are all banned in
library code.

**No unread imports.**  Every name a module outside ``__init__.py``
imports is read somewhere in it: loaded, used as the root of an
attribute, listed in ``__all__`` or named inside a string annotation.
Docstrings and comments are not reads.  An import line marked
``# noqa: F401`` is exempt (a name other modules read as an attribute).

**Lazy packages.**  No package ``__init__.py`` imports its own
package's submodules at module level: a package maps each public name
to its submodule and loads it on first access, so a command loads only
the layers it runs.  ``repro.scenarios`` is the one exception: importing
it registers the built-in scenarios.

Violations print ``path:line: message`` and exit 1, so the CI log
points straight at the offending statement.  Run from the repo root::

    python scripts/check_invariants.py

An alternative source root can be passed as the sole argument (the
self-test exercises the checker against synthetic trees that way).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Files allowed exactly one raw ``np.percentile`` call each.
PERCENTILE_SANCTIONED = {
    "sim/metrics.py": 1,        # the shared nearest-rank kernel
    "monitoring/streaming.py": 1,  # P2Quantile's <=5-observation fallback
    "baselines/routing.py": 1,  # ReissueKernel's own-window threshold
}

PERCENTILE_CALL = re.compile(r"\bnp\.percentile\s*\(")

#: Package ``__init__`` files allowed to import their own submodules.
EAGER_PACKAGES = {
    "scenarios/__init__.py",  # importing spec and builtin registers them
}

#: (pattern, message) pairs banned everywhere under src/repro.
SEEDING_BANS = [
    (
        re.compile(r"\bnp\.random\.default_rng\s*\(\s*\)"),
        "unseeded np.random.default_rng() — draw from a named "
        "RngRegistry stream instead",
    ),
    (
        re.compile(r"\bnp\.random\.seed\s*\("),
        "np.random.seed mutates global state — use RngRegistry",
    ),
    (
        re.compile(r"\bRandomState\s*\("),
        "legacy np.random.RandomState — use RngRegistry streams",
    ),
    (
        re.compile(
            r"\bnp\.random\.(rand|randn|randint|random|choice|shuffle|"
            r"permutation|uniform|normal|exponential|poisson)\s*\("
        ),
        "global legacy np.random API — use RngRegistry streams",
    ),
    (
        re.compile(r"\bimport\s+random\b|\bfrom\s+random\s+import\b"),
        "stdlib random module — use RngRegistry streams",
    ),
    (
        re.compile(r"seed\s*=\s*(int\s*\(\s*)?time\.(time|time_ns)\s*\("),
        "wall-clock seeding breaks reproducibility — seeds come from "
        "the config",
    ),
]


def iter_source_files(src_root: Path) -> list[Path]:
    if not src_root.is_dir():
        print(f"{src_root}: source tree not found", file=sys.stderr)
        sys.exit(2)
    return sorted(src_root.rglob("*.py"))


def strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment (good enough: the conventions
    never put banned calls inside string literals on purpose, and a
    false positive fails loudly rather than silently)."""
    return line.split("#", 1)[0]


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names inside an annotation, parsing any string parts of it."""
    names: set[str] = set()
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unread_imports(path: Path) -> list[str]:
    """``path:line`` for each imported name the module never reads."""
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _annotation_names(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            read |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return [
        f"{path}:{lineno}: {name!r} is imported and never read"
        for name, lineno in imported.items()
        if name not in read
    ]


def eager_package_imports(path: Path, src_root: Path) -> list[str]:
    """``path:line`` for each module-level import of the package's own
    submodules in a package ``__init__.py``."""
    rel = path.relative_to(src_root).as_posix()
    if path.name != "__init__.py" or rel in EAGER_PACKAGES:
        return []
    package = ".".join(["repro", *path.relative_to(src_root).parent.parts])
    tree = ast.parse(path.read_text(), filename=str(path))
    body, found = list(tree.body), []
    while body:
        node = body.pop()
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            # ``from pkg import name`` loads a submodule whether ``name``
            # is one or a lazily exported attribute.
            modules = [base]
        else:
            # Compound statements and class bodies run at import time;
            # function bodies do not.
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body.extend(
                    child for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.stmt)
                )
            continue
        if any(m == package or m.startswith(package + ".") for m in modules):
            found.append(node.lineno)
    return [
        f"{path}:{lineno}: {package} imports its own submodules at module "
        f"level — name them in the package's lazy export table instead"
        for lineno in sorted(found)
    ]


def check_file(path: Path, src_root: Path) -> list[str]:
    rel = path.relative_to(src_root).as_posix()
    violations: list[str] = []
    percentile_lines: list[int] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comment(raw)
        if PERCENTILE_CALL.search(line):
            percentile_lines.append(lineno)
        for pattern, message in SEEDING_BANS:
            if pattern.search(line):
                violations.append(f"{path}:{lineno}: {message}")
    allowed = PERCENTILE_SANCTIONED.get(rel, 0)
    if len(percentile_lines) > allowed:
        for lineno in percentile_lines[allowed:] if allowed else percentile_lines:
            violations.append(
                f"{path}:{lineno}: raw np.percentile outside the "
                f"sanctioned sites — go through repro.sim.metrics."
                f"percentile (nearest-rank) instead"
            )
    return (
        violations
        + unread_imports(path)
        + eager_package_imports(path, src_root)
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src_root = Path(args[0]).resolve() if args else DEFAULT_SRC_ROOT
    enforce_sanctioned = src_root == DEFAULT_SRC_ROOT
    violations: list[str] = []
    missing = []
    seen_raw: dict[str, int] = {}
    files = iter_source_files(src_root)
    for path in files:
        violations.extend(check_file(path, src_root))
        rel = path.relative_to(src_root).as_posix()
        if rel in PERCENTILE_SANCTIONED:
            n = sum(
                1
                for raw in path.read_text().splitlines()
                if PERCENTILE_CALL.search(strip_comment(raw))
            )
            seen_raw[rel] = n
    # The sanctioned sites must still exist: if one disappears (the
    # kernel moved), the allowlist is stale and must be updated here.
    # Only enforced against the real tree — synthetic self-test trees
    # have no business containing the kernels.
    if enforce_sanctioned:
        for rel, expected in PERCENTILE_SANCTIONED.items():
            if seen_raw.get(rel, 0) != expected:
                missing.append(
                    f"{src_root / rel}: expected exactly {expected} "
                    f"sanctioned raw np.percentile call(s), found "
                    f"{seen_raw.get(rel, 0)} — update PERCENTILE_SANCTIONED "
                    f"in scripts/check_invariants.py if the kernel moved"
                )
    problems = violations + missing
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(
            f"\ncheck_invariants: {len(problems)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"check_invariants: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
