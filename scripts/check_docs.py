#!/usr/bin/env python
"""Documentation gate for CI: link integrity + public-API docstrings.

Two checks, both fatal on failure:

1. **Intra-repo markdown links** — every relative link target in the
   repository's markdown files (README.md, docs/, CHANGES.md, ...) must
   exist on disk.  External (``http``/``https``/``mailto``) links and pure
   anchors are ignored; ``path#anchor`` links are checked for the path part.
2. **Public API docstrings** — every public module, class, function, method
   and property reachable from the ``repro.engine``, ``repro.planner``,
   ``repro.shard``, ``repro.stream``, ``repro.obs``, ``repro.durable``,
   ``repro.kernels``, ``repro.algebra``, ``repro.locality``,
   ``repro.index``, ``repro.operators`` and ``repro.storage`` packages (the
   surface this repo documents in ``docs/``) must carry a docstring.

Run from the repository root (CI does)::

    python scripts/check_docs.py
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Packages whose public surface must be fully docstring-covered.
DOCUMENTED_PACKAGES = (
    "repro.engine",
    "repro.planner",
    "repro.shard",
    "repro.stream",
    "repro.obs",
    "repro.durable",
    "repro.kernels",
    "repro.algebra",
    "repro.locality",
    "repro.index",
    "repro.operators",
    "repro.storage",
)

#: Markdown files/directories scanned for intra-repo links.
MARKDOWN_ROOTS = ("README.md", "CHANGES.md", "ROADMAP.md", "docs")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_markdown_files() -> list[Path]:
    """Markdown files covered by the link check."""
    files: list[Path] = []
    for root in MARKDOWN_ROOTS:
        path = REPO_ROOT / root
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
    return files


def check_links() -> list[str]:
    """Return one error per broken intra-repo markdown link."""
    errors: list[str] = []
    for md_file in iter_markdown_files():
        text = md_file.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                rel = md_file.relative_to(REPO_ROOT)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _iter_modules(package_name: str):
    """Import a package and every submodule inside it."""
    import importlib
    import pkgutil

    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(package.__path__, prefix=f"{package_name}."):
        yield importlib.import_module(info.name)


def _missing_in_class(cls: type, module_name: str) -> list[str]:
    missing: list[str] = []
    for attr_name, attr in vars(cls).items():
        if not _is_public(attr_name):
            continue
        target = attr
        if isinstance(attr, property):
            target = attr.fget
        elif isinstance(attr, (staticmethod, classmethod)):
            target = attr.__func__
        elif not (inspect.isfunction(attr) or inspect.ismethod(attr)):
            continue  # plain class attributes need no docstring
        if target is not None and not inspect.getdoc(target):
            missing.append(f"{module_name}.{cls.__name__}.{attr_name}")
    return missing


def check_docstrings() -> list[str]:
    """Return one error per public engine/shard API member without a docstring."""
    errors: list[str] = []
    for package_name in DOCUMENTED_PACKAGES:
        for module in _iter_modules(package_name):
            if not module.__doc__:
                errors.append(f"{module.__name__}: missing module docstring")
            exported = getattr(module, "__all__", None)
            names = (
                exported
                if exported is not None
                else [n for n in vars(module) if _is_public(n)]
            )
            for name in names:
                obj = getattr(module, name, None)
                if obj is None or inspect.ismodule(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented where it is defined
                if inspect.isclass(obj):
                    if not inspect.getdoc(obj):
                        errors.append(f"{module.__name__}.{name}: missing docstring")
                    errors.extend(_missing_in_class(obj, module.__name__))
                elif inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        errors.append(f"{module.__name__}.{name}: missing docstring")
    return sorted(set(errors))


def main() -> int:
    """Run both checks; print findings and return a process exit code."""
    errors = check_links() + check_docstrings()
    if errors:
        print(f"check_docs: {len(errors)} problem(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    covered = "/".join(pkg.removeprefix("repro.") for pkg in DOCUMENTED_PACKAGES)
    print(
        "check_docs: all markdown links resolve and the public "
        f"{covered} API is documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
