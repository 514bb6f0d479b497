"""Tests for the CI documentation gate (scripts/check_docs.py)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_passes_the_gate():
    """The committed tree must satisfy its own documentation gate."""
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_link_check_finds_broken_link(tmp_path, monkeypatch):
    module = _load_module()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "page.md").write_text(
        "[ok](page.md) [bad](missing.md) [ext](https://example.com) [anchor](#x)",
        encoding="utf-8",
    )
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "MARKDOWN_ROOTS", ("docs",))
    errors = module.check_links()
    assert len(errors) == 1
    assert "missing.md" in errors[0]


def test_link_check_handles_anchored_paths(tmp_path, monkeypatch):
    module = _load_module()
    (tmp_path / "a.md").write_text("[sect](b.md#section)", encoding="utf-8")
    (tmp_path / "b.md").write_text("# section", encoding="utf-8")
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "MARKDOWN_ROOTS", ("a.md", "b.md"))
    assert module.check_links() == []


def test_docstring_check_covers_the_serving_surface():
    module = _load_module()
    assert set(module.DOCUMENTED_PACKAGES) == {
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
    }
    assert module.check_docstrings() == []
