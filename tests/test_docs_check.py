"""Docs lint rule 7: backticked dotted ``repro.…`` paths must resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).parent.parent
SCRIPT = REPO / "scripts" / "docs_check.py"

spec = importlib.util.spec_from_file_location("docs_check", SCRIPT)
docs_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(docs_check)


def test_live_paths_resolve():
    assert docs_check.resolves("repro.engine.mergetree")
    assert docs_check.resolves("repro.engine.mergetree.merge_partials")
    assert docs_check.resolves("repro.core.sbbc_bank.SBBCBank.advance")


def test_stale_paths_do_not_resolve():
    assert not docs_check.resolves("repro.pram.backend.shard_ingest")
    assert not docs_check.resolves("repro.engine.mergetree.refold_partials")
    assert not docs_check.resolves("repro.no_such_module.thing")


def test_stale_reference_is_reported(tmp_path, monkeypatch):
    doc = tmp_path / "page.md"
    doc.write_text(
        "Use `repro.engine.mergetree.merge_tree_ingest(op, b, shards=4)`,\n"
        "not `repro.pram.backend.shard_ingest(..., arity=k)`.\n"
    )
    monkeypatch.setattr(docs_check, "REPO", tmp_path)
    problems = docs_check.check_dotted_paths([doc])
    assert len(problems) == 1
    assert problems[0].startswith("page.md:2:")
    assert "repro.pram.backend.shard_ingest" in problems[0]


def test_checked_documents_are_clean():
    assert docs_check.check_dotted_paths(docs_check.checked_documents()) == []
