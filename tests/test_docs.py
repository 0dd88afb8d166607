"""Documentation health: the checks behind the CI smoke job's docs entry.

Runs the same checker CI runs (``tools/check_docs.py``) so a broken link,
a stale CLI example, or a docs-index / architecture-table gap fails the
tier-1 suite locally before it fails the CI smoke job remotely.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepositoryDocs:
    def test_all_intra_repo_links_resolve(self):
        assert checker.check_links() == []

    def test_readme_indexes_every_doc(self):
        assert checker.check_docs_index() == []

    def test_architecture_covers_every_package(self):
        assert checker.check_architecture_coverage() == []

    def test_quoted_cli_commands_answer_help(self):
        assert checker.check_cli_examples() == []

    def test_examples_cover_the_new_surfaces(self):
        commands = {command for _, command in checker.cli_invocations()}
        assert "repro approx-bench" in commands
        assert "repro serve-bench" in commands


class TestCheckerCatchesRot(object):
    def test_broken_link_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](does/not/exist.md) for details")
        problems = checker.check_links([doc])
        assert len(problems) == 1
        assert "does/not/exist.md" in problems[0]

    def test_external_and_anchor_links_are_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[a](https://example.com) [b](#section) [c](mailto:x@y.z)"
        )
        assert checker.check_links([doc]) == []

    def test_unknown_subcommand_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```bash\npython -m repro no-such-command --n 4\n```\n")
        problems = checker.check_cli_examples([doc])
        assert len(problems) == 1
        assert "no-such-command" in problems[0]

    def test_non_bash_fences_are_not_executed(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python\npython -m repro no-such-command\n```\n")
        assert checker.check_cli_examples([doc]) == []
