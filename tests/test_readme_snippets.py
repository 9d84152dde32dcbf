"""The README's code blocks must actually run (doc regression tests)."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"

#: The docs and CI steps whose repo paths ``test_doc_references_real_paths``
#: checks.
PATH_DOCS = [
    "PAPER_MAPPING.md",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
]
#: A repo path: under one of the tracked top-level directories or ``repro/``,
#: or a capitalised top-level JSON file, not inside a longer path.
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|benchmarks|tests|examples|repro)/[\w./<>*{}-]*|[A-Z][\w-]*\.json)"
)


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_and_mentions_components(self):
        text = README.read_text()
        for needle in ("ErmsScaler", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/"):
            assert needle in text

    def test_quickstart_block_executes(self):
        blocks = python_blocks()
        assert blocks, "README has no python code block"
        namespace = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
        allocation = namespace["allocation"]
        assert allocation.total_containers() > 0
        assert "user-timeline" in allocation.containers

    def test_documented_examples_exist(self):
        text = README.read_text()
        examples_dir = ROOT / "examples"
        for name in re.findall(r"`([a-z_]+\.py)`", text):
            assert (examples_dir / name).exists(), f"README references missing {name}"

    @pytest.mark.parametrize("doc", PATH_DOCS)
    def test_doc_references_real_paths(self, doc):
        """Every repo path a doc or CI step names exists: ``src/``,
        ``benchmarks/``, ``tests/`` and ``examples/`` paths, ``repro/``
        modules (under ``src/``) and top-level JSON files (capitalised,
        as ``BENCHMARK.json``).  A path with a placeholder (``<name>``,
        ``*``, ``{...}``) is a pattern, not a path."""
        missing = []
        for path in sorted(set(REPO_PATH.findall((ROOT / doc).read_text()))):
            if any(mark in path for mark in "<*{"):
                continue
            base = ROOT / "src" if path.startswith("repro/") else ROOT
            if not (base / path.rstrip(".")).exists():
                missing.append(path)
        assert missing == [], f"{doc} names paths that do not exist"
