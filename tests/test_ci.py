"""The CI workflow names only test files and scripts that exist.

A folded or renamed suite would otherwise leave a CI leg pointing at
nothing: pytest exits 4 on a missing path, but only once the leg runs.
Read as text, so the check needs no YAML parser.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: A repository-relative Python path, optionally with a ``::Name`` node.
REFERENCE = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks|examples|src)/[\w/.-]+\.py)(?:::(\w+))?"
)


def test_every_referenced_file_and_node_exists():
    if not WORKFLOW.exists():
        pytest.skip("no CI workflow in this tree")
    references = REFERENCE.findall(WORKFLOW.read_text(encoding="utf-8"))
    assert ("tests/fleet_equivalence.py", "") in references
    for path, node in references:
        assert (ROOT / path).is_file(), f"ci.yml names a missing file: {path}"
        if node:
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^\s*(class|def) {node}\b", source, re.M), (
                f"ci.yml names {path}::{node}, which {path} does not define"
            )
