"""The committed API reference is the generator's output, byte for byte."""

import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_api_docs_match_generator():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "gen_api_docs.py")],
        cwd=str(_ROOT), capture_output=True, check=True, timeout=300,
    )
    committed = (_ROOT / "docs" / "api.md").read_bytes()
    assert proc.stdout == committed, (
        "docs/api.md is stale: regenerate it with "
        "'python tools/gen_api_docs.py > docs/api.md'")
