"""Golden outputs: SHA-256 of every file the four CLI commands write for the
bundled configs, the generated N = 4 window, a config of duty-cycle edge
cases and one of sparse components (edgeless, bipartite and odd-cycle
control components; bipartite data components only).

The digests in ``golden_digests.json`` pin the CLI output byte for byte.  A
change that alters the output on purpose says so in CHANGES.md and
regenerates them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hexchan.cli import main

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
DIGESTS = TESTS_DIR / "golden_digests.json"
CONFIGS = {
    "reference-12pan": REPO_ROOT / "configs" / "reference-12pan.json",
    "block-n2": REPO_ROOT / "configs" / "block-n2.json",
    "duty-edges": TESTS_DIR / "configs" / "duty-edges.json",
    "roadmap-n4": TESTS_DIR / "configs" / "roadmap-n4.json",
    "sparse-components": TESTS_DIR / "configs" / "sparse-components.json",
}
COMMANDS = ("lattice", "static", "dynamic", "evaluate")


def output_digests(config: Path, command: str, out: Path) -> dict[str, str]:
    """Run one command into an empty directory; SHA-256 per written file."""
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, name, command):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name][command]
    assert output_digests(CONFIGS[name], command, tmp_path / "out") == expected


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    doc = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, config in sorted(CONFIGS.items()):
            doc[name] = {cmd: output_digests(config, cmd, Path(tmp) / name / cmd) for cmd in COMMANDS}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
