"""Golden CLI reports: each command below is rerun and its JSON report,
with the run-dependent ``elapsed_ms`` fields removed, must equal the
stored copy under ``tests/data/golden/``.  A change that is meant to
leave every output alone (a speed-up, a refactor) is checked by this
module as it stands.

After a deliberate change of output, rewrite the stored copies with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/data/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from pseudosphere.cli import run

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

L = "1/2,1/2,13/2"
COMMANDS = {
    "verify-algebra": ["verify-algebra"],
    "classical-check": ["classical-check"],
    **{f"racah-spectrum-{signs}": ["racah-spectrum", "--l", L, "--signs", signs]
       for signs in ("all", "h2", "s2")},
    **{f"cross-check-{name}": ["cross-check", "--l", L, f"--signature={sig}"]
       for name, sig in (("ppp", "+,+,+"), ("ppm", "+,+,-"),
                         ("pmm", "+,-,-"), ("mmm", "-,-,-"))},
}


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def regenerate(name: str, out_dir: Path) -> dict:
    """{"exit": exit code, "report": JSON report without elapsed_ms}."""
    out = out_dir / f"{name}.json"
    code = run(COMMANDS[name] + ["--out", str(out)])
    return {"exit": code, "report": _strip_elapsed(json.loads(out.read_text()))}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert regenerate(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            got = regenerate(name, Path(tmp))
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(got, indent=1, sort_keys=True) + "\n")
            print(f"{name}: exit {got['exit']}", file=sys.stderr)
