"""The sha256 of stdout for every benchmark workload, seed and format, against checked-in digests.

For each workload in ``perfbench/workloads.py`` and each seed, the input is
written once and ``citerank.cli.main`` runs on it in process in every
``--format``. ``tests/golden/workload_digests.json`` pins the sha256 of the
generated input and of each stdout. To rewrite it after a deliberate output
change, run ``PYTHONPATH=src:perfbench python tests/test_workload_digests.py``
and record every changed digest, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from citerank.cli import main
from workloads import WORKLOADS

DIGESTS = Path(__file__).parent / "golden" / "workload_digests.json"
SEEDS = (1, 3, 7)
FORMATS = ("delimited", "aligned", "json")


def _digests(name: str, seed: int, workdir: Path) -> dict[str, str]:
    """sha256 of the workload's input file and of its stdout in each format."""
    args = list(WORKLOADS[name](seed, workdir).args)
    (path,) = workdir.iterdir()
    digests = {"input": hashlib.sha256(path.read_bytes()).hexdigest()}
    at = args.index("--format") + 1
    for fmt in FORMATS:
        args[at] = fmt
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(args) == 0
        digests[fmt] = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stdout_digests_match(name, seed, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{name}/{seed}"]
    digests = _digests(name, seed, tmp_path)
    assert digests["input"] == expected["input"], (
        f"the generated input changed (new sha256 {digests['input']}): numpy's generator stream "
        "or the workload's recipe moved, not the program"
    )
    changed = {fmt: digests[fmt] for fmt in FORMATS if digests[fmt] != expected[fmt]}
    assert not changed, f"stdout changed; new sha256 by --format: {changed}"


if __name__ == "__main__":
    table = {}
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                table[f"{name}/{seed}"] = _digests(name, seed, Path(workdir))
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} workloads to {DIGESTS}", file=sys.stderr)
