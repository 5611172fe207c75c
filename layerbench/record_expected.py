"""Record the suite programs' reference answers for ``cli-cold``.

    PYTHONPATH=src python3 layerbench/record_expected.py

Computes, in-process with the lowering cache off, the slice criterion
and the signature of each CLI command's answer for every suite program,
and writes ``expected_suite.json``.  Run it only when the program's
answers are meant to change; ``tests/test_expected.py`` checks the file
against the repository's own goldens.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from cli_workloads import EXPECTED, chdir  # noqa: E402
from common import SUITE_DIR  # noqa: E402
from oracle import reference_cli  # noqa: E402


def main() -> int:
    from repro.suite.registry import PROGRAM_NAMES

    programs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PROGRAM_NAMES:
            shutil.copyfile(SUITE_DIR / f"{name}.c", Path(tmp) / f"{name}.c")
        with chdir(Path(tmp)):
            for name in PROGRAM_NAMES:
                programs[name] = reference_cli(f"{name}.c")
                print(f"{name}: criterion {programs[name]['criterion']}")
    EXPECTED.write_text(json.dumps({"programs": programs}, indent=1,
                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
