"""Rewrite tests/golden.json from the reports of the current sources.

Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py

A change that moves report bytes runs this and names each digest that moved
and why.
"""

import json
import os
import tempfile
from pathlib import Path

from conftest import GOLDEN_PATH, report_sha256
from test_golden import ARGVS, write_documents


def main() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_documents(Path(directory))
        os.chdir(directory)
        try:
            digests = {" ".join(argv): report_sha256(argv) for argv in ARGVS}
        finally:
            os.chdir(here)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
