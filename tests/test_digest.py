"""The catalog group of the byte-identity digest (tools/digest.py), pinned.

A change that keeps behaviour prints the same line.  A change that alters
the catalog machines' sessions on purpose updates the pin and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = "catalog 180 5e92fad49f61492255bbdeb6dbaed7462a76af83d186a8ff7c90ecb0abf46302"


def test_catalog_digest_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "catalog"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == CATALOG
