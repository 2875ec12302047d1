"""The catalog and equivalence groups of the byte-identity digest
(tools/digest.py), pinned.

A change that keeps behaviour prints the same lines.  A change that alters
these machines' sessions on purpose updates the pin and says why.  The
equivalence group is the cheap one that runs ``ThreadPromotion``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = "catalog 180 5e92fad49f61492255bbdeb6dbaed7462a76af83d186a8ff7c90ecb0abf46302"
EQUIVALENCE = "equivalence 360 13d10880152f090c5d193afc9e0f9544ea43723a6a491d5c8eda85023d69ca6d"


def digest(group: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), group],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip()


def test_catalog_digest_is_pinned():
    assert digest("catalog") == CATALOG


def test_equivalence_digest_is_pinned():
    assert digest("equivalence") == EQUIVALENCE
