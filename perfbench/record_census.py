"""Record the census digests from the program as it is now.

Run from the repository root: ``python3 perfbench/record_census.py``.  The
census workload then checks every cut and intersection table against the
file this writes, so rerun it only when a change to the census output is
intended.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DIGEST_FILE, build_world, census_answer, make_inputs  # noqa: E402

world = build_world("census")
answers = dict(census_answer(world, spec) for spec in make_inputs("census", 0))
DIGEST_FILE.write_text(json.dumps(dict(sorted(answers.items())), indent=1) + "\n", encoding="utf-8")
print(f"wrote {len(answers)} digests to {DIGEST_FILE.name}")
