"""One cold start: import ``periodica`` and load a workload's input
document.  ``run.py`` times this script in fresh interpreters for
``setup_s``.

    python3 bench/setup_probe.py bench/out/<workload>-<seed>/inputs.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import periodica.cli  # noqa: E402  (the batch front end loads every layer)
from periodica import serialize  # noqa: E402

doc = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
for cx in doc["complexes"].values():
    serialize.parse_complex_doc(cx)
