"""The names the benchmark's tracer patches are still entered.

``perfbench/tracing.instrument`` wraps streamsieve's cross-module names by
name, and ``tracing.probe`` calls each traced layer once.  A refactor that
stops calling a traced name leaves its per-layer metric unmeasured (None).
The probe runs in a subprocess, so the patches never reach another test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
from pathlib import Path
root, tmp = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import streamsieve, tracing
tracer = tracing.Tracer()
tracing.instrument(tracer)
tracing.probe(tracer, streamsieve, Path(tmp))
print(json.dumps({"layers": tracing.layer_metrics(tracer), "missing": tracer.missing}))
"""

# names one module never imports from the other, so there is nothing to patch
UNPATCHED = {"streamsieve.surface.site_selection", "streamsieve.lookup.unpack_slots_hex"}


def test_the_probe_enters_every_traced_layer(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert [name for name, value in result["layers"].items() if value is None] == []
    assert set(result["missing"]) <= UNPATCHED
