"""The benchmark's traced runs find every library layer they wrap.

`bench/tracer.py` rebinds the names in its `LAYERS` table; a name that no
longer exists, or a counted parameter renamed, is reported as absent and its
per-layer metrics drop out of the traced result. Only the traced runs do this
rebinding, so a rename shows nowhere else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import json, sys
sys.path.insert(0, "bench")
import tracer
t = tracer.Tracer()
t.install()
print(json.dumps(t.absent))
"""


def test_tracer_wraps_every_layer_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _INSTALL], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
