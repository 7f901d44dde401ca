"""What importing the package costs: no graph library, no scipy.

Every CLI call, ``repro serve`` start and forked shard worker pays for the
package's imports, so the runtime keeps to numpy and the standard library.
The check runs in a fresh interpreter: this test process has networkx
loaded already, for the oracles.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("networkx", "scipy")


def test_package_cli_and_a_generic_build_load_no_graph_library_or_scipy():
    probe = (
        "import json, sys\n"
        "import repro, repro.cli\n"
        "from repro.routing.base import engine_for\n"
        "from repro.topology.zones import MultiZoneTopology\n"
        "engine_for(MultiZoneTopology(zones=2, k=4, seed=1))\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {FORBIDDEN!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
