"""Benchmark-session configuration.

Run with ``pytest benchmarks/ --benchmark-only``. The experiment tables
are printed live (see ``-s``) and always written to
``benchmarks/results/`` regardless of capture settings.
"""

import sys
import pathlib

# Allow `import common` from bench modules when pytest is run at repo root,
# and `import tests.<oracle>` for the references that live with the tests.
sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
