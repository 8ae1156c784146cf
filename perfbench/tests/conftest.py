import sys
from pathlib import Path

# The benchmark's modules are flat files beside run.py, imported by name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
