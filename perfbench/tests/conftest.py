import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules, as they do
# when perfbench/run.py is run as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
