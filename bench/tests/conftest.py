import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
# The search endpoint is on loopback; never send its requests through a proxy.
os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
