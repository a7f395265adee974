"""Fresh-interpreter set-up for one workload, timed by run.py.

Imports mmwsim from the checkout's src/, resolves the workload's configs and
warms the quantizer design, then prints time.monotonic() at the moment it is
ready to run its first trial.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# the package first, so -X importtime charges NumPy and SciPy to the mmwsim
# modules that pull them in, as it does for a command-line call
import mmwsim  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.monotonic()))
