"""Time one receiver set-up in a fresh interpreter; print seconds.

Set-up is importing the package, building the run's configuration (which
validates the 3,500-band plan) and constructing the pipeline, up to the
first sweep. Usage: python3 bench/setup_probe.py <route|static> <scenario seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sweepnav import TrackingPipeline  # noqa: E402

from workloads import pipeline_config  # noqa: E402

TrackingPipeline(pipeline_config(sys.argv[1], int(sys.argv[2])))
print(repr(time.perf_counter() - START))
