"""One timed set-up: import chn2 and write a workload's input for a seed.

    python3 bench/setup_inputs.py WORKLOAD SEED WORKDIR [--tiny]

Prints {"setup_s": ...} as its last line. The time runs from before the
package import to after the input file is written, so it grows with the
package's import cost and with input generation.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.make_inputs(workloads.params_for(name, "--tiny" in sys.argv[4:]), seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
