"""Set-up probe: time a fresh `import domus` plus loading one workload's
inputs through domus's own loaders, then print its wall and CPU
seconds and the CPU time of the reference loop around them.

Usage: python3 bench/probe.py WORKLOAD < inputs.json

Inputs the benchmark generates itself (the fleet buildings, the oracle
structures) arrive on stdin or are made before the clock starts, so
their generation is not timed. Run in a child process so every import
is fresh.
"""

import json
import sys
import time
from itertools import combinations
from pathlib import Path

from pace import cpu, reference

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "src"))

workload = sys.argv[1]
given = json.load(sys.stdin)
if workload == "oracle":
    cells = [(x, y, z) for z in range(3) for y in range(3) for x in range(3)]
    combos = [c for k in range(5) for c in combinations(cells, k)]

before = reference()
start_wall, start_cpu = time.perf_counter(), cpu()
import domus  # noqa: E402  (the import is what is timed)

if workload == "corpus":
    for name in given["programs"]:
        domus.vm.parse((CORPUS / name).read_text(encoding="utf-8"))
    domus.aesthetics.load_patterns((CORPUS / "brick.pat").read_text(encoding="utf-8"))
elif workload == "anneal":
    domus.aesthetics.load_patterns((CORPUS / "brick.pat").read_text(encoding="utf-8"))
    domus.world.load_constraints((CORPUS / "constraints.json").read_text(encoding="utf-8"))
elif workload == "oracle":
    for combo in combos:
        domus.world.VoxelStructure((3, 3, 3), frozenset(combo))
elif workload == "fleet":
    domus.vm.parse(given["program"])
    domus.world.load_constraints(given["site"])
else:
    sys.exit(f"probe: unknown workload {workload!r}")
used, elapsed = cpu() - start_cpu, time.perf_counter() - start_wall
# wall and CPU seconds, then the reference loop's time around them (bench/pace.py)
print(elapsed, used, (before + reference()) / 2)
