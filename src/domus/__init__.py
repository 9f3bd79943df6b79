"""domus: a construction virtual machine and analysis toolkit.

Programs in a small placement DSL drive a deterministic builder over a
voxel world. On top of the machine sit analyses of the built artifacts:
shortest-program complexity bounds, a pattern-dictionary beauty score,
regularity and fractal-dimension metrics, a simulated-annealing design
optimizer, and fleet-level adversarial transfer experiments.

Submodules load on first access (``domus.vm``, ``from domus import
vm``), so ``import domus`` loads only ``domus.errors``; numpy in turn
loads on the first use of the support rule, the enclosed-volume flood
or an attack.
"""

from .errors import DomusError

__version__ = "0.1.0"

_SUBMODULES = ("aesthetics", "designer", "fleet", "naturalness", "synthesis", "vm", "world")

__all__ = ["DomusError", "__version__", *_SUBMODULES]


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound; importing a
    # submodule binds it here, so each loads once
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
