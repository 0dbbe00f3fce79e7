"""The traced benchmark run patches program functions by name
(``perfbench/layers.py``); a rename in the package would silently drop a
layer from every trace, so each patched name must exist."""

import importlib.util
from pathlib import Path

from noisymoo import harness

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_patched_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [(owner, attr) for owner, attr, _, _ in layers.LAYERS]
    targets.append((harness, "run_single"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing
