"""The traced benchmark run patches program functions by name
(``perfbench/layers.py``); a rename in the package would silently drop a
layer from every trace, so each patched name must exist, and a call routed
past a patched name would drop it too, so each layer must see calls."""

import importlib.util
import json
from pathlib import Path

from noisymoo import cli, harness

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# No program path calls it since arb decisions draw all replicates at once.
UNCALLED = {"bootstrap.bootstrap_means_pooled"}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.LAYERS


def test_every_patched_name_exists():
    targets = [(owner, attr) for owner, attr, _, _ in _layers()]
    targets.append((harness, "run_single"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_every_layer_is_called_through_its_patched_name(monkeypatch, tmp_path):
    calls = {}

    def counting(name, original):
        def shim(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return shim

    for owner, attr, name, _ in _layers():
        calls[name] = 0
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    arb = {"alpha_l": [0.2], "alpha_u": [0.9], "init_popsize": [8], "seed_size": [6],
           "capacity": [20]}
    config = {"problems": ["uf1"], "noise": [{"kind": "gaussian", "sigma": 0.5}],
              "strategies": [{"kind": "arb", "grid": arb},
                             {"kind": "strength", "grid": {"n_max": [2]}},
                             {"kind": "time", "grid": {"n_max": [2]}},
                             {"kind": "rtea", "grid": {"p": [6]}}],
              "budget": 300, "popsize": 6, "replications": 2, "base_seed": 11,
              "selection": {"n_select": 1, "n_compare": 1, "n_repeats": 5,
                            "prestudy_budget": 250}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    for argv in (["sweep"], ["report"], ["select", "--protocol", "split"]):
        assert cli.main([*argv, "--config", str(path), "--out", out]) == 0
    assert sorted(name for name, n in calls.items() if n == 0) == sorted(UNCALLED)
