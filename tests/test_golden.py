"""Golden records: pinned sha256 digests of canonical records for tiny slices.

One slice per strategy kind, at the sizes of ``tests/test_cli.py``: popsize
6, budget 300. One more arb slice runs at Gaussian sigma 0.01, popsize 20,
budget 600: there the front its arb decisions read holds about 12 points on
average, so the bounds and exact counts of ``arb_decide`` are both
exercised. Any change to a random-stream order, a decision rule or the
record layout changes a digest, so a refactor that must keep records
byte-identical shows it here in seconds instead of waiting for the
desk-scale criterion. Two more slices cover the other mean functions and
noise kinds: UF2 without noise (static n = 2, so every re-evaluation repeats
the mean exactly) and UF3 under chi-square noise (df 1, sigma 1.0) with arb.
The many-rivals arb slice also runs without noise: every replicate then
equals its point's mean, so each rival's dominance probability is 0 or 1.
"""

import hashlib

import pytest

from noisymoo.harness import RunSlice, derive_seed, run_single

BASE_SEED = 11
ARB = {"kind": "arb", "alpha_l": 0.2, "alpha_u": 0.9, "init_popsize": 8,
       "seed_size": 6, "capacity": 20}

# name -> (strategy, mode, sha256 of canonical_json(), slice overrides)
GOLDEN = {
    "static": ({"kind": "static", "n": 2}, "one_shot",
               "379ba6f881b3d9b3fd72bf890af2d17957e38627bfb443a97777cfd89a85cfe1", {}),
    "time": ({"kind": "time", "n_max": 2}, "sequential",
             "7686fb4d4d68d2e49637736c9b40a29306db5949783fcf23ba857848b3417e95", {}),
    "rank": ({"kind": "rank", "n_max": 2}, "sequential",
             "a2e43959a36eda9f7526eb68d05a053c140e3a489e6282899282c40772d1ac65", {}),
    "strength": ({"kind": "strength", "n_max": 2}, "sequential",
                 "8cbffeaf5a9891b83bfd13bb83df91682d0250d45bae72bc550c0693fd5868d3", {}),
    "sederror": ({"kind": "sederror", "threshold": 0.05}, "sequential",
                 "7a3f0dadb641dcbee34636d3a12db3c90919a0a753812e0758b352250c4cedde", {}),
    "arb": (ARB, "sequential",
            "6ad2e6a8f572233052b87d1a6ca5be6dd1d02e2ade97f4111abdd6b9a1808294", {}),
    "arb_many_rivals": ({**ARB, "init_popsize": 24, "seed_size": 20}, "sequential",
                        "2743f0d8fe84d2a5e4570f8c92ff480e52c1138372ead3bbff2c3a886b96e3fd",
                        {"noise": {"kind": "gaussian", "sigma": 0.01}, "popsize": 20,
                         "budget": 600}),
    "arb_none": ({**ARB, "init_popsize": 24, "seed_size": 20}, "sequential",
                 "83802e19403119bb14f09cfd4e81922a9ef9c5688a8203a75cec52bd5fc5937a",
                 {"noise": {"kind": "none"}, "popsize": 20, "budget": 600}),
    "rtea": ({"kind": "rtea", "k": 1, "z": 0.1, "p": 6}, "rtea",
             "082bb775d7ebe988aedef8a3ed8ed9db61c28e683eb206990b7a222c74ebadb4", {}),
    "uf2_none_static": ({"kind": "static", "n": 2}, "one_shot",
                        "98a281ea96af44d45cb0d2e9481589a7a880ae74f2976a1c3c78cf51d2ec4dab",
                        {"problem": "uf2", "noise": {"kind": "none"}}),
    "uf3_chisq_arb": (ARB, "sequential",
                      "020784d7c8ab14015b698795a06260a520dcb8b3522a5d0e174274e07b321889",
                      {"problem": "uf3", "noise": {"kind": "chisq", "sigma": 1.0, "df": 1}}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_digest_is_pinned(name):
    strategy, mode, digest, overrides = GOLDEN[name]
    fields = {"problem": "uf1", "noise": {"kind": "gaussian", "sigma": 0.5}, "popsize": 6,
              "budget": 300, **overrides}
    slice_ = RunSlice(dim=10, strategy=strategy, mode=mode, **fields)
    record = run_single(slice_, 0, derive_seed(BASE_SEED, slice_.fingerprint, 0))
    assert record.spent == fields["budget"]
    assert hashlib.sha256(record.canonical_json().encode()).hexdigest() == digest
