"""Golden record digests: the records of tiny experiments stay byte-identical.

Each case runs one tiny `table1`, `scenario2` or `fig3` configuration
under one model variant and compares the sha256 of its
`*_records.jsonl` with a digest pinned from an earlier version of the
code. A refactor may change how a record is computed but not its bytes,
which also pins the order of every RNG draw. `fig3` covers the
`transition_prob` probe path; `scenario2` and `fig3` cover the warm
starts of every variant.

The neural variants' digests depend on floating-point results of the
BLAS in use, so they hold for one numpy/BLAS build. A change meant to
alter the records re-pins them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

import hashlib

import pytest

from coldstart_dynaq import bench
from coldstart_dynaq.env import InventoryState

# Starting in the probed state makes fig3's trace non-empty from warm
# starts and, for Q-learning, from a cold visit halfway through.
TINY = dict(
    master_seed=0,
    initial_state=InventoryState(0, 0, 3),
    repetitions=1,
    train_episodes=1,
    horizon=4,
    test_days=4,
    test_repetitions=2,
    source_days=40,
    forecaster_epochs=1,
    offline_horizon=3,
    warm_epochs=5,
)

RUNNERS = {
    "table1": bench.run_table1,
    "scenario2": bench.run_scenario2,
    "fig3": bench.run_fig3,
}

GOLDEN = {
    ("table1", "tabular"): "319d9f4541ec25b2e0e1d5928e3ef462db9462f7b4bb0d7f3e869d0a202c4e60",
    ("table1", "det-net"): "030a3b838fc2495286c2f34d3f8e4cdcfe93419078818c7510ab507a82f633d2",
    ("table1", "mc-dropout"): "e218b959e686f9c5800e49d01eee3d928f553347c5ab3e835eb5c4b4d6a86fca",
    ("scenario2", "tabular"): "28356710730a34698a5b99f573eeb399d63018c35459464012dfbcb7f63255fd",
    ("scenario2", "det-net"): "ba6d570b92fbff2fc7919e78fd305cdb3904ae1c7ad06bfe95b2b91411f74285",
    ("scenario2", "mc-dropout"): "d41fa92cdef4ef94a50192a418fe426f231ab01e08cb85f90fff5c8ab228fdf9",
    ("fig3", "tabular"): "4a7f2a24a46cb3471ce99ebd3e427f1f35e216a045f2163eefde76d0ed16f1b3",
    ("fig3", "det-net"): "ea43c7881f810b92f7f44b6c1b45e90ce0abd5cb5fafc7790784116388188fef",
    ("fig3", "mc-dropout"): "2ede2e2499c4e0cde7a7b8f7163935252fc31307586d4d084256df78f675359d",
}


def records_digest(experiment: str, variant: str, out_dir) -> str:
    spec = bench.ExperimentSpec(name="golden", out_dir=str(out_dir), model_variant=variant, **TINY)
    RUNNERS[experiment](spec)
    return hashlib.sha256((out_dir / f"{experiment}_records.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("experiment, variant", sorted(GOLDEN))
def test_records_match_golden_digest(experiment, variant, tmp_path):
    assert records_digest(experiment, variant, tmp_path) == GOLDEN[experiment, variant]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for experiment in RUNNERS:
        for variant in ("tabular", "det-net", "mc-dropout"):
            with tempfile.TemporaryDirectory() as tmp:
                digest = records_digest(experiment, variant, Path(tmp))
            print(f'    ("{experiment}", "{variant}"): "{digest}",')
