"""Golden digests: the outputs and learned bits of tiny experiments stay fixed.

Each case runs one tiny `table1`, `scenario1`, `scenario2` or `fig3`
configuration under one model variant and compares sha256 digests with
ones pinned from an earlier version of the code:

- `records`, `report` and `summary`: the bytes of `*_records.jsonl`,
  `*_report.json` and `*_summary.csv`;
- `learned`: every trained agent's Q-table bytes in call order, each
  followed by its final model's learned state (the tabular counts and
  cost sums, or the nets' weights and biases), with each warm start's
  `q` and `model` hashed the same way when it is built. A trained agent
  and a warm start are both the `Learner` that did the learning.

A refactor may change how a record is computed but not its bytes, which
also pins the order of every RNG draw. The records see only what
evaluation reads (a Q-table's argmin, costs from the true tables), so a
last-bit change in a Q-value or a net weight shows only in `learned`,
which is captured by wrapping `bench.train` and `bench.make_warm_start`
and draws no random numbers. `fig3` covers the `transition_prob` probe
path, whose MC-dropout reads draw from their own stream; `scenario1` is the one path with per-run seed keys (rep, j, i);
`scenario1`, `scenario2` and `fig3` cover the warm starts of every
variant.

`TRAIN_GOLDEN` pins the artifacts of `coldstart-dynaq train` for three
algorithm × transfer × model cases: `qtable.json` and both convergence
CSVs (`model.npz` is a zip with timestamps, and the Q-table pins the
learned bits that matter to `evaluate`). `EVALUATE_GOLDEN` pins what
`coldstart-dynaq evaluate` prints for the Q-table of the `q-learning`
train case, once with every flag it reads given and once with none, and
`FORECAST_GOLDEN` the `offline_demand.csv` that `coldstart-dynaq
forecast` writes with `--horizon` given.

The neural variants' digests depend on floating-point results of the
BLAS in use, so they hold for one numpy/BLAS build. A change meant to
alter the outputs re-pins them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from coldstart_dynaq import bench, cli
from coldstart_dynaq.env import InventoryState
from helpers import parameters

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
    "scenario1": bench.run_scenario1,
    "scenario2": bench.run_scenario2,
    "fig3": bench.run_fig3,
}
VARIANTS = ("tabular", "det-net", "mc-dropout")
FILES = {"records": "records.jsonl", "report": "report.json", "summary": "summary.csv"}

GOLDEN = {
    ("table1", "tabular"): "319d9f4541ec25b2e0e1d5928e3ef462db9462f7b4bb0d7f3e869d0a202c4e60",
    ("table1", "det-net"): "030a3b838fc2495286c2f34d3f8e4cdcfe93419078818c7510ab507a82f633d2",
    ("table1", "mc-dropout"): "e218b959e686f9c5800e49d01eee3d928f553347c5ab3e835eb5c4b4d6a86fca",
    ("scenario1", "tabular"): "b369fb3941a5bd15672d0f6df6a9a6eb3f12a44ac552e16cabbe532e2880752b",
    ("scenario1", "det-net"): "b5244448ba0896ce2e00382371159ece915441d53f37b1d1a0b2eb9612d1204e",
    ("scenario1", "mc-dropout"): "e3732fd7a1f9458b2d388a9d0291810c28bb1765d9736187d0ba21de5324d70e",
    ("scenario2", "tabular"): "28356710730a34698a5b99f573eeb399d63018c35459464012dfbcb7f63255fd",
    ("scenario2", "det-net"): "ba6d570b92fbff2fc7919e78fd305cdb3904ae1c7ad06bfe95b2b91411f74285",
    ("scenario2", "mc-dropout"): "d41fa92cdef4ef94a50192a418fe426f231ab01e08cb85f90fff5c8ab228fdf9",
    ("fig3", "tabular"): "4a7f2a24a46cb3471ce99ebd3e427f1f35e216a045f2163eefde76d0ed16f1b3",
    ("fig3", "det-net"): "ea43c7881f810b92f7f44b6c1b45e90ce0abd5cb5fafc7790784116388188fef",
    ("fig3", "mc-dropout"): "8947fe4a04b45301e0719bc1aa73a9dc589d0c22a403e9a4cdad2a2d5070d153",
}

# (experiment, variant) -> digests of the report, the summary and the learned bits
GOLDEN_MORE = {
    ("table1", "tabular"): {
        "report": "25165865ab176bd2e5b391e7520f527185e58c4011145291c53c3dc08b9755fd",
        "summary": "e66571d984a488f5264c2c8a43a3e592b52d50ea75b86aafa9a9d87c4d466c60",
        "learned": "f3694b3e528d2ae406ae127c9dafc04d9dc6411e86e79c802a7fa17062f6c4cc",
    },
    ("table1", "det-net"): {
        "report": "25165865ab176bd2e5b391e7520f527185e58c4011145291c53c3dc08b9755fd",
        "summary": "aadf5c3833083cd2f9882a1fdc182cd4eb544f974f6763498d757fbfcf77cd2e",
        "learned": "065da2145702d12a4923de02db0fa6d86b4203ffc45b4aade8aca58d871bf621",
    },
    ("table1", "mc-dropout"): {
        "report": "25165865ab176bd2e5b391e7520f527185e58c4011145291c53c3dc08b9755fd",
        "summary": "6203f1e9efb70e10d33806ea2ceac2adac218502fa80207ab0cc2a7d9b963a80",
        "learned": "34d0190acaf56aebf0bb2f0bcc659c33f76874cfd6882b5da9718205ec15f50e",
    },
    ("scenario1", "tabular"): {
        "report": "9733829ba575964eb7af3fdd11971b0b259e8f181087b4827ca038d20783ce2f",
        "summary": "745ec2917820066e09e2ca91f580cc2a013a870373eff4e4895b172a5a7075d8",
        "learned": "5cdc9bd1a18848f6897245db23af6a93955fb6763849733d3c6b69063bfe12db",
    },
    ("scenario1", "det-net"): {
        "report": "fc47a153c74b7aa9ffdf3d4b44674805c46bc1c3671d7b71a0acd2570cece1e4",
        "summary": "820f932d23a4fc2d10296284bc9cae03b456846122f15499e23f7fe47c000abb",
        "learned": "1aba936c4b58ce40826136c5df66a28b2e457a1a22779eb7c50fb8c4eba98984",
    },
    ("scenario1", "mc-dropout"): {
        "report": "81cb9378e10119a3d3a886d97acd204dd06bfdcc09dd847e5178b43fb415bb90",
        "summary": "5fd060fbf5c3d719f6bc7cfd69498837772f1f1431f34e779457920eb8050fea",
        "learned": "9889438819d8de25e4e01ad921ae8344a67697cd263c9c4edf9ce0a3769a3502",
    },
    ("scenario2", "tabular"): {
        "report": "cea5374a2c4bdb769fa2eab88ffdf3d7ca2d04bcec10f1fb3aef2128f70f48b2",
        "summary": "7349e9e7530fd2fa965d33d85d932a638e3241de4e7d702ece1a33b3a5703301",
        "learned": "df916e9003853f34efda04880af2a1512b8f0825aa4bd4e9180a80b59932fc33",
    },
    ("scenario2", "det-net"): {
        "report": "9aaa4eb5ae529f75ce4d4c33387a8b2d5f700642a53c47b19b6a92f221f3a512",
        "summary": "4a60d5a4e330847d6d6fdf622e1f3e4b888c004096a9cc3e5677d7f3559fd363",
        "learned": "5c66c2a56651fbcccdc5e6d7d08b005f771493d9e61d6344f818502975b05d6a",
    },
    ("scenario2", "mc-dropout"): {
        "report": "9f8c74e5e88a8053fa1bfc2a1d5d144cfb1b003d30830c98603234d8dc701e90",
        "summary": "cdb1a92de0299060958a79995a0b7e45d636920ed2519998c85f4a158d839e95",
        "learned": "bf019709a9c31da4c3f6af8a1b6f42445974a3d6ba9886efe8e33abe96a83083",
    },
    ("fig3", "tabular"): {
        "report": "d29a63417ba6a98571653cb43abebc334c1d4f5e63ec3e33154aab09390c5d97",
        "summary": "b5a5ac923d859ab34ce69ecc4808c9f4c1d3f0618e356f2b4d1f4441456ec0e3",
        "learned": "4b32bb24f4f6f5b132dbfd5001f92d2eef2245d73d7f41d2f0287723a31ebc92",
    },
    ("fig3", "det-net"): {
        "report": "d29a63417ba6a98571653cb43abebc334c1d4f5e63ec3e33154aab09390c5d97",
        "summary": "82994182e2649e8188577b470bd5813d2fe9ecc98c59c3a8242f2ff3454570ec",
        "learned": "56a8c44c422417ac93a1a2d388784ff939f8bd9ad1a2c2b1a9122a1cb059fb38",
    },
    ("fig3", "mc-dropout"): {
        "report": "d29a63417ba6a98571653cb43abebc334c1d4f5e63ec3e33154aab09390c5d97",
        "summary": "4238bb0b45684bdc5e79f017dfd4d4b07cd73f92db5fe4608ddfb5c5652e13f6",
        "learned": "1a5d58c2f1de5ad18ba6d29a8bc95ed480d350c5453b9fed7a0a7dde6353e26a",
    },
}

TRAIN_CASES = (
    ("adjusted-dyna-q", "on", "mc-dropout"),
    ("q-learning", "off", "tabular"),
    ("dyna-q", "on", "det-net"),
)
# (algorithm, transfer, model) -> digests of the `train` command's artifacts
TRAIN_GOLDEN = {
    ("adjusted-dyna-q", "on", "mc-dropout"): {
        "qtable.json": "cccac5c97f74ff4e95f18896a8a4fbc68a33d50ecf6a61983d79ac0836b26247",
        "convergence_episodes.csv": "728e7cb05f114771e27bb7696ec719090ef3efdbe20b5884ef12d59624e9595a",
        "convergence_iterations.csv": "849a598f8c866d1bd819e153125d6b1000d604e8ceb90082a5c9a1c615f6b0de",
    },
    ("q-learning", "off", "tabular"): {
        "qtable.json": "b5c36557928e49bab87e180689face3fa503913021c2d81ed1ad5f86e07bbfb7",
        "convergence_episodes.csv": "1f169f5644ce4c47b1934d25c7451f7d57626055dac0dcf78ece00247a3ec7b5",
        "convergence_iterations.csv": "b4a149efeb3f2672f15c7042d6b2bb44ebdfb5b7f3e91caa07d127e1399c931e",
    },
    ("dyna-q", "on", "det-net"): {
        "qtable.json": "688e3ce3da7adebc8e52a8ffe438cb597b1978066478812c76992e0061aa6770",
        "convergence_episodes.csv": "728e7cb05f114771e27bb7696ec719090ef3efdbe20b5884ef12d59624e9595a",
        "convergence_iterations.csv": "849a598f8c866d1bd819e153125d6b1000d604e8ceb90082a5c9a1c615f6b0de",
    },
}
TRAIN_FILES = ("qtable.json", "convergence_episodes.csv", "convergence_iterations.csv")

# flag set -> digest of `evaluate`'s stdout on the q-learning train case's Q-table
EVALUATE_FLAGS = {
    "given": ("--days", "5", "--repetitions", "3", "--seed", "4", "--sigma2", "3.0"),
    "defaults": (),
}
EVALUATE_GOLDEN = {
    "given": "8e73ac883589c3165b6a62ff14cdc881f146488d94750f7028e438a4d2d0bbb8",
    "defaults": "ff3817c9f1342d6ded895f061df6dcf6612b3837f63e961a81a23fea3235b31d",
}
# digest of `forecast --horizon 4 --seed 6`'s offline_demand.csv on the tiny config
FORECAST_GOLDEN = "4a8261ce8e206ab8b44ca935da0ff0ba9d616f7a753a684f70cd87f2ebf9da0c"


def _hash_learned(h, q, model) -> None:
    h.update(np.array(q, dtype=float).tobytes())
    if model.variant == "tabular":
        h.update(np.array(model.demand_counts).tobytes())
        h.update(repr(model.cost_sums).encode())
    else:
        for net in (model.transition_net, model.cost_net):
            for p in parameters(net):
                h.update(p.tobytes())


def run_case(experiment: str, variant: str, out_dir: Path) -> dict:
    """sha256 digests of one case's output files and learned bits."""
    learned = hashlib.sha256()
    train, make_warm_start = bench.train, bench.make_warm_start

    def hashing_train(*args, **kwargs):
        agent = train(*args, **kwargs)
        _hash_learned(learned, agent.q, agent.model)
        return agent

    def hashing_warm_start(*args, **kwargs):
        warm = make_warm_start(*args, **kwargs)
        _hash_learned(learned, warm.q, warm.model)
        return warm

    spec = bench.ExperimentSpec(name="golden", out_dir=str(out_dir), model_variant=variant, **TINY)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "train", hashing_train)
        mp.setattr(bench, "make_warm_start", hashing_warm_start)
        RUNNERS[experiment](spec)
    digests = {
        kind: hashlib.sha256((out_dir / f"{experiment}_{name}").read_bytes()).hexdigest()
        for kind, name in FILES.items()
    }
    digests["learned"] = learned.hexdigest()
    return digests


def _write_config(out_dir: Path) -> Path:
    config = out_dir / "config.json"
    config.write_text(json.dumps(
        {**TINY, "train_episodes": 2, "initial_state": dataclasses.astuple(TINY["initial_state"])}
    ))
    return config


def run_train_case(algorithm: str, transfer: str, variant: str, out_dir: Path) -> dict:
    """sha256 digests of the `train` command's artifacts for one tiny config."""
    config = _write_config(out_dir)
    code = cli.main([
        "train", "--config", str(config), "--out", str(out_dir),
        "--algorithm", algorithm, "--transfer", transfer, "--model", variant,
    ])
    assert code == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in TRAIN_FILES}


def run_evaluate_case(flags, out_dir: Path) -> str:
    """sha256 of `evaluate`'s stdout on the q-learning train case's Q-table."""
    run_train_case("q-learning", "off", "tabular", out_dir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["evaluate", "--qtable", str(out_dir / "qtable.json"), *flags])
    assert code == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def run_forecast_case(out_dir: Path) -> str:
    """sha256 of the offline series `forecast` writes for the tiny config."""
    code = cli.main([
        "forecast", "--config", str(_write_config(out_dir)), "--out", str(out_dir),
        "--horizon", "4", "--seed", "6",
    ])
    assert code == 0
    return hashlib.sha256((out_dir / "offline_demand.csv").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def case_digests(tmp_path_factory):
    """Runs each case once per module; the tests below compare its digests."""
    cache = {}

    def get(experiment, variant):
        if (experiment, variant) not in cache:
            out_dir = tmp_path_factory.mktemp(f"{experiment}-{variant}")
            cache[experiment, variant] = run_case(experiment, variant, out_dir)
        return cache[experiment, variant]

    return get


@pytest.mark.parametrize("experiment, variant", sorted(GOLDEN))
def test_records_match_golden_digest(experiment, variant, case_digests):
    assert case_digests(experiment, variant)["records"] == GOLDEN[experiment, variant]


@pytest.mark.parametrize("kind", ["report", "summary", "learned"])
@pytest.mark.parametrize("experiment, variant", sorted(GOLDEN_MORE))
def test_outputs_and_learned_bits_match_golden_digest(experiment, variant, kind, case_digests):
    assert case_digests(experiment, variant)[kind] == GOLDEN_MORE[experiment, variant][kind]


@pytest.mark.parametrize("algorithm, transfer, variant", TRAIN_CASES)
def test_train_command_artifacts_match_golden_digest(algorithm, transfer, variant, tmp_path):
    assert run_train_case(algorithm, transfer, variant, tmp_path) == TRAIN_GOLDEN[
        algorithm, transfer, variant
    ]


@pytest.mark.parametrize("flags", sorted(EVALUATE_FLAGS))
def test_evaluate_command_output_matches_golden_digest(flags, tmp_path):
    assert run_evaluate_case(EVALUATE_FLAGS[flags], tmp_path) == EVALUATE_GOLDEN[flags]


def test_forecast_command_series_matches_golden_digest(tmp_path):
    assert run_forecast_case(tmp_path) == FORECAST_GOLDEN


if __name__ == "__main__":
    import tempfile

    more = []
    for experiment in RUNNERS:
        for variant in VARIANTS:
            with tempfile.TemporaryDirectory() as tmp:
                digests = run_case(experiment, variant, Path(tmp))
            print(f'    ("{experiment}", "{variant}"): "{digests.pop("records")}",')
            more.append(f'    ("{experiment}", "{variant}"): {{')
            more += [f'        "{kind}": "{digest}",' for kind, digest in digests.items()]
            more.append("    },")
    print("\n".join(more))
    for case in TRAIN_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_train_case(*case, Path(tmp))
        print("    (" + ", ".join(f'"{part}"' for part in case) + "): {")
        print("\n".join(f'        "{name}": "{digest}",' for name, digest in digests.items()))
        print("    },")
    for flags in EVALUATE_FLAGS:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{flags}": "{run_evaluate_case(EVALUATE_FLAGS[flags], Path(tmp))}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'FORECAST_GOLDEN = "{run_forecast_case(Path(tmp))}"')
