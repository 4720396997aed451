"""Check that the tests see each kept mutant of a last-bit path.

A mutant is a file, an exact old -> new text in it, and the test ids that
must fail with the change made. The record digests miss changes like
these, which move only the last bits of a result or act only on rare
inputs, so each one names the oracle test that sees it.

For each mutant the script copies src/ and tests/ into a temporary
directory, replaces the old text (which must occur exactly once) and runs
the mutant's tests there with pytest. It first runs every listed test on an
unchanged copy, since a test that fails anyway shows nothing. It exits
non-zero if a listed test passes under its mutant, fails on the unchanged
copy, or is not found.

    python scripts/mutants.py                     # every mutant
    python scripts/mutants.py skip-pmf-normalise  # the named ones
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NN = "src/coldstart_dynaq/nn.py"
FORECAST = "src/coldstart_dynaq/forecast.py"
BENCH = "src/coldstart_dynaq/bench.py"
ENVMODEL = "src/coldstart_dynaq/envmodel.py"
WORDSTREAM = "src/coldstart_dynaq/wordstream.py"
QCORE = "src/coldstart_dynaq/qcore.py"
INCGAMMA = "src/coldstart_dynaq/incgamma.py"
AGENTS = "src/coldstart_dynaq/agents.py"
ENV = "src/coldstart_dynaq/env.py"


def _transfer_references(*variants: str) -> list[str]:
    """The reference learner's transfer cases, Dyna-Q and adjusted Dyna-Q on each variant."""
    return [
        "tests/test_agents.py::test_train_matches_the_reference_learner"
        f"[{algorithm}-1-{v}-transfer]"
        for v in variants for algorithm in ("dyna-q", "adjusted-dyna-q")
    ]


# name: (file, old text, new text, test ids that must fail)
MUTANTS = {
    # the reference day serves the freshest bucket first; the hot path reads
    # the day tables, so no record digest sees it
    "step-serves-newest-first": (
        ENV,
        "max(x1 - demand, 0), max(x2 - max(demand - x1, 0), 0), max(x3 - max(demand - x1 - x2, 0), 0)",
        "max(x1 - max(demand - x3 - x2, 0), 0), max(x2 - max(demand - x3, 0), 0), max(x3 - demand, 0)",
        [
            "tests/test_env.py::TestConsumeDemand::test_matches_unit_greedy_oracle",
            "tests/test_env.py::test_day_tables_equal_step_everywhere",
            "tests/test_acceptance.py::TestCriterion2::test_fifo_exhaustive_brute_force",
        ],
    ),
    # each later MC-dropout layer as one 2-D (rows * samples, width) @ W product
    "mc-predict-2d-product": (
        NN,
        "z = (a.reshape(rows * samples, 1, width) @ w)",
        "z = (a.reshape(rows * samples, width) @ w)",
        [
            "tests/test_nn.py::test_stacked_mc_predict_matches_one_row_reads",
            "tests/test_agents.py::"
            "test_train_matches_the_reference_learner[dyna-q-1-mc-dropout]",
            "tests/test_agents.py::"
            "test_train_matches_the_reference_learner[adjusted-dyna-q-1-mc-dropout]",
        ],
    ),
    # an MC-dropout read keeps a unit whose uniform is exactly keep; the
    # records cannot see it, since a uniform equals 0.5 with probability 2**-53
    "mc-mask-keeps-at-keep": (
        NN,
        "kept = U < keep",
        "kept = U <= keep",
        ["tests/test_nn.py::test_a_uniform_at_keep_drops_its_unit[mc_predict]"],
    ),
    # a training step keeps a unit whose uniform is exactly keep
    "train-mask-keeps-at-keep": (
        NN,
        "np.less(u, self.keep, out=u)",
        "np.less_equal(u, self.keep, out=u)",
        ["tests/test_nn.py::test_a_uniform_at_keep_drops_its_unit[train_step]"],
    ),
    # a det-net burst read as one 2-D (pairs, 4) @ W product per layer
    "det-net-2d-product": (
        NN,
        "        return forward(net, X)\n",
        "        return _forward(net, X[:, 0])[:, None]\n",
        [
            "tests/test_envmodel.py::test_plan_draws_as_the_per_pair_loop[det-net]",
            "tests/test_envmodel.py::TestDetNetReads::test_planned_costs_are_one_pair_reads",
            "tests/test_agents.py::test_train_matches_the_reference_learner[dyna-q-1-det-net]",
        ],
    ),
    # a det-net burst's distinct-pair reads zipped with its draws in first-seen
    # order, not mapped back to each draw's pair
    "det-net-reads-unmapped": (
        ENVMODEL,
        "    if reads is not slots:\n"
        "        preds = map(dict(zip(reads, preds)).__getitem__, slots)\n",
        "",
        [
            "tests/test_envmodel.py::test_plan_draws_as_the_per_pair_loop[det-net]",
            "tests/test_agents.py::test_train_matches_the_reference_learner[dyna-q-1-det-net]",
            "tests/test_agents.py::"
            "test_train_matches_the_reference_learner[adjusted-dyna-q-1-det-net]",
        ],
    ),
    # Adam's step as lr * (m_hat / denominator) instead of (lr * m_hat) / denominator
    "adam-step-order": (
        NN,
        "        step = np.multiply(ADAM_LR, m_hat, out=scratch[0])\n"
        "        np.sqrt(v_hat, out=v_hat)\n"
        "        v_hat += ADAM_EPS\n"
        "        step /= v_hat\n",
        "        step = np.divide(m_hat, np.sqrt(v_hat, out=v_hat) + ADAM_EPS, out=scratch[0])\n"
        "        step *= ADAM_LR\n",
        [
            "tests/test_nn.py::test_train_step_matches_per_array_reference",
            "tests/test_agents.py::"
            "test_train_matches_the_reference_learner[dyna-q-1-mc-dropout]",
            "tests/test_agents.py::"
            "test_train_matches_the_reference_learner[adjusted-dyna-q-1-mc-dropout]",
        ],
    ),
    # Adam stops dividing m by 1 - beta1**t one step early, at t = 355,
    # where that correction is still one ulp below 1
    "adam-skip-divide-early": (
        NN,
        "        if c1 == 1.0:\n",
        "        if t >= 355:\n",
        [
            "tests/test_nn.py::test_train_step_matches_reference_once_the_first_correction_is_one",
            "tests/test_forecast.py::TestTrainForecaster::test_fit_matches_the_per_batch_reference",
        ],
    ),
    # each epoch's mask uniforms are drawn before its permutation, as one
    # block drawn ahead of the epoch would take them
    "masks-before-permutation": (
        FORECAST,
        "        order = rng.permutation(n)\n"
        "        # one gather per epoch; each batch is a slice of it\n"
        "        X_epoch, y_epoch = X[order], y[order]\n"
        "        for start in range(0, n, _BATCH_SIZE):\n"
        "            end = start + _BATCH_SIZE\n"
        "            nn.train_step(net, adam, X_epoch[start:end], y_epoch[start:end], rng=rng)\n",
        "        masks_rng = np.random.Generator(np.random.PCG64())\n"
        "        masks_rng.bit_generator.state = rng.bit_generator.state\n"
        "        rng.random(n * nn.mask_width(net))\n"
        "        order = rng.permutation(n)\n"
        "        X_epoch, y_epoch = X[order], y[order]\n"
        "        for start in range(0, n, _BATCH_SIZE):\n"
        "            end = start + _BATCH_SIZE\n"
        "            nn.train_step(net, adam, X_epoch[start:end], y_epoch[start:end], rng=masks_rng)\n",
        ["tests/test_forecast.py::TestTrainForecaster::test_fit_matches_the_per_batch_reference"],
    ),
    # a copied or pickled net copies each parameter view on its own,
    # detached from its copied flat vector, which training then updates
    "net-copy-detached-views": (
        NN,
        "    def __reduce__(self):\n",
        "    def _reduce_unused(self):\n",
        [
            "tests/test_nn.py::test_restored_net_keeps_its_parameters_on_its_flat_vector",
            "tests/test_nn.py::test_copied_env_model_trains_like_the_original",
        ],
    ),
    # planning draws from the softmax output without normalising it
    "skip-pmf-normalise": (
        ENVMODEL,
        "    pmfs /= pmfs.sum(axis=-1, keepdims=True)\n",
        "",
        [
            "tests/test_envmodel.py::test_planned_demand_is_drawn_from_the_normalised_pmf[det-net]",
            "tests/test_envmodel.py::test_planned_demand_is_drawn_from_the_normalised_pmf[mc-dropout]",
        ],
    ),
    # a planning burst's rejected pair is drawn by integers(), which here
    # keeps its first 32-bit half without Lemire's rejection
    "burst-no-rejection": (
        WORDSTREAM,
        "            if m & _LOW >= n or m & _LOW >= (_HALF - n) % n:\n",
        "            if True:\n",
        [
            "tests/test_wordstream.py::test_stream_matches_numpy_draw_for_draw",
            "tests/test_wordstream.py::test_burst_matches_interleaved_draws",
            "tests/test_wordstream.py::test_any_interleaving_of_draws_matches_numpy",
        ],
    ),
    # a burst keeps every pair index of its slice of the pair cache without
    # Lemire's rejection, where integers() would draw again
    "burst-slice-no-rejection": (
        WORDSTREAM,
        "            rejected = floor and low.min() < floor\n",
        "            rejected = False\n",
        [
            "tests/test_wordstream.py::test_burst_matches_interleaved_draws",
            "tests/test_wordstream.py::test_any_interleaving_of_draws_matches_numpy",
        ],
    ),
    # a stream that leaves the pair cache after an odd number of pairs drops
    # the pending high half, so the next 32-bit draw takes a fresh word
    "unpair-drops-pending-half": (
        WORDSTREAM,
        "                self._cached, self._half = True, int(self._halves[pos])\n",
        "                self._cached = False\n",
        [
            "tests/test_wordstream.py::test_burst_matches_interleaved_draws",
            "tests/test_wordstream.py::test_any_interleaving_of_draws_matches_numpy",
        ],
    ),
    # q_update keeps a row's cached minimum when the entry holding it rises
    "row-min-no-recompute": (
        QCORE,
        "        elif old == low < new:\n            mins[s] = min(row)\n",
        "",
        [
            "tests/test_qcore.py::test_row_minima_stay_exact_and_leave_the_rows_as_a_full_scan_does",
            "tests/test_qcore.py::test_rows_match_the_numpy_reference_bit_for_bit",
            "tests/test_agents.py::test_train_matches_the_reference_learner",
        ],
    ),
    # a tabular planning burst keeps a row's cached minimum when the entry
    # holding it rises; q_update's own copy of the rule is the one above
    "planned-row-min-no-recompute": (
        ENVMODEL,
        "            elif old == low < new:\n                mins[ps] = min(row)\n",
        "",
        [
            "tests/test_envmodel.py::test_tabular_burst_on_one_visited_pair",
            "tests/test_envmodel.py::test_plan_draws_as_the_per_pair_loop[tabular]",
            "tests/test_agents.py::test_train_matches_the_reference_learner",
        ],
    ),
    # a warm start's copied Q-table hands out the same row lists, so a
    # transfer configuration trains the warm start's own rows and the next
    # configuration of the replication starts from them
    "qtable-copy-shares-rows": (
        AGENTS,
        "        q = [row[:] for row in warm.q]\n",
        "        q = list(warm.q)\n",
        [
            "tests/test_qcore.py::test_learner_q_is_current_after_every_step",
            "tests/test_golden.py::test_records_match_golden_digest[scenario2-tabular]",
            *_transfer_references("tabular", "det-net", "mc-dropout"),
        ],
    ),
    # the learner takes any learning rate; the learner is the one place
    # alpha is checked, a warm-started configuration's too
    "learner-alpha-unchecked": (
        AGENTS,
        "        if not (0.0 < alpha < 1.0):\n"
        "            raise ValueError(f\"alpha must be in (0,1), got {alpha}\")\n",
        "",
        [
            "tests/test_agents.py::TestTrain::"
            "test_refuses_learning_params_out_of_range_with_or_without_a_warm_start",
            "tests/test_qcore.py::test_invalid_learning_params",
        ],
    ),
    # borrow() lends the generator without rewinding the stream's unused
    # words; an MC-dropout learner's stream never buffers any, so the record
    # digests cannot see this
    "borrow-no-rewind": (
        WORDSTREAM,
        "        self.close()\n        try:\n",
        "        try:\n",
        ["tests/test_wordstream.py::test_borrow_lends_the_generator_where_the_stream_left_it"],
    ),
    # a tabular pair's mean cost is set on its first visit and never again;
    # the small golden runs seldom revisit a pair, so most digests miss it
    "tabular-cost-mean-stale": (
        ENVMODEL,
        "        m.cost_means[i] = m.cost_sums[i] / m.cost_counts[i]\n",
        "        if m.cost_counts[i] == 1:\n"
        "            m.cost_means[i] = m.cost_sums[i] / m.cost_counts[i]\n",
        [
            "tests/test_envmodel.py::TestTabularUpdate::"
            "test_cost_means_are_the_quotients_after_every_update",
            "tests/test_golden.py::test_outputs_and_learned_bits_match_golden_digest"
            "[scenario2-tabular-learned]",
            "tests/test_agents.py::test_train_matches_the_reference_learner",
        ],
    ),
    # recovery takes the first demand reaching the next state and ignores the cost
    "recover-ignores-cost": (
        ENVMODEL,
        "    if row.count(s_next) > 1:\n",
        "    if False:\n",
        [
            "tests/test_envmodel.py::TestRecoverDemand::test_every_transition_of_the_default_spaces",
            "tests/test_agents.py::test_train_matches_the_reference_learner",
        ],
    ),
    # fig3's probe reads an MC-dropout model on a copy of the model's own
    # stream 3 instead of stream 4; tabular and det-net reads draw nothing
    "probe-on-model-stream": (
        BENCH,
        "derived_rng(seed, 4)",
        "derived_rng(seed, 3)",
        ["tests/test_golden.py::test_records_match_golden_digest[fig3-mc-dropout]"],
    ),
    # the warm start plans nothing and so, unless told to, never fits the
    # model it hands to the transfer configurations
    "warm-start-unfitted": (
        FORECAST,
        "        learner.fits_model = True\n",
        "",
        [
            *(
                "tests/test_golden.py::test_outputs_and_learned_bits_match_golden_digest"
                f"[scenario2-{variant}-learned]"
                for variant in ("tabular", "det-net", "mc-dropout")
            ),
            *_transfer_references("tabular", "det-net", "mc-dropout"),
        ],
    ),
    # a warm start's model copy keeps a copy of the warm start's generator,
    # so a transfer configuration's MC-dropout masks are not its own stream's
    "copy-keeps-model-generator": (
        ENVMODEL,
        " | {id(self.rng): rng}",
        "",
        [
            "tests/test_nn.py::"
            "test_model_copy_trains_on_its_own_generator_and_copies_only_adam_moments",
            *(
                "tests/test_golden.py::test_outputs_and_learned_bits_match_golden_digest"
                f"[{experiment}-mc-dropout-learned]"
                for experiment in ("scenario1", "scenario2")
            ),
            *_transfer_references("mc-dropout"),
        ],
    ),
    # an episode's total is the correctly rounded sum of its days, as
    # Python 3.12's compensated sum() comes close to, not left-to-right addition
    "episode-total-compensated": (
        AGENTS,
        "        total_cost=total,\n",
        "        total_cost=__import__('math').fsum(daily_costs),\n",
        [
            "tests/test_agents.py::TestTrain::test_episode_total_adds_the_days_left_to_right",
            "tests/test_golden.py::test_records_match_golden_digest[scenario1-tabular]",
        ],
    ),
    # the Gamma CDF's continued fraction stops at twice Cephes' tolerance
    "igamc-cf-loose-stop": (
        INCGAMMA,
        "        if t <= MACHEP:\n",
        "        if t <= 2 * MACHEP:\n",
        [
            "tests/test_incgamma.py::test_random_pairs_of_each_branch[continued-fraction]",
            "tests/test_incgamma.py::test_every_shape_and_edge_of_the_spec_grid",
        ],
    ),
    # one coefficient of Temme's expansion, d[0][1] = 1/12, one ulp off
    "igam-d-entry-rounded": (
        INCGAMMA,
        "-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,",
        "-0.3333333333333333, 0.08333333333333334, -0.014814814814814815,",
        [
            "tests/test_incgamma.py::test_random_pairs_of_each_branch[asymptotic-mid]",
            "tests/test_incgamma.py::test_random_pairs_of_each_branch[asymptotic-large]",
            "tests/test_incgamma.py::test_every_shape_and_edge_of_the_spec_grid",
        ],
    ),
    # Temme's expansion stops one row short of the cut table, or one column
    # short in each row; the terms left out sit below half an ulp of every
    # result scipy was compared on, so only the bound test sees them
    "igam-table-row-short": (
        INCGAMMA,
        "    for d in _IGAM_D:\n",
        "    for d in _IGAM_D[:-1]:\n",
        ["tests/test_incgamma.py::test_cut_table_is_never_exhausted"],
    ),
    "igam-table-column-short": (
        INCGAMMA,
        "        for n in range(1, len(d)):\n",
        "        for n in range(1, len(d) - 1):\n",
        ["tests/test_incgamma.py::test_cut_table_is_never_exhausted"],
    ),
}

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def run_tests(tree: Path, ids: list[str]) -> tuple[dict[str, str], str]:
    """Each id's outcome (PASSED, FAILED or ERROR) in tree, and pytest's output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return dict((m[2], m[1]) for m in _OUTCOME.finditer(proc.stdout)), proc.stdout


def cases(outcomes: dict[str, str], test_id: str) -> list[str]:
    """The outcomes of test_id: its own, or those of all its parametrised cases."""
    return [o for k, o in outcomes.items() if k == test_id or k.startswith(test_id + "[")]


def main(names: list[str]) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}; choose from {sorted(MUTANTS)}")
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        ids = sorted({i for *_, tests in chosen.values() for i in tests})
        outcomes, out = run_tests(clean, ids)
        for i in ids:
            got = cases(outcomes, i)
            if not got or any(o != "PASSED" for o in got):
                bad.append(f"{i} does not pass on the unchanged tree")
        if bad:
            print(out)
        for name, (file, old, new, tests) in chosen.items():
            tree = Path(tmp) / name
            copy_tree(tree)
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                bad.append(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
                continue
            path.write_text(text.replace(old, new))
            outcomes, _ = run_tests(tree, tests)
            # a parametrised test fails when one of its cases does
            missed = [i for i in tests if "FAILED" not in cases(outcomes, i)]
            print(f"{name}: {len(tests) - len(missed)} of {len(tests)} tests fail")
            bad += [f"{name}: {i} does not fail" for i in missed]
    for line in bad:
        print(f"error: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
