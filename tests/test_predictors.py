"""Predictors, losses, exact/empirical risks, ERM, and selection rules.

Closed forms for the two-state composite fixture (base [[0.9, 0.1],
[0.2, 0.8]], stationary (2/3, 1/3)): the Bayes table maps each context to
itself with risk 2/15, the constant-0 table has risk 1/3, and the table
disagreeing with Bayes everywhere has risk 13/15.
"""

import itertools

import numpy as np
import pytest

from markov_holdout import (
    DimensionMismatchError,
    EmptySegmentError,
    HigherOrderChainSpec,
    LossSpec,
    PredictorTable,
    RangeError,
    SeedSpec,
    bayes_predictor,
    conditional_risk,
    disagreement_variance,
    erm_fit,
    erm_losses,
    exact_risk,
    holdout_select,
    markovize,
    oracle_select,
    sample_stationary_trajectory,
    state_losses,
)


# ---------------------------------------------------------------------------
# specs and tables


def test_misclassification_loss_table():
    loss = LossSpec.misclassification(3)
    assert loss.table == pytest.approx(1.0 - np.eye(3))
    assert loss.symbols == 3


def test_loss_spec_validation():
    with pytest.raises(RangeError):
        LossSpec(np.array([[0.0, 2.0], [1.0, 0.0]]))  # entries must be in [0,1]
    with pytest.raises(DimensionMismatchError):
        LossSpec(np.array([[0.0, 1.0]]))


def test_predictor_table_validation():
    PredictorTable(1, 2, np.array([0, 1]))
    with pytest.raises(DimensionMismatchError):
        PredictorTable(1, 2, np.array([0, 1, 0]))
    with pytest.raises(RangeError):
        PredictorTable(1, 2, np.array([0, 2]))


def test_predictions_read_the_right_context(two_state_chain):
    # memory-1 table [a, b] reads y_{t-1}; composite label 2*y_t + y_{t-1}
    g = PredictorTable(1, 2, np.array([1, 0]))
    assert g.predictions(two_state_chain).tolist() == [1, 0, 1, 0]
    g0 = PredictorTable(0, 2, np.array([1]))
    assert g0.predictions(two_state_chain).tolist() == [1, 1, 1, 1]


def test_predictions_memory_two(order2_chain):
    table = np.array([0, 1, 1, 0])   # indexed by (y_{t-1}, y_{t-2})
    g = PredictorTable(2, 2, table)
    expected = [table[x % 4] for x in range(8)]
    assert g.predictions(order2_chain).tolist() == expected


# ---------------------------------------------------------------------------
# exact risks


def test_bayes_predictor_two_state(two_state_chain, zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    assert g.order == two_state_chain.embedding_order
    assert g.table.tolist() == [0, 1]
    assert exact_risk(g, two_state_chain, zero_one_loss) == pytest.approx(
        2.0 / 15.0, abs=1e-12)


def test_bayes_predictor_order_two(order2_chain, zero_one_loss):
    g = bayes_predictor(order2_chain, zero_one_loss)
    assert g.table.tolist() == [0, 0, 1, 1]
    assert exact_risk(g, order2_chain, zero_one_loss) == pytest.approx(
        1.0 / 6.0, abs=1e-12)


def test_bayes_ties_break_to_lowest_symbol(iid_chain, zero_one_loss):
    g = bayes_predictor(iid_chain, zero_one_loss)
    assert g.table.tolist() == [0, 0]


def test_bayes_depends_on_loss(two_state_chain):
    # pricing a false alarm at 0.2 makes predicting 0 optimal even when
    # P(1 | context) = 0.8: cost(0) = 0.2 * 0.8 = 0.16 < cost(1) = 0.2
    loss = LossSpec(np.array([[0.0, 0.2], [1.0, 0.0]]))
    g = bayes_predictor(two_state_chain, loss)
    assert g.table.tolist() == [0, 0]


def test_constant_and_anti_bayes_risks(two_state_chain, zero_one_loss):
    const0 = PredictorTable(0, 2, np.array([0]))
    assert exact_risk(const0, two_state_chain, zero_one_loss) == pytest.approx(
        1.0 / 3.0, abs=1e-12)
    anti = PredictorTable(1, 2, np.array([1, 0]))
    assert exact_risk(anti, two_state_chain, zero_one_loss) == pytest.approx(
        13.0 / 15.0, abs=1e-12)


def test_state_losses_shape_and_values(two_state_chain, zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    ell = state_losses(g, two_state_chain, zero_one_loss)
    # Bayes table (0, 1): loss is 1 exactly when target != context symbol
    assert ell.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_exact_risk_of_exhaustive_tables_brackets_bayes(two_state_chain,
                                                        zero_one_loss):
    risks = []
    for table in itertools.product(range(2), repeat=2):
        g = PredictorTable(1, 2, np.array(table))
        risks.append(exact_risk(g, two_state_chain, zero_one_loss))
    assert min(risks) == pytest.approx(2.0 / 15.0, abs=1e-12)
    assert max(risks) == pytest.approx(13.0 / 15.0, abs=1e-12)


# ---------------------------------------------------------------------------
# empirical risk


def losses_of(cands, chain, loss):
    """Loss matrix whose row k is candidate k's per-state losses."""
    return np.stack([state_losses(g, chain, loss) for g in cands])


def visits(states, n_states=4):
    """State-visit counts of a segment; 4 is the two-state fixture's S."""
    return np.bincount(states, minlength=n_states)


def test_empirical_risk_hand_computed(two_state_chain, zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)   # table (0, 1)
    losses = losses_of([g], two_state_chain, zero_one_loss)
    segment = np.array([0, 3, 2])
    # losses per state: 0 -> 0, 3 -> 0, 2 -> 1
    assert holdout_select(losses,
                          visits(segment))[1][0] == pytest.approx(1.0 / 3.0)
    assert holdout_select(losses,
                          visits(segment[1:]))[1][0] == pytest.approx(0.5)


def test_empirical_risk_rejects_exhausted_segment(two_state_chain,
                                                  zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    losses = losses_of([g], two_state_chain, zero_one_loss)
    with pytest.raises(EmptySegmentError):
        holdout_select(losses, visits(np.array([0, 1])[2:]))


def test_empirical_risk_concentrates_on_exact(two_state_chain, zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    traj = sample_stationary_trajectory(two_state_chain, 1, 1_000_000,
                                        SeedSpec(4242))
    emp = holdout_select(losses_of([g], two_state_chain, zero_one_loss),
                         visits(traj[1:]))[1][0]
    # correlated Bernoulli mean; 0.003 is ~3 effective SEs at this length
    assert abs(emp - 2.0 / 15.0) < 0.003


# ---------------------------------------------------------------------------
# ERM


def test_erm_hand_computed(two_state_chain, zero_one_loss):
    # states [0, 2, 2, 3, 1]: contexts (0,0,0,1,1), targets (0,1,1,1,0)
    learn = np.array([0, 2, 2, 3, 1])
    g1 = erm_fit(two_state_chain, 1, visits(learn), zero_one_loss)
    assert g1.table.tolist() == [1, 0]
    g0 = erm_fit(two_state_chain, 0, visits(learn), zero_one_loss)
    assert g0.table.tolist() == [1]


def test_erm_tie_breaks_to_lowest_symbol(two_state_chain, zero_one_loss):
    learn = np.array([0, 2])         # context 0 sees targets {0, 1}
    g = erm_fit(two_state_chain, 1, visits(learn), zero_one_loss)
    assert g.table[0] == 0


def test_erm_unseen_context_falls_back_to_global_majority(two_state_chain,
                                                          zero_one_loss):
    # all learning states have context y_{t-1} = 0, majority target 1
    learn = np.array([2, 2, 0])
    g = erm_fit(two_state_chain, 1, visits(learn), zero_one_loss)
    assert g.table[0] == 1     # seen context: majority of (1, 1, 0)
    assert g.table[1] == 1     # unseen context: global majority target


def test_erm_respects_training_loss(two_state_chain):
    # context 0 sees targets (1, 1, 0, 0, 0); with symmetric loss the
    # majority wins, with an asymmetric loss the argmin flips
    learn = np.array([2, 2, 0, 0, 0])
    sym = LossSpec.misclassification(2)
    assert erm_fit(two_state_chain, 1, visits(learn), sym).table[0] == 0
    skew = LossSpec(np.array([[0.0, 1.0], [0.1, 0.0]]))
    # cost(predict 0) = 2 misses * 1.0 = 2.0; cost(predict 1) = 3 * 0.1 = 0.3
    assert erm_fit(two_state_chain, 1, visits(learn), skew).table[0] == 1


def test_erm_matches_brute_force_on_random_streams(two_state_chain,
                                                   zero_one_loss):
    rng = np.random.default_rng(53)
    ctx = two_state_chain.context_index(1)
    tgt = two_state_chain.targets
    for _ in range(30):
        length = int(rng.integers(2, 9))
        learn = rng.integers(0, 4, size=length)
        g = erm_fit(two_state_chain, 1, visits(learn), zero_one_loss)
        achieved = np.mean(g.table[ctx[learn]] != tgt[learn])
        best = min(
            np.mean(np.array(tab)[ctx[learn]] != tgt[learn])
            for tab in itertools.product(range(2), repeat=2))
        assert achieved == pytest.approx(best, abs=1e-12)


def erm_oracle(chain, order_q, learn, loss):
    """ERM table tallied with np.add.at, the form the count table replaced."""
    s = chain.symbols
    contexts = chain.context_index(order_q)[learn]
    targets = chain.targets[learn]
    counts = np.zeros((s ** order_q, s))
    np.add.at(counts, (contexts, targets), 1.0)
    table = np.argmin(counts @ loss.table.T, axis=1)
    seen = counts.sum(axis=1) > 0
    table[~seen] = int(np.argmax(np.bincount(targets, minlength=s)))
    return table, bool((~seen).any())


@pytest.mark.parametrize("symbols,order,embedding", [(2, 2, 3), (3, 1, 2)])
def test_erm_count_table_matches_add_at_oracle(symbols, order, embedding):
    rng = np.random.default_rng(1307 + symbols)
    spec = HigherOrderChainSpec(
        symbols=symbols, order=order,
        conditional=rng.dirichlet(np.ones(symbols), size=symbols ** order))
    chain = markovize(spec, embedding)
    table = rng.random((symbols, symbols))
    np.fill_diagonal(table, 0.0)
    losses = [LossSpec.misclassification(symbols), LossSpec(table)]
    assert not np.allclose(table, table.T)      # asymmetric training loss
    fallbacks = 0
    for _ in range(40):
        # short segments leave high-order contexts unseen
        learn = rng.integers(0, chain.n_states,
                             size=int(rng.integers(1, 3 * symbols ** order)))
        for q in range(embedding + 1):
            for loss in losses:
                expected, unseen = erm_oracle(chain, q, learn, loss)
                fallbacks += unseen
                counts = visits(learn, chain.n_states)
                assert erm_fit(chain, q, counts, loss).table.tolist() == \
                    expected.tolist()
    assert fallbacks > 0


def test_erm_rejects_states_outside_range(two_state_chain, zero_one_loss):
    # counts hold one entry per state in [0, S): a state past the top one
    # lengthens them, and no state is visited a negative number of times
    top = two_state_chain.n_states - 1
    assert erm_fit(two_state_chain, 1, visits([0, top]),
                   zero_one_loss).table.tolist() == [0, 1]
    with pytest.raises(DimensionMismatchError):
        erm_fit(two_state_chain, 1, np.bincount([0, top + 1]), zero_one_loss)
    with pytest.raises(RangeError):
        erm_fit(two_state_chain, 1, np.array([2, 1, 0, -1]), zero_one_loss)


def test_erm_rejects_order_outside_embedding(two_state_chain, zero_one_loss):
    # checked before the count table is reshaped by s ** q
    for q in (-1, two_state_chain.embedding_order + 1):
        with pytest.raises(RangeError):
            erm_fit(two_state_chain, q, visits([0, 3]), zero_one_loss)


def test_erm_rejects_loss_of_another_alphabet(two_state_chain,
                                              zero_one_loss):
    # a 3-symbol loss on a binary chain: the training loss of a fit, the
    # loss its per-state losses are taken in, or the Bayes predictor's loss
    ternary = LossSpec.misclassification(3)
    counts = visits([0, 3])
    line = "^loss table symbol count mismatch$"
    with pytest.raises(DimensionMismatchError, match=line):
        erm_fit(two_state_chain, 1, counts, ternary)
    with pytest.raises(DimensionMismatchError, match=line):
        bayes_predictor(two_state_chain, ternary)
    for train, loss in [(ternary, zero_one_loss), (zero_one_loss, ternary)]:
        with pytest.raises(DimensionMismatchError, match=line):
            erm_losses(two_state_chain, (0, 1), counts[None], train, loss)


def test_erm_losses_match_per_row_fits():
    # the batched fit is erm_fit's rule on every row: same tables, so the
    # same per-state losses bit for bit, unseen contexts included
    rng = np.random.default_rng(1701)
    spec = HigherOrderChainSpec(
        symbols=3, order=1, conditional=rng.dirichlet(np.ones(3), size=3))
    chain = markovize(spec, 2)
    train = LossSpec(rng.random((3, 3)))
    loss = LossSpec(rng.random((3, 3)))
    orders = (2, 0, 1)
    counts = np.array([visits(rng.integers(0, chain.n_states,
                                           size=int(rng.integers(1, 30))),
                              chain.n_states) for _ in range(25)])
    batched = erm_losses(chain, orders, counts, train, loss)
    assert batched.shape == (25, 3, chain.n_states)
    for row, got in zip(counts, batched):
        expected = [state_losses(erm_fit(chain, q, row, train), chain, loss)
                    for q in orders]
        assert got.tolist() == np.array(expected).tolist()
    assert erm_losses(chain, orders, counts[3], train,
                      loss).tolist() == batched[3].tolist()
    with pytest.raises(EmptySegmentError):
        erm_losses(chain, orders, np.r_[counts[:2], counts[:1] * 0], train,
                   loss)


# ---------------------------------------------------------------------------
# selection rules


def test_selection_rules_reject_malformed_loss_matrix(two_state_chain):
    counts, stationary = visits([0, 3]), two_state_chain.stationary
    for call in (lambda losses: holdout_select(losses, counts),
                 lambda losses: oracle_select(losses, stationary)):
        # no candidate axis, or a state axis of another length
        for losses in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 5))):
            with pytest.raises(DimensionMismatchError):
                call(losses)
        with pytest.raises(RangeError):
            call(np.zeros((0, 4)))
    # a stack of loss matrices needs one segment's counts per matrix
    with pytest.raises(DimensionMismatchError):
        holdout_select(np.zeros((3, 2, 4)), counts)
    with pytest.raises(DimensionMismatchError):
        oracle_select(np.zeros((2, 4)), stationary[None])


@pytest.mark.parametrize("zero_one", [True, False])
def test_selection_rules_with_leading_axis_match_per_row_calls(zero_one):
    rng = np.random.default_rng(1703)
    losses = rng.random((30, 3, 12))
    if zero_one:
        losses = np.round(losses)
    losses[::7, 2] = losses[::7, 0]         # ties go to the lower index
    counts = rng.integers(0, 5, size=(30, 12))
    counts[:, 0] += 1
    stationary = rng.dirichlet(np.ones(12))
    index, risks = holdout_select(losses, counts)
    best, exact = oracle_select(losses, stationary)
    assert index.shape == best.shape == (30,)
    for r in range(30):
        one = holdout_select(losses[r], counts[r])
        assert isinstance(one[0], int) and index[r] == one[0]
        assert risks[r].tolist() == one[1].tolist()
        one = oracle_select(losses[r], stationary)
        assert isinstance(one[0], int) and best[r] == one[0]
        assert exact[r].tolist() == one[1].tolist()




def test_holdout_select_minimizes_empirical(two_state_chain, zero_one_loss):
    cands = [PredictorTable(1, 2, np.array([0, 1])),   # Bayes
             PredictorTable(1, 2, np.array([1, 0]))]   # anti-Bayes
    traj = sample_stationary_trajectory(two_state_chain, 1, 400, SeedSpec(61))
    losses = losses_of(cands, two_state_chain, zero_one_loss)
    idx, risks = holdout_select(losses, visits(traj[1:]))
    assert idx == 0
    assert risks[0] == pytest.approx(losses[0, traj[1:]].mean())
    assert risks[1] > risks[0]


def test_holdout_select_tie_prefers_lowest_index(two_state_chain,
                                                 zero_one_loss):
    g = PredictorTable(1, 2, np.array([0, 1]))
    twin = PredictorTable(1, 2, np.array([0, 1]))
    traj = sample_stationary_trajectory(two_state_chain, 1, 100, SeedSpec(67))
    idx, risks = holdout_select(
        losses_of([g, twin], two_state_chain, zero_one_loss),
        visits(traj[1:]))
    assert idx == 0
    assert risks[0] == risks[1]


def test_holdout_select_with_burn_gap(two_state_chain, zero_one_loss):
    g = PredictorTable(1, 2, np.array([0, 1]))
    segment = np.array([2, 0, 0, 3])
    losses = losses_of([g], two_state_chain, zero_one_loss)
    _, risks = holdout_select(losses, visits(segment[1:]))
    assert risks[0] == pytest.approx(losses[0, segment[1:]].mean())


def test_holdout_select_invariant_under_affine_loss_rescale(two_state_chain):
    # selection compares means, so g -> 0.5 L + 0.25 preserves the argmin
    base = LossSpec.misclassification(2)
    scaled = LossSpec(0.5 * base.table + 0.25)
    cands = [PredictorTable(1, 2, np.array(t))
             for t in itertools.product(range(2), repeat=2)]
    for seed in range(5):
        traj = sample_stationary_trajectory(two_state_chain, 1, 301,
                                            SeedSpec(71, seed))
        idx_a, _ = holdout_select(
            losses_of(cands, two_state_chain, base), visits(traj[1:]))
        idx_b, _ = holdout_select(
            losses_of(cands, two_state_chain, scaled), visits(traj[1:]))
        assert idx_a == idx_b


@pytest.mark.parametrize("zero_one", [True, False])
def test_holdout_count_form_matches_gathered_mean(zero_one):
    # risks from visit counts against the K x m gather they replaced: exact
    # for 0/1 losses, within the last digits for other loss tables
    rng = np.random.default_rng(1311)
    for _ in range(30):
        n_states = int(rng.integers(2, 40))
        losses = rng.random((4, n_states))
        if zero_one:
            losses = np.round(losses)
        segment = rng.integers(0, n_states, size=int(rng.integers(1, 5000)))
        for burn in (0, 1, len(segment) - 1):
            if burn >= len(segment):
                continue
            gathered = losses[:, segment[burn:]].mean(axis=1)
            _, risks = holdout_select(losses,
                                      visits(segment[burn:], n_states))
            if zero_one:
                assert (risks == gathered).all()
            else:
                assert risks == pytest.approx(gathered, rel=1e-12, abs=0.0)


def test_holdout_select_rejects_states_outside_range():
    # one count per column of the loss matrix: a state past the last column
    # lengthens the counts, and no state is visited a negative number of
    # times
    losses = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    assert holdout_select(losses, visits([0, 2, 2], 3))[1].tolist() == \
        pytest.approx([2.0 / 3.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        holdout_select(losses, np.bincount([0, 1, 3]))
    with pytest.raises(RangeError):
        holdout_select(losses, [1, -1, 2])


@pytest.mark.parametrize("fit", [False, True],
                         ids=["holdout_select", "erm_fit"])
def test_count_check_rejects_malformed_counts(two_state_chain, zero_one_loss,
                                              fit):
    chain = two_state_chain
    losses = losses_of([bayes_predictor(chain, zero_one_loss)], chain,
                       zero_one_loss)

    def call(counts):
        if fit:
            return erm_fit(chain, 1, counts, zero_one_loss)
        return holdout_select(losses, counts)

    call(np.array([1, 0, 0, 2], dtype=np.uint8))    # any integer dtype
    for counts, error in [
            (np.ones(3, int), DimensionMismatchError),
            (np.ones(5, int), DimensionMismatchError),
            (np.ones((1, 4), int), DimensionMismatchError),
            (np.ones((4, 2), int), DimensionMismatchError),
            (np.array([1, -1, 0, 1]), RangeError),
            (np.ones(4), RangeError),
            (np.ones(4, bool), RangeError),
            (np.zeros(4, int), EmptySegmentError)]:
        with pytest.raises(error):
            call(counts)


def test_oracle_select_returns_exact_minimizer(two_state_chain, zero_one_loss):
    cands = [PredictorTable(0, 2, np.array([0])),
             PredictorTable(1, 2, np.array([0, 1]))]
    idx, risks = oracle_select(losses_of(cands, two_state_chain,
                                         zero_one_loss),
                               two_state_chain.stationary)
    assert idx == 1
    assert risks == pytest.approx([1.0 / 3.0, 2.0 / 15.0], abs=1e-12)


# ---------------------------------------------------------------------------
# conditional risk and disagreement


def test_conditional_risk_iid_equals_stationary(iid_chain, zero_one_loss):
    g = bayes_predictor(iid_chain, zero_one_loss)
    stationary = exact_risk(g, iid_chain, zero_one_loss)
    for b in range(3):
        for x in range(iid_chain.n_states):
            assert conditional_risk(g, iid_chain, x, b,
                                    zero_one_loss) == pytest.approx(
                stationary, abs=1e-14)


def test_conditional_risk_converges_to_stationary(two_state_chain,
                                                  zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    stationary = exact_risk(g, two_state_chain, zero_one_loss)
    worst = max(abs(conditional_risk(g, two_state_chain, x, 200, zero_one_loss)
                    - stationary) for x in range(4))
    assert worst < 1e-10


def test_conditional_risk_first_step_hand_computed(two_state_chain,
                                                   zero_one_loss):
    # from (1, 1), one step lands on (0, 1) w.p. 0.2 (loss 1) or (1, 1)
    # w.p. 0.8 (loss 0) under the Bayes table
    g = bayes_predictor(two_state_chain, zero_one_loss)
    start = two_state_chain.encode((1, 1))
    assert conditional_risk(g, two_state_chain, start, 0,
                            zero_one_loss) == pytest.approx(0.2, abs=1e-14)


def test_disagreement_variance_cases(two_state_chain, zero_one_loss):
    bayes = bayes_predictor(two_state_chain, zero_one_loss)
    assert disagreement_variance(bayes, bayes, two_state_chain) == 0.0
    flipped = PredictorTable(1, 2, np.array([1, 0]))
    # disagree everywhere: D = 1, variance D(1-D) = 0
    assert disagreement_variance(flipped, bayes,
                                 two_state_chain) == pytest.approx(0.0)
    half = PredictorTable(1, 2, np.array([0, 0]))
    # disagree exactly on context y_{t-1} = 1, mass 1/3
    assert disagreement_variance(half, bayes,
                                 two_state_chain) == pytest.approx(2.0 / 9.0,
                                                                   abs=1e-12)
