import warnings
from dataclasses import asdict

import numpy as np
import pytest
from helpers import oracle_eer, oracle_min_dcf, random_score_set

from xvec.data import Dataset, SynthConfig, gen_synthetic
from xvec.errors import ConfigError, DataError, FormatError
from xvec.evaluation import (
    DCF08,
    DCF10,
    MetricsReport,
    RowError,
    Trial,
    _error_curves,
    attention_trajectory,
    compute_eer,
    compute_metrics,
    compute_min_dcf,
    enrollment_models,
    gate_correlation,
    join_scores_with_trials,
    length_normalize,
    make_trials,
    mean_gate_correlation,
    metrics_json,
    read_enroll_map,
    read_scores,
    read_trials,
    score_trials,
    write_enroll_map,
    write_scores,
    write_trajectory,
    write_trials,
)
from xvec.model import FrameLayerSpec, ModelConfig, build_model


def cosine(a, b):
    """One bare-id trial scored through score_trials."""
    return score_trials({"a": a, "b": b}, [Trial("a", "b")])[0][1]


class TestCosineScoring:
    def test_identical_vectors(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(cosine(v, v), 1.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_normalize_floor(self):
        out = length_normalize(np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_enroll_mean_then_normalize(self):
        embeddings = {
            "e1": np.array([1.0, 0.0]),
            "e2": np.array([0.0, 1.0]),
            "t": np.array([1.0, 1.0]) / np.sqrt(2.0),
        }
        scored = score_trials(embeddings, [Trial("spk", "t", True)],
                              enroll_map={"spk": ["e1", "e2"]})
        np.testing.assert_allclose(scored[0][1], 1.0, rtol=1e-12)

    def test_bare_embedding_id_as_enroll(self):
        embeddings = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        scored = score_trials(embeddings, [Trial("a", "b", None)])
        np.testing.assert_allclose(scored[0][1], 1.0, atol=1e-12)

    def test_missing_ids_are_named(self):
        embeddings = {"a": np.ones(2)}
        with pytest.raises(DataError, match="ghost"):
            score_trials(embeddings, [Trial("ghost", "a", None)])
        with pytest.raises(DataError, match="gone"):
            score_trials(embeddings, [Trial("a", "gone", None)])
        with pytest.raises(DataError, match="lost"):
            enrollment_models(embeddings, {"spk": ["lost"]})
        with pytest.raises(DataError, match="spk"):
            enrollment_models(embeddings, {"spk": []})


EMB = {"a": np.ones(2), "b": np.ones(2)}


@pytest.mark.parametrize("call, row, message", [
    (lambda: score_trials(EMB, [Trial("a", "b"), Trial("a", "{embeddings}")]), 1,
     "test segment '{embeddings}' has no embedding in E"),
    (lambda: score_trials(EMB, [Trial("a", "b"), Trial("spk", "b")]), 1, "enroll id 'spk' is not in E"),
    (lambda: score_trials(EMB, [Trial("ghost", "b")], {"spk": ["a"]}), 0, "enroll id 'ghost' is in neither M nor E"),
    (lambda: score_trials(EMB, [Trial("ghost", "b")], {"spk": ["a", "lost"]}), ("spk", "lost"),
     "segment 'lost' of speaker 'spk' has no embedding in E"),
    (lambda: join_scores_with_trials({("a", "b"): 0.5}, [Trial("a", "b", True), Trial("a", "c", False)]), 1,
     "trial (a, c) has no score in S"),
    (lambda: join_scores_with_trials({("a", "b"): 0.5}, [Trial("a", "b")]), 0, "trial (a, b) carries no label"),
], ids=["test", "enroll-bare", "enroll-mapped", "enrollment-entry", "score", "label"])
def test_a_refused_row_is_reported(call, row, message):
    """The first row that does not resolve, enrollment entries before
    trials, as a trial's index or an enrollment entry; the message words
    the inputs with the names it is given, and an id in it stays as it is."""
    with pytest.raises(RowError) as refused:
        call()
    assert refused.value.row == row
    assert refused.value.naming(embeddings="E", enroll_map="M", scores="S") == message


class TestEER:
    def test_perfect_separation(self):
        assert compute_eer([2.0, 3.0, 0.0, 1.0], [1, 1, 0, 0]) == 0.0

    def test_identical_scores(self):
        assert compute_eer([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_six_score_hand_case(self):
        scores = [0.8, 0.6, 0.4, 0.7, 0.3, 0.1]
        labels = [1, 1, 1, 0, 0, 0]
        np.testing.assert_allclose(compute_eer(scores, labels), 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(oracle_eer(scores, labels), 1.0 / 3.0, atol=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores, labels = random_score_set(rng)
            got = compute_eer(scores, labels)
            want = oracle_eer(list(scores), list(labels))
            assert abs(got - want) < 1e-9, (scores, labels)

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores, labels = random_score_set(rng)
        base = compute_eer(scores, labels)
        for transform in (np.exp, lambda s: 2.0 * s + 3.0, lambda s: s**3):
            assert abs(compute_eer(transform(scores), labels) - base) < 1e-12

    def test_needs_both_classes(self):
        with pytest.raises(DataError, match="nontarget"):
            compute_eer([1.0, 2.0], [1, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="finite"):
            compute_eer([np.nan, 1.0], [1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            compute_eer([[1.0, 2.0]], [1, 0])


class TestMinDCF:
    def test_perfect_separation(self):
        assert compute_min_dcf([2.0, 3.0, 0.0, 1.0], [1, 1, 0, 0], *DCF08) == 0.0

    def test_six_score_hand_case(self):
        scores = [0.8, 0.6, 0.4, 0.7, 0.3, 0.1]
        labels = [1, 1, 1, 0, 0, 0]
        np.testing.assert_allclose(compute_min_dcf(scores, labels, *DCF08), 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(compute_min_dcf(scores, labels, *DCF10), 2.0 / 3.0, atol=1e-12)

    def test_accept_all_boundary(self):
        # costs that make accepting everything optimal: the normalized cost
        # is exactly c_fa*(1-p) / min(c_miss*p, c_fa*(1-p)) = 1
        scores = [1.0, 2.0, 1.5]
        labels = [1, 1, 0]
        got = compute_min_dcf(scores, labels, 0.99, 1000.0, 1.0)
        np.testing.assert_allclose(got, 1.0, atol=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores, labels = random_score_set(rng)
            for p, cm, cf in (DCF08, DCF10, (0.37, 2.5, 0.8)):
                got = compute_min_dcf(scores, labels, p, cm, cf)
                want = oracle_min_dcf(list(scores), list(labels), p, cm, cf)
                assert abs(got - want) < 1e-9

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, labels = random_score_set(rng)
            assert compute_min_dcf(scores, labels, *DCF08) <= 1.0 + 1e-12
            assert compute_min_dcf(scores, labels, *DCF10) <= 1.0 + 1e-12

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores, labels = random_score_set(rng)
        base = compute_min_dcf(scores, labels, *DCF08)
        for transform in (np.exp, lambda s: 0.1 * s - 7.0):
            assert abs(compute_min_dcf(transform(scores), labels, *DCF08) - base) < 1e-12

    def test_subnormal_weights_keep_the_result(self):
        """A cost weight c_miss * p_target or c_fa * (1 - p_target) that is
        subnormal but not 0 loses no precision, and one that overflows once
        scaled adds 0 where its error rate is 0."""
        scores, labels = [0.9, 0.8, 0.3, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0, 0]
        for p, cm, cf in ((1e-310, 1.0, 1.0), (1e-320, 1.0, 1.0), (5e-324, 1.0, 1.0),
                          (0.5, 1e-310, 1.0), (0.5, 1.0, 1e-310), (0.5, 1e-320, 1e300)):
            want = oracle_min_dcf(scores, labels, p, cm, cf)
            assert abs(compute_min_dcf(scores, labels, p, cm, cf) - want) < 1e-12, (p, cm, cf)

    def test_normal_weights_keep_their_bits(self):
        """Where every weight and product is normal, the scaled weights give
        the bits of the unscaled expression."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            scores, labels = random_score_set(rng)
            p, cm, cf = 10.0 ** rng.uniform(-6, -0.01), 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
            p_miss, p_fa = _error_curves(scores, labels)
            plain = (cm * p * p_miss + cf * (1.0 - p) * p_fa).min() / min(cm * p, cf * (1.0 - p))
            assert compute_min_dcf(scores, labels, p, cm, cf) == float(plain)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="p_target"):
            compute_min_dcf([1.0, 0.0], [1, 0], 0.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="cost"):
            compute_min_dcf([1.0, 0.0], [1, 0], 0.5, -1.0, 1.0)
        with pytest.raises(ConfigError, match="underflows to 0"):  # in range, but the normalizer is 0
            compute_min_dcf([1.0, 0.0], [1, 0], 5e-324, 1e-10, 1.0)

    def test_compute_metrics_bundle(self):
        scores = [0.8, 0.6, 0.4, 0.7, 0.3, 0.1]
        labels = [1, 1, 1, 0, 0, 0]
        report = compute_metrics(scores, labels)
        np.testing.assert_allclose(report.eer, 1.0 / 3.0, atol=1e-12)
        assert report.num_trials == 6
        assert report.num_target == 3 and report.num_nontarget == 3
        d = asdict(report)
        assert set(d) == {"eer", "min_dcf08", "min_dcf10", "num_trials",
                          "num_target", "num_nontarget"}


def attention_model(pooling="attention", heads=1, seed=0):
    cfg = ModelConfig(
        input_dim=3,
        frame_layers=(FrameLayerSpec((-1, 0, 1), 5), FrameLayerSpec((0,), 6)),
        pooling=pooling,
        key_layer=1,
        compat=[4],
        heads=heads,
        utterance_layers=[5],
        num_speakers=2,
    )
    return build_model(cfg, seed=seed)


class TestAttentionTrajectory:
    def test_constant_keys_give_flat_line(self):
        model = attention_model()
        features = np.tile([0.3, -1.2, 0.7], (5, 1))
        max_w, record = attention_trajectory(model, features)
        np.testing.assert_allclose(max_w, np.full(5, 0.2), atol=1e-12)
        assert record.shape == (1, 5)

    def test_multihead_uniform_max_is_uniform(self):
        model = attention_model("multihead", heads=2)
        features = np.tile([1.0, 0.5, -0.5], (8, 1))
        max_w, record = attention_trajectory(model, features)
        np.testing.assert_allclose(max_w, np.full(8, 0.125), atol=1e-12)
        assert record.shape == (2, 8)

    def test_max_dominates_every_head(self):
        model = attention_model("multihead", heads=2, seed=3)
        features = np.random.default_rng(3).standard_normal((9, 3))
        max_w, record = attention_trajectory(model, features)
        np.testing.assert_allclose(record.sum(axis=1), np.ones(2), atol=1e-9)
        assert np.all(max_w >= record - 1e-15)
        assert np.all((max_w == record[0]) | (max_w == record[1]))

    def test_stats_model_refuses(self):
        cfg = ModelConfig(input_dim=3,
                          frame_layers=(FrameLayerSpec((0,), 4),),
                          pooling="stats", utterance_layers=[5], num_speakers=2)
        model = build_model(cfg, seed=0)
        with pytest.raises(ConfigError, match="stats"):
            attention_trajectory(model, np.zeros((4, 3)))


class TestGateCorrelation:
    def test_proportional_is_one(self):
        gate = np.array([0, 1, 0, 1, 1, 0])
        weights = 0.05 + 0.1 * gate
        assert gate_correlation(weights, gate) == 1.0

    def test_anti_proportional_is_minus_one(self):
        gate = np.array([0, 1, 0, 1, 1, 0])
        weights = 0.5 - 0.1 * gate
        assert gate_correlation(weights, gate) == -1.0

    def test_uniform_weights_give_zero(self):
        assert gate_correlation(np.full(6, 0.25), np.array([0, 1, 0, 1, 1, 0])) == 0.0

    def test_constant_gate_gives_zero(self):
        assert gate_correlation(np.array([0.1, 0.2, 0.3]), np.ones(3)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            gate_correlation(np.ones(4), np.ones(5))

    def test_matches_scipy_spearman_with_ties(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            weights = rng.integers(0, int(rng.integers(1, 6)), n) / 7.0  # few levels, many ties
            gate = rng.integers(0, 2, n)
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # constant inputs: scipy warns, returns nan
                expected = spearmanr(weights, gate).statistic
            expected = 0.0 if np.isnan(expected) else expected
            assert abs(gate_correlation(weights, gate) - expected) < 1e-12

    def test_mean_over_dataset(self):
        ds = Dataset.from_utterances(gen_synthetic(SynthConfig(num_speakers=2, utts_per_speaker=2,
                                                               min_frames=12, max_frames=16, dim=3, seed=0)))
        model = attention_model("multihead", heads=2)
        value = mean_gate_correlation(model, ds)
        assert -1.0 <= value <= 1.0

    def test_requires_gates(self):
        ds = Dataset.from_utterances(gen_synthetic(SynthConfig(num_speakers=2, utts_per_speaker=2,
                                                               min_frames=12, max_frames=16, dim=3, seed=0)))
        for utt in ds.utterances:
            utt.gate = None
        with pytest.raises(DataError, match="gate"):
            mean_gate_correlation(attention_model(), ds)

    def test_attention_that_overflows_names_the_utterance(self):
        """Finite weights can overflow the forward; no RuntimeWarning is
        raised (the test settings make one an error). Frame0 scaled by 1e200
        overflows only the pooled variance, so the attention stays finite and
        is used. Frame0 and compat0 scaled by 1e160 overflow the logits: the
        first utterance, whose attention is not finite, is refused."""
        ds = Dataset.from_utterances(gen_synthetic(SynthConfig(num_speakers=2, utts_per_speaker=2,
                                                               min_frames=12, max_frames=16, dim=3, seed=0)))
        model = attention_model("multihead", heads=2)
        model.frame_blocks[0].affine.weight.value[...] *= 1e200
        assert -1.0 <= mean_gate_correlation(model, ds) <= 1.0
        model = attention_model("multihead", heads=2)
        model.frame_blocks[0].affine.weight.value[...] *= 1e160
        model.pool.net.blocks[0][0].weight.value[...] *= 1e160
        with pytest.raises(DataError, match=f"^the attention of utterance {ds.utterances[0].utt_id} is not finite$"):
            mean_gate_correlation(model, ds)


class TestMakeTrials:
    def _utterances(self, utts=4):
        """(utt_id, speaker) pairs, as write_dataset returns them."""
        cfg = SynthConfig(num_speakers=3, utts_per_speaker=utts, min_frames=10, max_frames=12, dim=2, seed=1)
        return [(u.utt_id, u.speaker) for u in gen_synthetic(cfg)]

    def test_grid_counts(self):
        trials, enroll_map = make_trials(self._utterances(), enroll_per_speaker=1, seed=0)
        n_test = 3 * 3
        assert len(trials) == 3 * n_test
        assert sum(t.target for t in trials) == n_test
        assert len(enroll_map) == 3
        assert all(len(v) == 1 for v in enroll_map.values())

    def test_enroll_and_test_disjoint(self):
        utts = self._utterances()
        trials, enroll_map = make_trials(utts, enroll_per_speaker=2, seed=0)
        enrolled = {u for ids in enroll_map.values() for u in ids}
        tested = {t.test for t in trials}
        assert not enrolled & tested
        assert enrolled | tested == {utt_id for utt_id, _ in utts}

    def test_labels_follow_speakers(self):
        utts = self._utterances()
        trials, _ = make_trials(utts, enroll_per_speaker=1, seed=0)
        speaker_of = dict(utts)
        for t in trials:
            assert t.target == (speaker_of[t.test] == t.enroll)

    def test_deterministic_and_seed_sensitive(self):
        utts = self._utterances(utts=8)
        t1, m1 = make_trials(utts, enroll_per_speaker=2, seed=5)
        t2, m2 = make_trials(utts, enroll_per_speaker=2, seed=5)
        assert t1 == t2 and m1 == m2
        _, m3 = make_trials(utts, enroll_per_speaker=2, seed=6)
        assert m1 != m3

    def test_too_few_utterances(self):
        with pytest.raises(DataError, match="s0000"):
            make_trials(self._utterances(utts=2), enroll_per_speaker=2, seed=0)

    def test_enroll_count_validation(self):
        with pytest.raises(ConfigError, match="enroll_per_speaker"):
            make_trials(self._utterances(), enroll_per_speaker=0, seed=0)


class TestFileFormats:
    def test_trials_round_trip(self, tmp_path):
        trials = [Trial("s1", "u1", True), Trial("s1", "u2", False)]
        path = tmp_path / "trials.tsv"
        write_trials(path, trials)
        assert read_trials(path) == trials

    def test_trials_malformed_line(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("s1\tu1\ttarget\ns1\tu2\tmaybe\n")
        with pytest.raises(FormatError, match=":2"):
            read_trials(path)

    def test_trials_duplicate_pair(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("s1\tu1\ttarget\ns1\tu2\tnontarget\ns1\tu2\tnontarget\n")
        with pytest.raises(FormatError, match=r"trials.tsv:3: duplicate trial \(s1, u2\)"):
            read_trials(path)

    def test_trials_empty(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("")
        with pytest.raises(DataError):
            read_trials(path)

    def test_enroll_map_round_trip(self, tmp_path):
        mapping = {"s1": ["u1", "u2"], "s2": ["u3"]}
        path = tmp_path / "enroll.tsv"
        write_enroll_map(path, mapping)
        assert read_enroll_map(path) == mapping

    def test_enroll_map_malformed(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        path.write_text("justonefield\n")
        with pytest.raises(FormatError, match=":1"):
            read_enroll_map(path)

    def test_enroll_map_duplicate_entry(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        path.write_text("s1\tu1\ns1\tu2\ns1\tu1\n")
        with pytest.raises(FormatError, match=r":3: duplicate enrollment entry \(s1, u1\), first on line 1$"):
            read_enroll_map(path)

    def test_scores_duplicate_pair(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("s1\tu1\t0.5\ns1\tu2\t0.1\ns1\tu1\t0.7\n")
        with pytest.raises(FormatError, match=":3: duplicate score"):
            read_scores(path)

    def test_scores_round_trip_exact(self, tmp_path):
        scored = [(Trial("s1", "u1", True), 0.1 + 0.2),
                  (Trial("s2", "u2", False), -1.0 / 3.0),
                  (Trial("s3", "u3", False), np.float64(0.1) * 3)]  # a NumPy scalar's repr is not a float's
        path = tmp_path / "scores.tsv"
        write_scores(path, scored)
        got = read_scores(path)
        assert got[("s1", "u1")] == 0.1 + 0.2  # repr round trip, no rounding
        assert got[("s2", "u2")] == -1.0 / 3.0
        assert got[("s3", "u3")] == 0.1 * 3

    def test_scores_malformed(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("s1\tu1\tnot-a-number\n")
        with pytest.raises(FormatError, match=":1"):
            read_scores(path)

    def test_join_scores_with_trials(self):
        trials = [Trial("s1", "u1", True), Trial("s1", "u2", False)]
        scores = {("s1", "u1"): 0.9, ("s1", "u2"): 0.1}
        values, labels = join_scores_with_trials(scores, trials)
        np.testing.assert_array_equal(values, [0.9, 0.1])
        np.testing.assert_array_equal(labels, [1, 0])

    def test_join_missing_score(self):
        with pytest.raises(DataError, match="u2"):
            join_scores_with_trials({("s1", "u1"): 0.9}, [Trial("s1", "u2", True)])

    def test_join_unlabelled_trial(self):
        with pytest.raises(DataError, match="label"):
            join_scores_with_trials({("s1", "u1"): 0.9}, [Trial("s1", "u1", None)])

    def test_metrics_json_sorted_and_extended(self):
        report = MetricsReport(0.1, 0.2, 0.3, 10, 5, 5)
        text = metrics_json(report, extra={"min_dcf_custom": 0.4})
        import json
        parsed = json.loads(text)
        assert parsed["min_dcf_custom"] == 0.4
        assert list(parsed) == sorted(parsed)
        assert json.loads(metrics_json(report))["eer"] == 0.1

    def test_trajectory_file(self, tmp_path):
        path = tmp_path / "traj.tsv"
        write_trajectory(path, np.array([0.5, 0.25, 0.25]))
        lines = path.read_text().splitlines()
        assert lines[0] == "frame\tweight"
        assert len(lines) == 4
        frame, weight = lines[1].split("\t")
        assert frame == "0" and float(weight) == 0.5
