import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlm import lm
from privlm.attacks import (
    ATTACK_COLUMNS,
    AttackError,
    AttackReport,
    build_mi_dataset,
    candidate_perplexities,
    dump_perplexity_table,
    exposure,
    format_attack_row,
    membership_inference,
    rank_from_perplexities,
    read_attack_rows,
)
from privlm.corpus import (
    CanaryCandidates,
    CanaryTemplate,
    TokenSequence,
    Vocabulary,
    enumerate_canaries,
    extend_vocabulary_for_template,
)

from oracles import mi_accuracy_recount, rank_by_sorting


class _FixedPerplexityModel:
    """Stands in for trained parameters in attack tests via monkeypatching."""

    def __init__(self, table):
        self.table = table  # text -> perplexity


@pytest.fixture
def patched_perplexities(monkeypatch):
    def apply(table):
        def fake(params, seqs):
            return np.array([params.table[s.source_text] for s in seqs])

        monkeypatch.setattr(lm, "sequence_perplexities", fake)
        return _FixedPerplexityModel(table)

    return apply


def seqs_from(texts):
    vocab = Vocabulary(tok for t in texts for tok in t.split())
    return [TokenSequence.from_text(t, vocab) for t in texts]


class TestRank:
    def test_strictly_lowest_perplexity_ranks_first(self):
        ppls = np.array([5.0, 2.0, 9.0, 3.0])
        assert rank_from_perplexities(ppls, 1) == 1

    def test_total_tie_ranks_last(self):
        ppls = np.full(729, 4.2)
        assert rank_from_perplexities(ppls, 400) == 729

    def test_agrees_with_sorting_oracle_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            ppls = np.round(rng.uniform(1, 20, size=n), 2)  # rounding forces ties
            planted = int(rng.integers(0, n))
            assert rank_from_perplexities(ppls, planted) == rank_by_sorting(ppls, planted)

    def test_invariant_under_candidate_permutation(self):
        rng = np.random.default_rng(6)
        ppls = rng.uniform(1, 9, size=40)
        planted = 17
        base = rank_from_perplexities(ppls, planted)
        for _ in range(10):
            perm = rng.permutation(40)
            where = int(np.flatnonzero(perm == planted)[0])
            assert rank_from_perplexities(ppls[perm], where) == base

    def test_empty_candidates_rejected(self):
        params = lm.init_params(4, 3, 3, seed=0)
        empty = CanaryCandidates(CanaryTemplate("code ", "12", 1), (1,), np.array([], dtype=np.int64))
        with pytest.raises(AttackError, match="empty"):
            candidate_perplexities(params, empty)

    def test_end_to_end_with_real_model(self):
        vocab = Vocabulary()
        template = CanaryTemplate("secret code ", "12", 2)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        params = lm.init_params(vocab.size, 6, 6, seed=2)
        planted = 3
        for _ in range(150):
            grad = lm.batch_gradients(params, [candidates.sequences()[planted]])[1][0]
            params = lm.apply_update(params, grad, 0.5)
        assert rank_from_perplexities(candidate_perplexities(params, candidates), planted) == 1


@st.composite
def canary_spaces(draw):
    """A hypothesis-drawn template's candidates and an untrained model over them."""
    slot_count = draw(st.integers(1, 3))
    alphabet = draw(st.lists(st.sampled_from("0123456789abcdef"), min_size=1, max_size=9,
                             unique=True))
    word = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
    words = draw(st.lists(word, min_size=1, max_size=5))
    template = CanaryTemplate(" ".join(words) + " ", "".join(alphabet), slot_count)
    vocab = Vocabulary()
    extend_vocabulary_for_template(vocab, template)
    candidates = enumerate_canaries(template, vocab)
    d = draw(st.integers(1, 8))
    params = lm.init_params(vocab.size, d, d, seed=draw(st.integers(0, 2**16)))
    return params, candidates


class TestCandidatePerplexities:
    """The shared-prefix scorer against the batched oracle, lm.sequence_perplexities."""

    @settings(max_examples=40, deadline=None)
    @given(canary_spaces())
    def test_matches_batched_scoring(self, space):
        params, candidates = space
        got = candidate_perplexities(params, candidates)
        oracle = lm.sequence_perplexities(params, candidates.sequences())
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(canary_spaces())
    def test_ranks_agree_where_perplexities_are_resolved(self, space):
        params, candidates = space
        got = candidate_perplexities(params, candidates)
        oracle = lm.sequence_perplexities(params, candidates.sequences())
        order = np.sort(oracle)
        gaps = np.diff(order) / order[1:]
        # A candidate's rank is pinned when both its sorted neighbours are > 1e-12 away.
        isolated = np.concatenate([[np.inf], gaps]) > 1e-12
        isolated &= np.concatenate([gaps, [np.inf]]) > 1e-12
        for i in range(len(candidates)):
            pos = int(np.searchsorted(order, oracle[i]))
            if isolated[pos]:
                assert rank_from_perplexities(got, i) == rank_from_perplexities(oracle, i)

    @settings(max_examples=40, deadline=None)
    @given(canary_spaces(), st.randoms(use_true_random=False))
    def test_permuting_candidates_permutes_output_bitwise(self, space, rnd):
        params, candidates = space
        perm = list(range(len(candidates)))
        rnd.shuffle(perm)
        base = candidate_perplexities(params, candidates)
        permuted = candidate_perplexities(
            params, dataclasses.replace(candidates, fill_ids=candidates.fill_ids[perm])
        )
        assert np.array_equal(permuted, base[perm])

    def test_fill_id_out_of_range_rejected(self):
        vocab = Vocabulary()
        template = CanaryTemplate("code ", "12", 1)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        params = lm.init_params(vocab.size, 3, 3, seed=0)
        for fill_id in (vocab.size, -1):
            bad = dataclasses.replace(candidates, fill_ids=np.append(candidates.fill_ids, fill_id))
            with pytest.raises(AttackError, match="out of range"):
                candidate_perplexities(params, bad)


class TestExposure:
    def test_rank_one_of_729(self):
        assert exposure(1, 729) == pytest.approx(math.log2(729), abs=1e-9)
        assert exposure(1, 729) == pytest.approx(9.509775004326936, abs=1e-9)

    def test_last_rank_is_zero(self):
        assert exposure(729, 729) == 0.0
        assert exposure(1000, 1000) == 0.0

    def test_powers_of_two(self):
        assert exposure(64, 1024) == pytest.approx(4.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(AttackError):
            exposure(0, 729)
        with pytest.raises(AttackError):
            exposure(730, 729)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 2000))
    def test_strictly_decreasing_in_rank(self, size):
        values = [exposure(r, size) for r in range(1, size + 1, max(1, size // 17))]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.0 <= min(values) and max(values) <= math.log2(size)


class TestMembershipInference:
    def test_perfect_separation(self, patched_perplexities):
        members = seqs_from([f"m{i} x" for i in range(4)])
        non_members = seqs_from([f"n{i} x" for i in range(4)])
        table = {s.source_text: 1.0 for s in members}
        table.update({s.source_text: 100.0 for s in non_members})
        params = patched_perplexities(table)
        assert membership_inference(params, members, non_members) == 1.0

    def test_identical_perplexities_give_chance(self, patched_perplexities):
        members = seqs_from([f"m{i} x" for i in range(10)])
        non_members = seqs_from([f"n{i} x" for i in range(10)])
        table = {s.source_text: 7.0 for s in members + non_members}
        params = patched_perplexities(table)
        assert membership_inference(params, members, non_members) == 0.5

    def test_agrees_with_recount_oracle(self, patched_perplexities):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m_ppl = np.round(rng.uniform(1, 10, size=n), 1)
            nm_ppl = np.round(rng.uniform(1, 10, size=n), 1)
            members = seqs_from([f"m{i} x" for i in range(n)])
            non_members = seqs_from([f"n{i} x" for i in range(n)])
            table = {s.source_text: float(p) for s, p in zip(members, m_ppl)}
            table.update({s.source_text: float(p) for s, p in zip(non_members, nm_ppl)})
            params = patched_perplexities(table)
            got = membership_inference(params, members, non_members)
            assert got == pytest.approx(mi_accuracy_recount(m_ppl, nm_ppl))

    def test_symmetry_under_swapped_labels(self, patched_perplexities):
        rng = np.random.default_rng(13)
        n = 8
        m_ppl = rng.uniform(1, 10, size=n)
        nm_ppl = rng.uniform(1, 10, size=n)
        members = seqs_from([f"m{i} x" for i in range(n)])
        non_members = seqs_from([f"n{i} x" for i in range(n)])
        table = {s.source_text: float(p) for s, p in zip(members, m_ppl)}
        table.update({s.source_text: float(p) for s, p in zip(non_members, nm_ppl)})
        params = patched_perplexities(table)
        acc = membership_inference(params, members, non_members)
        # swap roles with perplexities swapped: accuracy must be preserved
        table_swapped = {s.source_text: float(p) for s, p in zip(members, nm_ppl)}
        table_swapped.update({s.source_text: float(p) for s, p in zip(non_members, m_ppl)})
        params2 = patched_perplexities(table_swapped)
        acc_swapped = membership_inference(params2, non_members, members)
        assert acc == pytest.approx(acc_swapped)

    def test_balanced_requirement(self):
        params = lm.init_params(4, 3, 3, seed=0)
        members = seqs_from(["a b", "c d"])
        with pytest.raises(AttackError, match="balanced"):
            membership_inference(params, members, members[:1])


class TestBuildMiDataset:
    def test_fifty_fifty(self):
        train = seqs_from([f"train{i} x" for i in range(80)])
        test = seqs_from([f"test{i} x" for i in range(80)])
        members, non_members = build_mi_dataset(train, test, 50, seed=1)
        assert len(members) == len(non_members) == 50

    def test_deterministic(self):
        train = seqs_from([f"train{i} x" for i in range(30)])
        test = seqs_from([f"test{i} x" for i in range(30)])
        a = build_mi_dataset(train, test, 10, seed=4)
        b = build_mi_dataset(train, test, 10, seed=4)
        assert [s.source_text for s in a[0]] == [s.source_text for s in b[0]]
        assert [s.source_text for s in a[1]] == [s.source_text for s in b[1]]

    def test_singletons(self):
        train = seqs_from(["only train x"])
        test = seqs_from(["only test x"])
        members, non_members = build_mi_dataset(train, test, 1, seed=0)
        assert len(members) == len(non_members) == 1

    def test_disjoint_texts_even_with_overlap(self):
        shared = [f"shared{i} x" for i in range(20)]
        train = seqs_from(shared + [f"t{i} x" for i in range(20)])
        test = seqs_from(shared + [f"s{i} x" for i in range(20)])
        members, non_members = build_mi_dataset(train, test, 15, seed=2)
        assert not {m.source_text for m in members} & {n.source_text for n in non_members}

    def test_duplicates_collapse_before_sampling(self):
        train = seqs_from(["dup x"] * 50 + ["other y"])
        test = seqs_from([f"test{i} x" for i in range(10)])
        members, _ = build_mi_dataset(train, test, 2, seed=3)
        assert sorted(m.source_text for m in members) == ["dup x", "other y"]

    def test_first_sequence_of_each_text_kept(self):
        first = TokenSequence((1, 2), "dup x")
        later = TokenSequence((1, 3), "dup x")
        test = [TokenSequence((3, 2), "y x")]
        members, _ = build_mi_dataset([first, later], test, 1, seed=0)
        assert members[0] is first

    def test_insufficient_data_rejected(self):
        train = seqs_from(["a x", "b y"])
        test = seqs_from(["c z"])
        with pytest.raises(AttackError, match="non-member"):
            build_mi_dataset(train, test, 2, seed=0)


class TestDumpTable:
    def test_csv_contents(self, tmp_path):
        vocab = Vocabulary()
        template = CanaryTemplate("code ", "12", 1)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        ppls = np.array([3.0, 1.5])
        path = tmp_path / "table.csv"
        dump_perplexity_table(path, candidates, ppls, planted_index=1)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,candidate,perplexity,planted"
        assert lines[1] == "0,code 1,3.0,0"
        assert lines[2] == "1,code 2,1.5,1"

    def test_commas_in_candidates_are_quoted(self, tmp_path):
        vocab = Vocabulary()
        template = CanaryTemplate("my code, is ", "1,2", 1)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        ppls = np.array([3.0, 1.5, 2.25])
        path = tmp_path / "table.csv"
        dump_perplexity_table(path, candidates, ppls, planted_index=2)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "candidate", "perplexity", "planted"]
        assert [len(row) for row in rows] == [4] * 4
        assert [row[1] for row in rows[1:]] == [c.source_text for c in candidates.sequences()]
        assert [float(row[2]) for row in rows[1:]] == ppls.tolist()
        assert [row[3] for row in rows[1:]] == ["0", "0", "1"]


class TestAttacksCsv:
    """AttackReport.append_to writes attacks.csv and read_attack_rows reads it back."""

    def report(self, epoch):
        return AttackReport("abc", "dpsgd", epoch, 12.5 + epoch, 3, 0.25, 729, 0.5)

    def test_rows_round_trip_typed(self, tmp_path):
        path = tmp_path / "attacks.csv"
        assert read_attack_rows(path) == []
        for epoch in (1, 2):
            self.report(epoch).append_to(path)
        assert path.read_text(encoding="utf-8") == (
            "run_id,regime,epoch,valid_perplexity,canary_rank,exposure,mi_accuracy\n"
            "abc,dpsgd,1,13.5,3,0.25,0.5\nabc,dpsgd,2,14.5,3,0.25,0.5\n"
        )
        rows = read_attack_rows(path)
        assert rows == [
            {"run_id": "abc", "regime": "dpsgd", "epoch": e, "valid_perplexity": 12.5 + e,
             "canary_rank": 3, "exposure": 0.25, "mi_accuracy": 0.5}
            for e in (1, 2)
        ]
        assert [[type(v) for v in row.values()] for row in rows] == [
            list(ATTACK_COLUMNS.values())
        ] * 2
        assert [format_attack_row(row) for row in rows] == [self.report(e).csv_row() for e in (1, 2)]

    def test_header_and_row_come_from_the_columns(self):
        assert AttackReport.CSV_HEADER == ",".join(ATTACK_COLUMNS)
        row = AttackReport("r", "cadp", np.int64(7), np.float64(0.1), 2, 1 / 3, 10, 0.75)
        assert row.csv_row() == f"r,cadp,7,0.1,2,{1 / 3!r},0.75"

    def test_identical_repeat_counts_once(self, tmp_path):
        path = tmp_path / "attacks.csv"
        for epoch in (2, 1, 2, 2):
            self.report(epoch).append_to(path)
        assert [row["epoch"] for row in read_attack_rows(path)] == [2, 1]

    @pytest.mark.parametrize("column, value", [
        ("epoch", "one"), ("epoch", "1.0"), ("canary_rank", "3.5"),
        ("valid_perplexity", "x"), ("exposure", ""), ("mi_accuracy", "0.5.1"),
    ])
    def test_unparsed_field_rejected_naming_line_and_column(self, tmp_path, column, value):
        path = tmp_path / "attacks.csv"
        for epoch in (1, 2):
            self.report(epoch).append_to(path)
        fields = self.report(2).csv_row().split(",")
        fields[list(ATTACK_COLUMNS).index(column)] = value
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines[:2], ",".join(fields)]) + "\n", encoding="utf-8")
        want = f"{path}:3: column {column!r} must be {ATTACK_COLUMNS[column].__name__}, got {value!r}"
        with pytest.raises(AttackError, match=f"^{re.escape(want)}$"):
            read_attack_rows(path)

    def test_conflicting_rows_of_one_key_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "attacks.csv"
        changed = dataclasses.replace(self.report(1), exposure=1.0)
        for report in (self.report(1), self.report(2), changed):
            report.append_to(path)
        want = f"{path}:4: run_id 'abc' epoch 1 has other values than on line 2"
        with pytest.raises(AttackError, match=f"^{re.escape(want)}$"):
            read_attack_rows(path)

    @pytest.mark.parametrize("text, match", [
        ("", ": first line is not"),
        ("epoch,run_id\n", ": first line is not"),
        (AttackReport.CSV_HEADER + "\nabc,dpsgd,1,13.5,3,0.25,0.5,x\n",
         ":2: expected 7 fields, got 8"),
        (AttackReport.CSV_HEADER + "\nabc,dpsgd,1,13.5,3,0.25,0.5\n\n",
         ":3: expected 7 fields, got 1"),
    ])
    def test_malformed_file_rejected_naming_it(self, tmp_path, text, match):
        path = tmp_path / "attacks.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(AttackError, match=f"^{re.escape(str(path))}{match}"):
            read_attack_rows(path)
