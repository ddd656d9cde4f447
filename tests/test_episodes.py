from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.claims import MedicalClaim
from readmit.episodes import (
    Episode, build_labeled_admissions, filter_admissions,
    group_claims_into_episodes, label_readmissions, readmission_rate,
    readmission_rate_from_counts,
)
from readmit.errors import ReadmitError


def claim(cid, start, end, cpt="99231", user="U1", others=()):
    return MedicalClaim(
        user_id=user, claim_id=cid,
        service_start=date.fromisoformat(start), service_end=date.fromisoformat(end),
        primary_diagnosis="4280", other_diagnoses=tuple(others), cpt_code=cpt,
    )


def episode(eid, start, end, user="U1", cpt="99231"):
    c = claim(f"{eid}-c", start, end, cpt=cpt, user=user)
    return Episode(user_id=user, episode_id=eid, start=c.service_start,
                   end=c.service_end, member_claims=(c,))


class TestGrouping:
    def test_small_gap_joins(self):
        episodes = group_claims_into_episodes([
            claim("C2", "2017-05-01", "2017-05-03"),
            claim("C3", "2017-05-04", "2017-05-08"),
        ])
        assert len(episodes) == 1
        assert episodes[0].start == date(2017, 5, 1)
        assert episodes[0].end == date(2017, 5, 8)

    def test_gap_of_thirteen_days_splits(self):
        episodes = group_claims_into_episodes([
            claim("C3", "2017-05-04", "2017-05-08"),
            claim("C4", "2017-05-21", "2017-06-09"),
        ])
        assert [[c.claim_id for c in e.member_claims] for e in episodes] == [["C3"], ["C4"]]

    def test_exact_gap_boundary_is_strict(self):
        base = group_claims_into_episodes([
            claim("A", "2017-01-01", "2017-01-05"),
            claim("B", "2017-01-15", "2017-01-16"),   # gap exactly 10
        ])
        assert len(base) == 2
        joined = group_claims_into_episodes([
            claim("A", "2017-01-01", "2017-01-05"),
            claim("B", "2017-01-14", "2017-01-16"),   # gap 9 < 10
        ])
        assert len(joined) == 1

    def test_singleton(self):
        episodes = group_claims_into_episodes([claim("C1", "2017-04-01", "2017-04-01")])
        assert len(episodes) == 1
        assert [c.claim_id for c in episodes[0].member_claims] == ["C1"]

    def test_overlapping_claims_join(self):
        episodes = group_claims_into_episodes([
            claim("C6", "2018-01-03", "2018-01-08", user="U2"),
            claim("C7", "2018-01-03", "2018-01-15", user="U2"),
        ])
        assert len(episodes) == 1
        assert episodes[0].start == date(2018, 1, 3)
        assert episodes[0].end == date(2018, 1, 15)

    def test_running_max_end_bridges_nested_claims(self):
        # B nests inside A; C is close to A's end even though B ended early.
        episodes = group_claims_into_episodes([
            claim("A", "2017-01-01", "2017-01-20"),
            claim("B", "2017-01-02", "2017-01-03"),
            claim("C", "2017-01-25", "2017-01-26"),
        ])
        assert len(episodes) == 1

    def test_multiple_users_rejected(self):
        with pytest.raises(ValueError):
            group_claims_into_episodes([
                claim("A", "2017-01-01", "2017-01-02", user="U1"),
                claim("B", "2017-01-03", "2017-01-04", user="U2"),
            ])


class TestAdmissionFilter:
    def test_office_visit_episode_excluded(self, mappings):
        episodes = [episode("E1", "2017-04-01", "2017-04-01", cpt="99211")]
        assert filter_admissions(episodes, mappings) == []

    def test_ed_claim_retains_episode(self, mappings):
        episodes = [episode("E1", "2017-05-01", "2017-05-08", cpt="99281")]
        assert filter_admissions(episodes, mappings) == episodes

    def test_empty_list(self, mappings):
        assert filter_admissions([], mappings) == []


class TestLabeling:
    def test_within_window_removed_and_index_labeled(self, mappings):
        admissions = [
            episode("E1", "2017-05-01", "2017-05-08"),
            episode("E2", "2017-05-21", "2017-06-09"),
        ]
        labeled, removed = label_readmissions(admissions, mappings)
        assert [a.episode_id for a in labeled] == ["E1"]
        assert labeled[0].readmitted_within_30d
        assert labeled[0].removed_readmission_ids == ("E2",)
        assert [e.episode_id for e in removed] == ["E2"]

    def test_comparison_against_last_retained_not_removed(self, mappings):
        # Third admission is 22 days after the removed one but 54 after the
        # retained index, so it stays and is labeled NO.
        admissions = [
            episode("E1", "2017-05-01", "2017-05-08"),
            episode("E2", "2017-05-21", "2017-06-09"),
            episode("E3", "2017-07-01", "2017-07-03"),
        ]
        labeled, removed = label_readmissions(admissions, mappings)
        assert [a.episode_id for a in labeled] == ["E1", "E3"]
        assert [a.readmitted_within_30d for a in labeled] == [True, False]

    def test_single_admission_is_no(self, mappings):
        labeled, removed = label_readmissions(
            [episode("E1", "2017-05-01", "2017-05-08")], mappings)
        assert not labeled[0].readmitted_within_30d
        assert removed == []

    def test_window_boundary_inclusive(self, mappings):
        labeled, removed = label_readmissions([
            episode("E1", "2017-01-01", "2017-01-05"),
            episode("E2", "2017-02-04", "2017-02-06"),  # exactly 30 days after end
        ], mappings)
        assert len(removed) == 1
        labeled, removed = label_readmissions([
            episode("E1", "2017-01-01", "2017-01-05"),
            episode("E2", "2017-02-05", "2017-02-06"),  # 31 days
        ], mappings)
        assert len(removed) == 0

    def test_index_attracts_multiple_removals(self, mappings):
        labeled, removed = label_readmissions([
            episode("E1", "2017-01-01", "2017-01-05"),
            episode("E2", "2017-01-20", "2017-01-21"),
            episode("E3", "2017-02-01", "2017-02-02"),
        ], mappings)
        assert [a.episode_id for a in labeled] == ["E1"]
        assert labeled[0].removed_readmission_ids == ("E2", "E3")
        assert len(removed) == 2

    def test_is_ed_flag(self, mappings):
        labeled, _ = label_readmissions(
            [episode("E1", "2017-05-01", "2017-05-08", cpt="99281")], mappings)
        assert labeled[0].is_ed_admission


def sweep_oracle(spans, window_days=30):
    """Independent restatement: an admission is removed iff it starts within
    the window of the most recent admission that the oracle itself kept."""
    kept = []
    removed = []
    for start, end in sorted(spans):
        if kept and (start - kept[-1][1]).days <= window_days:
            removed.append((start, end))
        else:
            kept.append((start, end))
    return kept, removed


@st.composite
def admission_spans(draw):
    n = draw(st.integers(1, 5))
    spans = []
    for _ in range(n):
        offset = draw(st.integers(0, 200))
        length = draw(st.integers(0, 15))
        start = date(2017, 1, 1) + timedelta(days=offset)
        spans.append((start, start + timedelta(days=length)))
    return spans


@given(admission_spans())
def test_sweep_matches_brute_force_oracle(mappings, spans):
    episodes = [
        episode(f"E{i+1}", s.isoformat(), e.isoformat())
        for i, (s, e) in enumerate(sorted(spans))
    ]
    labeled, removed = label_readmissions(episodes, mappings)
    kept_oracle, removed_oracle = sweep_oracle(spans)
    assert [(a.start, a.end) for a in labeled] == kept_oracle
    assert sorted((e.start, e.end) for e in removed) == sorted(removed_oracle)
    # retained XOR removed covers every admission
    assert len(labeled) + len(removed) == len(spans)


@given(admission_spans())
def test_relabeling_retained_is_idempotent(mappings, spans):
    episodes = [
        episode(f"E{i+1}", s.isoformat(), e.isoformat())
        for i, (s, e) in enumerate(sorted(spans))
    ]
    labeled, _ = label_readmissions(episodes, mappings)
    again, removed_again = label_readmissions(
        [episode(a.episode_id, a.start.isoformat(), a.end.isoformat()) for a in labeled],
        mappings,
    )
    assert removed_again == []
    assert [(a.start, a.end) for a in again] == [(a.start, a.end) for a in labeled]


@st.composite
def user_claims(draw):
    n = draw(st.integers(1, 12))
    claims = []
    for i in range(n):
        offset = draw(st.integers(0, 365))
        length = draw(st.integers(0, 12))
        start = date(2017, 1, 1) + timedelta(days=offset)
        claims.append(claim(
            f"C{i}", start.isoformat(), (start + timedelta(days=length)).isoformat(),
            cpt=draw(st.sampled_from(["99231", "99281", "99211", "61000"])),
        ))
    return claims


@given(user_claims(), st.integers(0, 15))
def test_grouping_partition_and_gap_properties(claims, gap_days):
    episodes = group_claims_into_episodes(claims, gap_days)
    # partition: every claim in exactly one episode
    all_ids = sorted(c.claim_id for e in episodes for c in e.member_claims)
    assert all_ids == sorted(c.claim_id for c in claims)
    for e in episodes:
        assert e.start == min(c.service_start for c in e.member_claims)
        assert e.end == max(c.service_end for c in e.member_claims)
        # within an episode every claim joined while the gap was small
        ordered = sorted(e.member_claims,
                         key=lambda c: (c.service_start, c.service_end, c.claim_id))
        running_end = ordered[0].service_end
        for c in ordered[1:]:
            assert (c.service_start - running_end).days < gap_days
            running_end = max(running_end, c.service_end)
    # between consecutive episodes the gap rule must have failed
    for e1, e2 in zip(episodes, episodes[1:]):
        assert (e2.start - e1.end).days >= gap_days


def test_worked_example_reproduces_admissions_table(worked_example, mappings):
    labeled, removed = build_labeled_admissions(worked_example["medical"], mappings)
    table = [
        (a.admission_id, a.user_id, a.start.isoformat(), a.end.isoformat(),
         a.readmitted_within_30d)
        for a in labeled
    ]
    assert table == [
        ("A1", "User1", "2017-05-01", "2017-05-08", True),
        ("A2", "User1", "2017-07-01", "2017-07-03", False),
        ("A3", "User2", "2018-01-03", "2018-01-15", False),
    ]
    assert len(removed) == 1
    assert (removed[0].start, removed[0].end) == (date(2017, 5, 21), date(2017, 6, 9))
    assert labeled[0].is_ed_admission
    assert not labeled[1].is_ed_admission and not labeled[2].is_ed_admission


def test_readmission_rate_paper_counts():
    rate = readmission_rate_from_counts(1880, 40358)
    assert abs(rate * 100 - 4.66) <= 0.01


def test_readmission_rate_from_labeled(worked_example, mappings):
    labeled, removed = build_labeled_admissions(worked_example["medical"], mappings)
    assert readmission_rate(labeled) == 1 / 4


def test_readmission_rate_no_admissions_is_error():
    with pytest.raises(ReadmitError):
        readmission_rate_from_counts(0, 0)


def test_readmission_rate_trivial_cases(mappings):
    labeled, _ = label_readmissions([episode("E1", "2017-01-01", "2017-01-02")], mappings)
    assert readmission_rate(labeled) == 0.0
    labeled, _ = label_readmissions([
        episode("E1", "2017-01-01", "2017-01-02"),
        episode("E2", "2017-01-10", "2017-01-11"),
    ], mappings)
    assert readmission_rate(labeled) == 0.5
