"""Episode grouping, admission identification, and 30-day readmission labels.

Claims of one user are grouped into an episode while each next claim starts
strictly less than ``GAP_DAYS`` after the episode's running latest service
end. Episodes containing at least one inpatient E&M claim are admissions.
A later admission starting within ``WINDOW_DAYS`` of the last retained
admission's discharge is removed as a readmission and flips that retained
admission's label to true; comparisons are always against the last retained
admission, never against a removed one.

A claim costs its share of two sorts, the gap test and the record inits.
Inpatient and ED tests run once per distinct CPT code, in a memoised copy of
the code maps made per ``build_labeled_admissions`` call, not a process-wide cache.
"""

from __future__ import annotations

from datetime import date
from operator import attrgetter
from typing import NamedTuple

from .claims import MedicalClaim, group_by_user
from .codes import CodeMappingConfig
from .errors import ReadmitError
from .textio import write_csv

GAP_DAYS = 10       # the paper's episode gap
WINDOW_DAYS = 30    # the paper's readmission window

ADMISSIONS_COLUMNS = [
    "user_id", "admission_id", "start", "end", "is_ed",
    "readmitted_within_30d", "removed_readmission_count",
]


class Episode(NamedTuple):
    user_id: str
    episode_id: str                       # "E1", "E2", ... per user, chronological
    start: date
    end: date
    member_claims: tuple[MedicalClaim, ...]


class LabeledAdmission(NamedTuple):
    user_id: str
    admission_id: str                     # "A1", "A2", ... global, (user_id, start) order
    episode_id: str
    start: date
    end: date
    member_claims: tuple[MedicalClaim, ...]
    is_ed_admission: bool
    readmitted_within_30d: bool
    removed_readmission_ids: tuple[str, ...]


def group_claims_into_episodes(claims: list[MedicalClaim],
                               gap_days: int = GAP_DAYS) -> list[Episode]:
    """Group one user's claims into episodes under the gap rule.

    Claims are sorted by (service_start, service_end, claim_id); a claim
    joins the open episode iff its start is strictly less than ``gap_days``
    after the episode's running max service end, so overlapping and
    same-day claims always join.
    """
    if gap_days < 0:
        raise ValueError("gap_days must be non-negative")
    if not claims:
        return []
    users = {c.user_id for c in claims}
    if len(users) > 1:
        raise ValueError(f"claims span multiple users: {sorted(users)}")
    ordered = sorted(claims, key=attrgetter("service_start", "service_end", "claim_id"))
    episodes: list[Episode] = []
    group: list[MedicalClaim] = [ordered[0]]
    running_end = ordered[0].service_end

    def close(group, end):   # the first claim starts earliest; end is the running end
        episodes.append(Episode(group[0].user_id, f"E{len(episodes) + 1}",
                                group[0].service_start, end, tuple(group)))

    for claim in ordered[1:]:
        if (claim.service_start - running_end).days < gap_days:
            group.append(claim)
            running_end = max(running_end, claim.service_end)
        else:
            close(group, running_end)
            group = [claim]
            running_end = claim.service_end
    close(group, running_end)
    return episodes


def filter_admissions(episodes: list[Episode], config: CodeMappingConfig) -> list[Episode]:
    """Keep episodes with at least one inpatient E&M claim.

    Discharge CPT codes are billed too rarely to anchor detection and are
    deliberately not consulted.
    """
    return [e for e in episodes if any(config.is_inpatient(c.cpt_code) for c in e.member_claims)]


def label_readmissions(
    admissions: list[Episode],
    config: CodeMappingConfig,
    first_id: int = 1,
) -> tuple[list[LabeledAdmission], list[Episode]]:
    """Sweep one user's admissions chronologically, splitting them into
    retained index admissions (labeled) and removed readmissions.

    Returns (labeled admissions, removed episodes); the labeled ones are
    numbered ``A{first_id}``, ... in chronological order.
    """
    ordered = sorted(admissions, key=attrgetter("start", "end", "episode_id"))
    retained: list[Episode] = []
    removed: list[Episode] = []
    removed_against: dict[str, list[str]] = {}
    for adm in ordered:
        if retained and (adm.start - retained[-1].end).days <= WINDOW_DAYS:
            removed.append(adm)
            removed_against.setdefault(retained[-1].episode_id, []).append(adm.episode_id)
        else:
            retained.append(adm)
    labeled = [
        LabeledAdmission(
            user_id=e.user_id,
            admission_id=f"A{first_id + i}",
            episode_id=e.episode_id,
            start=e.start,
            end=e.end,
            member_claims=e.member_claims,
            is_ed_admission=any(config.is_ed(c.cpt_code) for c in e.member_claims),
            readmitted_within_30d=e.episode_id in removed_against,
            removed_readmission_ids=tuple(removed_against.get(e.episode_id, ())),
        )
        for i, e in enumerate(retained)
    ]
    return labeled, removed


def build_labeled_admissions(
    claims: list[MedicalClaim],
    config: CodeMappingConfig,
) -> tuple[list[LabeledAdmission], list[Episode]]:
    """Full chain over all users: group, filter, label, and assign global
    admission ids in (user_id, start) order, the order users are swept in."""
    config = config.memoized()
    by_user = group_by_user(claims)
    labeled: list[LabeledAdmission] = []
    removed: list[Episode] = []
    for user_id in sorted(by_user):
        episodes = group_claims_into_episodes(by_user[user_id])
        admissions = filter_admissions(episodes, config)
        user_labeled, user_removed = label_readmissions(
            admissions, config, first_id=len(labeled) + 1)
        labeled.extend(user_labeled)
        removed.extend(user_removed)
    return labeled, removed


def readmission_rate_from_counts(n_readmissions: int, n_total: int) -> float:
    if n_total <= 0:
        raise ReadmitError("readmission rate undefined: no admissions")
    return n_readmissions / n_total


def readmission_rate(labeled: list[LabeledAdmission]) -> float:
    """Fraction of all admissions (retained + removed) that were removed
    as readmissions."""
    n_removed = sum(len(a.removed_readmission_ids) for a in labeled)
    return readmission_rate_from_counts(n_removed, len(labeled) + n_removed)


def write_admissions_csv(labeled: list[LabeledAdmission], dest):
    write_csv(dest, ADMISSIONS_COLUMNS, (
        [a.user_id, a.admission_id, a.start.isoformat(), a.end.isoformat(),
         str(a.is_ed_admission).lower(), str(a.readmitted_within_30d).lower(),
         str(len(a.removed_readmission_ids))]
        for a in labeled
    ))
