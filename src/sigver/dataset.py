"""Dataset organisation: directory loading, dev/eval splits, and pair lists.

The verification protocol enrols the first-session genuine signatures of
each user and probes them with later-session genuine signatures and with
skilled forgeries. Development and evaluation user sets are disjoint and
formed deterministically by sorted user id, so a split needs no seed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .svc import ParseError, SignatureKind, SignatureRecord, parse_svc, record_key


class ProtocolError(ValueError):
    """Dataset cannot satisfy the configured protocol."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-user signature counts the protocol requires."""

    enrollment_per_user: int = 4
    test_genuine_per_user: int = 12
    forgeries_per_user: int = 12

    def __post_init__(self) -> None:
        for name in ("enrollment_per_user", "test_genuine_per_user", "forgeries_per_user"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ProtocolError(f"{name} must be non-negative, got {value}")


DEFAULT_PROTOCOL = ProtocolConfig()

DEVELOPMENT = "development"
EVALUATION = "evaluation"


@dataclass
class DatasetSplit:
    development_users: list[str]
    evaluation_users: list[str]
    enrollment: dict[str, list[SignatureRecord]]
    test_genuine: dict[str, list[SignatureRecord]]
    test_forgeries: dict[str, list[SignatureRecord]]

    def users(self, partition: str) -> list[str]:
        if partition == DEVELOPMENT:
            return self.development_users
        if partition == EVALUATION:
            return self.evaluation_users
        raise ValueError(f"unknown partition {partition!r}")

    def records(self, partition: str):
        """All records of one partition, in deterministic order."""
        for user in self.users(partition):
            yield from self.enrollment[user]
            yield from self.test_genuine[user]
            yield from self.test_forgeries[user]


@dataclass(frozen=True)
class Pair:
    """One enrollment-vs-probe comparison.

    label 1 = genuine probe of the same user, label 0 = impostor probe.
    enroll_index / probe_index are positions within the user's
    enrollment and probe lists, which is what 4vs1 aggregation groups by.
    """

    user_id: str
    enroll_index: int
    probe_index: int
    enroll_key: str
    probe_key: str
    label: int


def _sig_sort_key(rec: SignatureRecord):
    return (rec.session, rec.sample_index, rec.key)


def build_split(
    records: list[SignatureRecord],
    n_dev_users: int,
    protocol: ProtocolConfig = DEFAULT_PROTOCOL,
) -> DatasetSplit:
    """Partition records into a development/evaluation split.

    Users are ordered lexicographically by id; the first ``n_dev_users``
    form the development set. Per user: enrollment = first
    ``enrollment_per_user`` session-1 genuine records, test genuine =
    first ``test_genuine_per_user`` genuine records from sessions >= 2,
    forgeries = first ``forgeries_per_user`` skilled forgeries, each in
    (session, sample_index) order.
    """
    by_user: dict[str, list[SignatureRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    users = sorted(by_user)
    if n_dev_users < 0:
        raise ProtocolError("n_dev_users must be non-negative")
    if n_dev_users > len(users):
        raise ProtocolError(
            f"n_dev_users={n_dev_users} exceeds the {len(users)} available users"
        )

    genuine, forgery = SignatureKind.GENUINE, SignatureKind.SKILLED_FORGERY
    parts = (
        ("session-1 genuine signatures",
         lambda r: r.kind is genuine and r.session == 1, protocol.enrollment_per_user),
        ("later-session genuine signatures",
         lambda r: r.kind is genuine and r.session >= 2, protocol.test_genuine_per_user),
        ("skilled forgeries", lambda r: r.kind is forgery, protocol.forgeries_per_user),
    )
    chosen = ({}, {}, {})  # enrollment, test genuine, test forgeries by user
    for user in users:
        for (what, wanted, need), part in zip(parts, chosen):
            recs = sorted(filter(wanted, by_user[user]), key=_sig_sort_key)
            if len(recs) < need:
                raise ProtocolError(f"user {user!r}: {len(recs)} {what}, protocol needs {need}")
            part[user] = recs[:need]

    return DatasetSplit(users[:n_dev_users], users[n_dev_users:], *chosen)


def build_pairs(split: DatasetSplit, partition: str) -> list[Pair]:
    """Enrollment x probe comparisons for one partition.

    Per user: every enrollment signature against every test genuine
    (label 1) and against every skilled forgery (label 0), ordered by
    (user, enrollment index, probe index). With E enrollment and P
    probes per class this yields E*P pairs of each label per user.
    """
    pairs: list[Pair] = []
    for user in split.users(partition):
        for label, probes in ((1, split.test_genuine[user]), (0, split.test_forgeries[user])):
            for ei, enroll in enumerate(split.enrollment[user]):
                for pi, probe in enumerate(probes):
                    pairs.append(
                        Pair(
                            user_id=user,
                            enroll_index=ei,
                            probe_index=pi,
                            enroll_key=enroll.key,
                            probe_key=probe.key,
                            label=label,
                        )
                    )
    return pairs


_KIND_BY_NAME = {k.value: k for k in SignatureKind}


def record_filename(record: SignatureRecord) -> str:
    return f"{record.kind.value}_{record.session}_{record.sample_index:02d}.svc"


def _parse_record_filename(path: Path) -> tuple[SignatureKind, int, int]:
    match = re.fullmatch(r"([a-z]+)_([0-9]+)_([0-9]+)\.svc", path.name)
    if match is None or match[1] not in _KIND_BY_NAME:
        raise ProtocolError(
            f"file name {path.name!r} does not match <kind>_<session>_<index>.svc"
        )
    if int(match[2]) < 1:
        raise ProtocolError(f"{path}: session must be at least 1")
    return _KIND_BY_NAME[match[1]], int(match[2]), int(match[3])


def load_dataset(root: str | Path, manifest: str | Path | None = None) -> list[SignatureRecord]:
    """Load every signature under ``root``.

    Default layout: ``<root>/<user_id>/<kind>_<session>_<index>.svc``.
    A manifest file overrides the layout: one record per line,
    tab-separated ``path  user_id  kind  session  index`` with paths
    relative to the manifest's directory (or absolute). Every manifest
    line or file name is checked before the first file is parsed, and
    two entries with one record key (``genuine_1_0.svc`` beside
    ``genuine_1_00.svc``, or a manifest line repeated) are rejected then
    too, naming both; a parse error names its file.
    """
    if manifest is not None:
        manifest = Path(manifest)
        entries = []
        for ln, raw in enumerate(manifest.read_text().splitlines(), start=1):
            if not raw.strip() or raw.startswith("#"):
                continue
            fields = raw.split("\t")
            if len(fields) != 5:
                raise ProtocolError(f"{manifest}:{ln}: expected 5 tab-separated fields")
            path, user_id, kind_name, session, index = fields
            if kind_name not in _KIND_BY_NAME:
                raise ProtocolError(f"{manifest}:{ln}: unknown kind {kind_name!r}")
            if not (re.fullmatch("[0-9]+", session) and re.fullmatch("[0-9]+", index)):
                raise ProtocolError(f"{manifest}:{ln}: session and index must be integers")
            if int(session) < 1:
                raise ProtocolError(f"{manifest}:{ln}: session must be at least 1")
            entries.append((f"{manifest}:{ln}", manifest.parent / path, user_id,
                            _KIND_BY_NAME[kind_name], int(session), int(index)))
    else:
        root = Path(root)
        if not root.is_dir():
            raise ProtocolError(f"dataset root {root} is not a directory")
        entries = [
            (str(svc_path), svc_path, user_dir.name, *_parse_record_filename(svc_path))
            for user_dir in sorted(p for p in root.iterdir() if p.is_dir())
            for svc_path in sorted(user_dir.glob("*.svc"))
        ]
    if not entries:
        raise ProtocolError(f"{root if manifest is None else manifest}: no signature files")

    sources: dict[str, str] = {}  # record key -> path or manifest line
    for source, _, user_id, kind, session, index in entries:
        key = record_key(user_id, kind, session, index)
        if key in sources:
            raise ProtocolError(
                f"{source}: duplicate record key {key!r}, also from {sources[key]}")
        sources[key] = source

    records = []
    for _, path, user_id, kind, session, index in entries:
        try:
            records.append(parse_svc(path.read_bytes(), user_id=user_id, kind=kind,
                                     session=session, sample_index=index))
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)  # keeps .line
            raise
    return records
