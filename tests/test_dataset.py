import numpy as np
import pytest

from sigver.dataset import (
    DEVELOPMENT,
    EVALUATION,
    ProtocolConfig,
    ProtocolError,
    build_pairs,
    build_split,
    load_dataset,
    record_filename,
)
from sigver.svc import ParseError, SignatureKind, SignatureRecord
from sigver.synth import SynthConfig, generate


def stub_record(user: str, kind: SignatureKind, session: int, index: int) -> SignatureRecord:
    # protocol tests only need metadata; 2 samples satisfy the invariants
    return SignatureRecord(
        x=np.array([0, 1]),
        y=np.array([0, 1]),
        pressure=np.array([10, 10]),
        timestamp=np.array([0, 10]),
        pen_down=np.array([True, True]),
        user_id=user,
        session=session,
        kind=kind,
        sample_index=index,
    )


def stub_corpus(
    n_users: int,
    genuine_per_session: int = 4,
    n_sessions: int = 4,
    forgeries: int = 12,
) -> list[SignatureRecord]:
    records = []
    for u in range(n_users):
        user = f"u{u:04d}"
        for s in range(1, n_sessions + 1):
            for i in range(genuine_per_session):
                records.append(stub_record(user, SignatureKind.GENUINE, s, i))
        for i in range(forgeries):
            session = 1 + i % n_sessions
            records.append(stub_record(user, SignatureKind.SKILLED_FORGERY, session, i))
    return records


def test_split_partitions_and_counts():
    split = build_split(stub_corpus(10), n_dev_users=6)
    assert split.development_users == [f"u{u:04d}" for u in range(6)]
    assert split.evaluation_users == [f"u{u:04d}" for u in range(6, 10)]
    assert not set(split.development_users) & set(split.evaluation_users)
    for user in split.development_users + split.evaluation_users:
        assert len(split.enrollment[user]) == 4
        assert len(split.test_genuine[user]) == 12
        assert len(split.test_forgeries[user]) == 12
        assert all(r.session == 1 for r in split.enrollment[user])
        assert all(r.session >= 2 for r in split.test_genuine[user])


def test_zero_dev_users_puts_everyone_in_evaluation():
    split = build_split(stub_corpus(5), n_dev_users=0)
    assert split.development_users == []
    assert len(split.evaluation_users) == 5
    assert build_pairs(split, DEVELOPMENT) == []


def test_six_dev_users_give_288_genuine_pairs():
    split = build_split(stub_corpus(10), n_dev_users=6)
    dev = build_pairs(split, DEVELOPMENT)
    assert sum(p.label for p in dev) == 4 * 12 * 6 == 288


def test_paper_scale_pair_counts():
    """300 development users produce 14,400 genuine + 14,400 impostor pairs."""
    split = build_split(stub_corpus(300), n_dev_users=300)
    dev = build_pairs(split, DEVELOPMENT)
    labels = np.array([p.label for p in dev])
    assert (labels == 1).sum() == 14400
    assert (labels == 0).sum() == 14400


def test_single_user_pair_count():
    split = build_split(stub_corpus(1), n_dev_users=1)
    dev = build_pairs(split, DEVELOPMENT)
    assert len(dev) == 48 + 48


def test_custom_protocol_counts():
    protocol = ProtocolConfig(
        enrollment_per_user=2, test_genuine_per_user=3, forgeries_per_user=3
    )
    corpus = stub_corpus(7, genuine_per_session=3, n_sessions=2, forgeries=3)
    split = build_split(corpus, n_dev_users=7, protocol=protocol)
    dev = build_pairs(split, DEVELOPMENT)
    labels = [p.label for p in dev]
    assert labels.count(1) == 42
    assert labels.count(0) == 42


def test_pair_order_is_user_enroll_probe():
    split = build_split(stub_corpus(2), n_dev_users=2)
    dev = build_pairs(split, DEVELOPMENT)
    # per user: the genuine block then the forgery block
    first_user = dev[:96]
    assert all(p.user_id == "u0000" for p in first_user)
    assert [p.label for p in first_user] == [1] * 48 + [0] * 48
    genuine = first_user[:48]
    assert [p.enroll_index for p in genuine] == [e for e in range(4) for _ in range(12)]
    assert [p.probe_index for p in genuine] == list(range(12)) * 4
    assert dev == build_pairs(split, DEVELOPMENT)


def test_pairs_never_cross_users():
    split = build_split(stub_corpus(4), n_dev_users=2)
    for partition in (DEVELOPMENT, EVALUATION):
        for p in build_pairs(split, partition):
            assert p.enroll_key.split("/")[0] == p.user_id
            assert p.probe_key.split("/")[0] == p.user_id
    dev_users = {p.user_id for p in build_pairs(split, DEVELOPMENT)}
    eval_users = {p.user_id for p in build_pairs(split, EVALUATION)}
    assert not dev_users & eval_users


def test_insufficient_enrollment_names_user():
    corpus = stub_corpus(3)
    bad = "u0001"
    corpus = [
        r for r in corpus
        if not (r.user_id == bad and r.kind is SignatureKind.GENUINE and r.session == 1)
    ]
    with pytest.raises(ProtocolError, match=bad):
        build_split(corpus, n_dev_users=2)


@pytest.mark.parametrize("dropped, message", [
    (lambda r: r.kind is SignatureKind.GENUINE and r.session == 1,
     "user 'u0001': 0 session-1 genuine signatures, protocol needs 4"),
    (lambda r: r.kind is SignatureKind.GENUINE and r.session == 4,
     "user 'u0001': 8 later-session genuine signatures, protocol needs 12"),
    (lambda r: r.kind is SignatureKind.SKILLED_FORGERY and r.sample_index == 0,
     "user 'u0001': 11 skilled forgeries, protocol needs 12"),
], ids=["enrollment", "later_genuine", "forgeries"])
def test_shortfall_message_per_part(dropped, message):
    corpus = [r for r in stub_corpus(3) if not (r.user_id == "u0001" and dropped(r))]
    with pytest.raises(ProtocolError) as err:
        build_split(corpus, n_dev_users=2)
    assert str(err.value) == message


def test_insufficient_forgeries_names_user():
    corpus = [r for r in stub_corpus(2)
              if not (r.user_id == "u0000" and r.kind is SignatureKind.SKILLED_FORGERY)]
    with pytest.raises(ProtocolError, match="u0000"):
        build_split(corpus, n_dev_users=1)


def test_too_many_dev_users():
    with pytest.raises(ProtocolError):
        build_split(stub_corpus(3), n_dev_users=4)


def test_unknown_partition():
    split = build_split(stub_corpus(2), n_dev_users=1)
    with pytest.raises(ValueError):
        split.users("test")


def test_records_iterates_partition():
    split = build_split(stub_corpus(3), n_dev_users=2)
    dev_records = list(split.records(DEVELOPMENT))
    assert len(dev_records) == 2 * (4 + 12 + 12)
    assert {r.user_id for r in dev_records} == {"u0000", "u0001"}


def test_directory_round_trip(tmp_path, tiny_config, tiny_records):
    users, files = generate(tiny_config, tmp_path)
    assert files == len(tiny_records)
    loaded = load_dataset(tmp_path)
    assert sorted(r.key for r in loaded) == sorted(r.key for r in tiny_records)
    by_key = {r.key: r for r in loaded}
    for rec in tiny_records:
        assert by_key[rec.key] == rec


def test_manifest_layout(tmp_path):
    corpus = stub_corpus(1)
    manifest_lines = ["# path\tuser\tkind\tsession\tindex"]
    for i, rec in enumerate(corpus):
        name = f"sig{i:03d}.svc"
        from sigver.svc import emit_svc

        (tmp_path / name).write_bytes(emit_svc(rec))
        manifest_lines.append(
            f"{name}\t{rec.user_id}\t{rec.kind.value}\t{rec.session}\t{rec.sample_index}"
        )
    manifest = tmp_path / "index.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n")
    loaded = load_dataset(tmp_path, manifest=manifest)
    assert loaded == corpus


def test_manifest_rejects_bad_lines(tmp_path):
    manifest = tmp_path / "index.tsv"
    manifest.write_text("only\tfour\tfields\there\n")
    with pytest.raises(ProtocolError, match="5 tab-separated"):
        load_dataset(tmp_path, manifest=manifest)


def test_manifest_checked_before_any_file_is_read(tmp_path):
    manifest = tmp_path / "index.tsv"
    manifest.write_text("missing.svc\tu0\tgenuine\t1\t0\nmissing.svc\tu0\tsketch\t1\t1\n")
    with pytest.raises(ProtocolError, match=":2: unknown kind 'sketch'"):
        load_dataset(tmp_path, manifest=manifest)


def test_session_zero_file_rejected_before_any_file_is_parsed(tmp_path):
    (tmp_path / "u0").mkdir()
    (tmp_path / "u0" / "genuine_1_00.svc").write_text("not an svc file\n")
    bad = tmp_path / "u1" / "genuine_0_00.svc"
    bad.parent.mkdir()
    bad.write_text("2\n0 0 0 1\n1 1 10 1\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == f"{bad}: session must be at least 1"


def test_manifest_session_zero_rejected_before_any_file_is_read(tmp_path):
    manifest = tmp_path / "index.tsv"
    manifest.write_text("missing.svc\tu0\tgenuine\t1\t0\nmissing.svc\tu0\tgenuine\t0\t1\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path, manifest=manifest)
    assert str(err.value) == f"{manifest}:2: session must be at least 1"


def test_duplicate_key_in_layout_rejected_before_any_file_is_parsed(tmp_path):
    (tmp_path / "u0").mkdir()
    (tmp_path / "u0" / "forgery_1_00.svc").write_text("not an svc file\n")
    first = tmp_path / "u0" / "genuine_1_0.svc"
    second = tmp_path / "u0" / "genuine_1_00.svc"
    for path in (first, second):
        path.write_text("2\n0 0 0 1\n1 1 10 1\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == (
        f"{second}: duplicate record key 'u0/genuine_1_0', also from {first}")


@pytest.mark.parametrize("again", ["a.svc\tu0\tgenuine\t1\t0", "b.svc\tu0\tgenuine\t1\t00"])
def test_duplicate_key_in_manifest_rejected_before_any_file_is_read(tmp_path, again):
    manifest = tmp_path / "index.tsv"
    manifest.write_text(f"a.svc\tu0\tgenuine\t1\t0\na.svc\tu0\tgenuine\t1\t1\n{again}\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path, manifest=manifest)
    assert str(err.value) == (
        f"{manifest}:3: duplicate record key 'u0/genuine_1_0', also from {manifest}:1")


@pytest.mark.parametrize("name", ["genuine_\u0663_00.svc", "genuine_1_\u0660\u0660.svc",
                                  "genuine_\uff11_00.svc"])
def test_non_ascii_digits_in_file_name_rejected(tmp_path, name):
    (tmp_path / "u0").mkdir()
    (tmp_path / "u0" / name).write_text("2\n0 0 0 1\n1 1 10 1\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == (
        f"file name {name!r} does not match <kind>_<session>_<index>.svc")


@pytest.mark.parametrize("fields", ["\u0663\t0", "1\t\u0660", "\uff11\t0"])
def test_non_ascii_digits_in_manifest_rejected(tmp_path, fields):
    manifest = tmp_path / "index.tsv"
    manifest.write_text(f"missing.svc\tu0\tgenuine\t1\t0\nmissing.svc\tu0\tgenuine\t{fields}\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path, manifest=manifest)
    assert str(err.value) == f"{manifest}:2: session and index must be integers"


def test_parse_error_names_file_and_keeps_line(tmp_path):
    svc = tmp_path / "u0" / "genuine_1_00.svc"
    svc.parent.mkdir()
    svc.write_text("2\n0 0 0 1\n1 x 10 1\n")
    with pytest.raises(ParseError) as err:
        load_dataset(tmp_path)
    assert err.value.line == 3
    assert str(err.value) == f"{svc}: line 3: non-numeric token 'x'"


def test_record_filename_shape():
    rec = stub_record("u9", SignatureKind.SKILLED_FORGERY, 3, 7)
    assert record_filename(rec) == "forgery_3_07.svc"


def test_load_rejects_unknown_filename(tmp_path):
    user_dir = tmp_path / "u0"
    user_dir.mkdir()
    (user_dir / "oddly_named.svc").write_text("2\n0 0 0 1\n1 1 10 1\n")
    with pytest.raises(ProtocolError, match="oddly_named"):
        load_dataset(tmp_path)


def test_missing_root():
    with pytest.raises(ProtocolError):
        load_dataset("/nonexistent/dataset/root")


@pytest.mark.parametrize("use_manifest", [False, True], ids=["root", "manifest"])
def test_empty_corpus_is_an_error(tmp_path, use_manifest):
    (tmp_path / "u0").mkdir()
    (tmp_path / "u0" / "notes.txt").write_text("no signature here\n")
    manifest = tmp_path / "index.tsv" if use_manifest else None
    if use_manifest:
        manifest.write_text("# path\tuser\tkind\tsession\tindex\n\n")
    with pytest.raises(ProtocolError) as err:
        load_dataset(tmp_path, manifest=manifest)
    assert str(err.value) == f"{manifest or tmp_path}: no signature files"
