from __future__ import annotations

import dataclasses
import itertools
import struct

import pytest

from conftest import NOW, make_network, verify_chain
from hearthgate import bench, crypto, ledger, wire
from hearthgate.ledger import (
    BadSignature,
    BadTimestamp,
    ChannelName,
    InvalidPayload,
    OrgRole,
    PolicyDenied,
    UnknownIdentity,
    make_transaction,
)
from hearthgate.payloads import (
    DataEntry,
    DeviceRecord,
    DeviceStatus,
    RiskAlert,
    encode_payload,
)
from hearthgate.runtime import seeded_rng


def sample_record(rng, status=DeviceStatus.ACTIVE, ts=NOW) -> DeviceRecord:
    return DeviceRecord(
        device_token=rng.bytes(32),
        server_device_public=rng.bytes(64),
        device_public=rng.bytes(64),
        auth_public=rng.bytes(64),
        device_uid=rng.bytes(16),
        status=status,
        timestamp=ts,
    )


def sample_entry(rng, uid=None, value=21.5, ts=NOW) -> DataEntry:
    return DataEntry(
        device_uid=uid if uid is not None else rng.bytes(16),
        metric="temperature_c",
        value=value,
        unit="C",
        timestamp=ts,
        device_public_ref=rng.bytes(32),
    )


def sample_alert(rng, uid=None) -> RiskAlert:
    return RiskAlert(
        device_uid=uid if uid is not None else rng.bytes(16),
        metric="temperature_c",
        observed=80.0,
        threshold=60.0,
        severity="high",
        notified_roles=("emergency_service",),
        entry_height=1,
        entry_index=0,
    )


def test_server_submits_device_record():
    rng = seeded_rng(1)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.IDENTITY, sample_record(rng),
                          orgs["server-org"], NOW)
    seq = net.submit(tx, NOW)
    net.settle()
    receipt = net.receipt(seq)
    assert receipt is not None
    assert receipt.channel is ChannelName.IDENTITY
    assert receipt.height == 1
    assert verify_chain(net, ChannelName.IDENTITY)[0]


def test_manufacturer_cannot_write_identity():
    rng = seeded_rng(2)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.IDENTITY, sample_record(rng),
                          orgs["acme-devices"], NOW)
    with pytest.raises(PolicyDenied):
        net.submit(tx, NOW)


def test_wrong_payload_type_for_channel():
    rng = seeded_rng(3)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.IDENTITY, sample_entry(rng),
                          orgs["server-org"], NOW)
    with pytest.raises(InvalidPayload):
        net.submit(tx, NOW)


def test_unknown_identity_rejected():
    rng = seeded_rng(4)
    net, _ = make_network(rng)
    _, members = ledger.build_consortium([("ghost", OrgRole.SERVER)], rng, NOW)
    ghost = members["ghost"]
    tx = make_transaction(ChannelName.DATA, sample_entry(rng), ghost, NOW)
    with pytest.raises(UnknownIdentity):
        net.submit(tx, NOW)


def test_bad_signature_rejected():
    rng = seeded_rng(5)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    forged = ledger.LedgerTransaction(tx.channel, tx.payload, tx.submitter,
                                      bytes(64), tx.timestamp)
    with pytest.raises(BadSignature):
        net.submit(forged, NOW)


def test_malformed_payload_rejected():
    rng = seeded_rng(6)
    net, orgs = make_network(rng)
    bad = DataEntry(rng.bytes(16), "", 1.0, "C", NOW, rng.bytes(32))
    tx = make_transaction(ChannelName.DATA, bad, orgs["server-org"], NOW)
    with pytest.raises(InvalidPayload):
        net.submit(tx, NOW)


# ---------------------------------------------------------------------------
# Access matrix
# ---------------------------------------------------------------------------

ORG_BY_ROLE = {
    OrgRole.SERVER: "server-org",
    OrgRole.RISK_ENGINE: "risk-engine",
    OrgRole.MANUFACTURER: "acme-devices",
    OrgRole.INSURER: "homesure",
    OrgRole.EMERGENCY_SERVICE: "fire-dept",
}

EXPECTED_READ = {
    (ChannelName.IDENTITY, OrgRole.SERVER): "all",
    (ChannelName.DATA, OrgRole.SERVER): "all",
    (ChannelName.DATA, OrgRole.INSURER): "all",
    (ChannelName.DATA, OrgRole.MANUFACTURER): "own",
    (ChannelName.RISK_MANAGEMENT, OrgRole.SERVER): "all",
    (ChannelName.RISK_MANAGEMENT, OrgRole.EMERGENCY_SERVICE): "all",
    (ChannelName.RISK_MANAGEMENT, OrgRole.INSURER): "all",
}

EXPECTED_WRITE = {
    (ChannelName.IDENTITY, OrgRole.SERVER),
    (ChannelName.DATA, OrgRole.SERVER),
    (ChannelName.RISK_MANAGEMENT, OrgRole.RISK_ENGINE),
}

PAYLOAD_FOR = {
    ChannelName.IDENTITY: sample_record,
    ChannelName.DATA: sample_entry,
    ChannelName.RISK_MANAGEMENT: sample_alert,
}


def test_full_access_matrix_sweep():
    rng = seeded_rng(7)
    net, orgs = make_network(rng)
    for channel, role in itertools.product(ChannelName, OrgRole):
        org = orgs[ORG_BY_ROLE[role]]
        tx = make_transaction(channel, PAYLOAD_FOR[channel](rng), org, NOW)
        if (channel, role) in EXPECTED_WRITE:
            net.submit(tx, NOW)
        else:
            with pytest.raises(PolicyDenied):
                net.submit(tx, NOW)
        expected_read = EXPECTED_READ.get((channel, role), "none")
        if expected_read == "none":
            with pytest.raises(PolicyDenied):
                net.query(channel, org.org_id)
            with pytest.raises(PolicyDenied):
                net.subscribe(channel, org.org_id)
        else:
            net.query(channel, org.org_id)
            net.subscribe(channel, org.org_id)


def test_emergency_service_cannot_read_identity():
    rng = seeded_rng(8)
    net, orgs = make_network(rng)
    with pytest.raises(PolicyDenied):
        net.query(ChannelName.IDENTITY, "fire-dept")


def test_manufacturer_reads_only_own_devices():
    rng = seeded_rng(9)
    net, orgs = make_network(rng)
    own_uid = rng.bytes(16)
    other_uid = rng.bytes(16)
    net.register_device_origin(own_uid.hex(), "acme-devices")
    for uid in (own_uid, other_uid):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng, uid=uid),
                              orgs["server-org"], NOW)
        net.submit(tx, NOW)
    net.settle()
    mine = net.query(ChannelName.DATA, "acme-devices")
    assert [e.device_uid for e in mine] == [own_uid]
    everything = net.query(ChannelName.DATA, "homesure")
    assert {e.device_uid for e in everything} == {own_uid, other_uid}


# ---------------------------------------------------------------------------
# Ordering and block cutting
# ---------------------------------------------------------------------------

def test_block_cut_at_max_txs():
    rng = seeded_rng(10)
    net, orgs = make_network(rng, max_block_txs=2, block_interval=5.0)
    for _ in range(3):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                              orgs["server-org"], NOW)
        net.submit(tx, NOW)
    net.settle()
    sizes = [len(b.txs) for b in net.chains[ChannelName.DATA]]
    assert sizes == [0, 2, 1]


def test_block_cut_at_interval():
    rng = seeded_rng(11)
    net, orgs = make_network(rng, max_block_txs=50, block_interval=0.1, mu=200.0)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    seq = net.submit(tx, NOW)
    assert net.receipt(seq) is None                  # nothing before the deadline
    net.run_until(NOW + 0.05)
    assert net.receipt(seq) is None
    net.run_until(NOW + 1.0)
    receipt = net.receipt(seq)
    assert receipt is not None
    assert len(net.chains[ChannelName.DATA][receipt.height].txs) == 1
    # Cut at service end + interval.
    assert receipt.commit_time == pytest.approx(NOW + 1 / 200.0 + 0.1)


def test_bulk_commit_thousand_txs():
    rng = seeded_rng(12)
    net, orgs = make_network(rng)
    t = NOW
    for i in range(1000):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng, ts=t),
                              orgs["server-org"], t)
        net.submit(tx, t)
        t += 0.001
    net.settle()
    chain = net.chains[ChannelName.DATA]
    assert [b.height for b in chain] == list(range(len(chain)))
    assert sum(len(b.txs) for b in chain) == 1000
    ok, height, reason = verify_chain(net, ChannelName.DATA)
    assert ok, (height, reason)


def test_commit_receipts_monotone_in_time():
    rng = seeded_rng(13)
    net, orgs = make_network(rng)
    seqs = []
    for i in range(20):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                              orgs["server-org"], NOW + i * 0.01)
        seqs.append(net.submit(tx, NOW + i * 0.01))
    net.settle()
    times = [net.receipt(s).commit_time for s in seqs]
    assert times == sorted(times)


def test_append_only_history_preserved():
    rng = seeded_rng(14)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    net.submit(tx, NOW)
    net.settle()
    frozen = [b.canonical_bytes() for b in net.chains[ChannelName.DATA]]
    for i in range(5):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                              orgs["server-org"], NOW + 1 + i)
        net.submit(tx, NOW + 1 + i)
    net.settle()
    later = [b.canonical_bytes() for b in net.chains[ChannelName.DATA]]
    assert later[:len(frozen)] == frozen


# ---------------------------------------------------------------------------
# Tamper evidence
# ---------------------------------------------------------------------------

def test_fresh_chain_verifies():
    rng = seeded_rng(15)
    net, orgs = make_network(rng)
    assert all(verify_chain(net, c)[0] for c in ChannelName)  # genesis only
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    net.submit(tx, NOW)
    net.settle()
    assert verify_chain(net, ChannelName.DATA)[0]


def test_single_byte_mutation_sweep_detected():
    rng = seeded_rng(16)
    net, orgs = make_network(rng, max_block_txs=1)
    for i in range(3):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                              orgs["server-org"], NOW + i)
        net.submit(tx, NOW + i)
    net.settle()
    blocks = net.chains[ChannelName.DATA]
    for height, block in enumerate(blocks):
        raw = block.canonical_bytes()
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            try:
                candidate = ledger.decode_block(bytes(mutated))
            except Exception:
                continue  # unparseable counts as detected
            patched = blocks[:height] + [candidate] + blocks[height + 1:]
            ok, _, _ = ledger.verify_blocks(patched, ChannelName.DATA,
                                            net.membership)
            assert not ok, f"block {height} byte {i} mutation missed"


# ---------------------------------------------------------------------------
# Subscriptions
# ---------------------------------------------------------------------------

def test_subscription_exactly_once_in_commit_order():
    rng = seeded_rng(17)
    net, orgs = make_network(rng)
    sub_a = net.subscribe(ChannelName.DATA, "homesure")
    sub_b = net.subscribe(ChannelName.DATA, "server-org")
    uids = []
    for i in range(4):
        entry = sample_entry(rng)
        uids.append(entry.device_uid)
        tx = make_transaction(ChannelName.DATA, entry, orgs["server-org"],
                              NOW + i * 0.01)
        net.submit(tx, NOW + i * 0.01)
    net.settle()
    got_a = sub_a.poll()
    got_b = sub_b.poll()
    assert [p.device_uid for _, p in got_a] == uids
    assert [p.device_uid for _, p in got_b] == uids
    assert sub_a.poll() == []  # drained, nothing delivered twice


def test_risk_hook_runs_after_its_block_commits():
    rng = seeded_rng(18)
    net, orgs = make_network(rng)
    sub = net.subscribe(ChannelName.DATA, "homesure")
    hooked = []

    def hook(entry, receipt):
        hooked.append(receipt)
        raise RuntimeError("alert write failed")

    net.attach_risk_hook(hook)
    seqs = [net.submit(make_transaction(ChannelName.DATA, sample_entry(rng),
                                        orgs["server-org"], NOW), NOW)
            for _ in range(2)]
    with pytest.raises(RuntimeError):
        net.settle()
    receipts = [net.receipt(seq) for seq in seqs]
    assert [(r.height, r.tx_index) for r in receipts] == [(1, 0), (1, 1)]
    assert hooked == receipts
    assert [receipt for receipt, _ in sub.poll()] == receipts


def test_raising_risk_hook_drops_no_cut_block():
    rng = seeded_rng(23)
    net, orgs = make_network(rng, max_block_txs=1)
    hooked = []

    def hook(entry, receipt):
        hooked.append(receipt)
        raise RuntimeError(f"alert write {len(hooked)} failed")

    net.attach_risk_hook(hook)
    seqs = [net.submit(make_transaction(ChannelName.DATA, sample_entry(rng),
                                        orgs["server-org"], NOW), NOW)
            for _ in range(2)]
    with pytest.raises(RuntimeError, match="alert write 1 failed"):
        net.settle()
    receipts = [net.receipt(seq) for seq in seqs]
    assert [(r.height, r.tx_index) for r in receipts] == [(1, 0), (2, 0)]
    assert hooked == receipts
    assert len(net.chains[ChannelName.DATA]) == 3  # genesis and two blocks
    assert verify_chain(net, ChannelName.DATA)[0]
    assert net.settle() == []


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    rng = seeded_rng(19)
    net, orgs = make_network(rng)
    for i in range(5):
        tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                              orgs["server-org"], NOW + i)
        net.submit(tx, NOW + i)
    net.settle()
    path = tmp_path / "ledger.snapshot"
    ledger.write_snapshot(net, str(path))
    ok, detail = ledger.verify_snapshot(str(path))
    assert ok, detail
    membership, chains = ledger.load_snapshot(str(path))
    assert [b.block_hash for b in chains[ChannelName.DATA]] == \
        [b.block_hash for b in net.chains[ChannelName.DATA]]


def test_snapshot_corruption_detected(tmp_path):
    rng = seeded_rng(20)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    net.submit(tx, NOW)
    net.settle()
    path = tmp_path / "ledger.snapshot"
    ledger.write_snapshot(net, str(path))
    lines = path.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines)
                  if ln.startswith("B data 1 "))
    prefix, blob = lines[target].rsplit(" ", 1)
    import base64
    raw = bytearray(base64.b64decode(blob))
    raw[len(raw) // 2] ^= 0xFF
    lines[target] = prefix + " " + base64.b64encode(bytes(raw)).decode()
    path.write_text("\n".join(lines) + "\n")
    ok, detail = ledger.verify_snapshot(str(path))
    assert not ok
    assert "data" in detail


def test_submit_maps_uncheckable_credentials_to_bad_signature():
    rng = seeded_rng(21)
    net, orgs = ledger.build_consortium(ledger.CORE_ORGS, rng, 0.0)
    server = orgs["server-org"]
    late = ledger.ORG_CREDENTIAL_TTL + 5
    # Same key bytes, longer validity: a signature that is valid in itself,
    # stamped after the registered credential expired.
    longer = dataclasses.replace(server.credential,
                                 ttl=2 * ledger.ORG_CREDENTIAL_TTL)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng, ts=late),
                          dataclasses.replace(server, credential=longer), late)
    with pytest.raises(BadSignature, match="not checkable"):
        net.submit(tx, late)
    # A registered credential that does not parse as an Ed25519 key.
    bad = dataclasses.replace(server.credential.public, key=b"short")
    net.membership.register("server-org", OrgRole.SERVER, bad)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng), server, 1.0)
    with pytest.raises(BadSignature, match="not checkable"):
        net.submit(tx, 1.0)


def test_submit_checks_credential_and_stamp_at_submission():
    # A credential in force for 10 s, from t = 1000.
    rng = seeded_rng(25)
    net, orgs = ledger.build_consortium(ledger.CORE_ORGS, rng, 0.0)
    short = crypto.sig_keygen(crypto.RoleTag.ORG_CREDENTIAL, 10.0, rng, 1000.0)
    net.membership.register("server-org", OrgRole.SERVER, short.public)
    server = dataclasses.replace(orgs["server-org"], credential=short)
    # Signed while the credential was in force, submitted after it lapsed.
    tx = make_transaction(ChannelName.DATA, sample_entry(rng, ts=1001.0), server, 1001.0)
    with pytest.raises(BadSignature, match="expired"):
        net.submit(tx, 1100.0)
    # Stamped 1,005 s after its submission.
    tx = make_transaction(ChannelName.DATA, sample_entry(rng, ts=1005.0), server, 1005.0)
    with pytest.raises(BadTimestamp, match="after its submission"):
        net.submit(tx, 0.0)
    assert net.settle() == []
    # An audit checks each signature at its transaction's own stamp.
    seq = net.submit(tx, 1005.0)
    net.settle()
    assert net.receipt(seq).height == 1
    assert verify_chain(net, ChannelName.DATA) == (True, 1, "ok")


def test_submit_rejects_a_small_order_forgery():
    # The identity point registered as a submitter's credential, and the
    # signature R = identity, S = 0, which that key "verifies" for every
    # message under a check that admits small-order points.
    rng = seeded_rng(23)
    net, orgs = ledger.build_consortium(ledger.CORE_ORGS, rng, 0.0)
    server = orgs["server-org"]
    identity_point = b"\x01" + bytes(31)
    net.membership.register("server-org", OrgRole.SERVER, dataclasses.replace(
        server.credential.public, key=identity_point))
    tx = make_transaction(ChannelName.DATA, sample_entry(rng), server, 1.0)
    forged = dataclasses.replace(tx, signature=identity_point + bytes(32))
    with pytest.raises(BadSignature, match="signature invalid"):
        net.submit(forged, 1.0)


def test_make_transaction_maps_unusable_credentials_to_bad_signature():
    rng = seeded_rng(22)
    _, orgs = ledger.build_consortium(ledger.CORE_ORGS, rng, 0.0)
    server = orgs["server-org"]
    late = ledger.ORG_CREDENTIAL_TTL + 5
    with pytest.raises(BadSignature, match="cannot sign"):
        make_transaction(ChannelName.DATA, sample_entry(rng, ts=late), server, late)
    short = dataclasses.replace(server.credential, secret_key=bytes(31))
    with pytest.raises(BadSignature, match="cannot sign"):
        make_transaction(ChannelName.DATA, sample_entry(rng),
                         dataclasses.replace(server, credential=short), 1.0)


# ---------------------------------------------------------------------------
# Transaction encodings, computed once
# ---------------------------------------------------------------------------

def _fresh_signing_bytes(tx) -> bytes:
    return wire.pack_fields([
        tx.channel.value.encode(),
        encode_payload(tx.payload),
        tx.submitter.encode(),
        struct.pack(">d", tx.timestamp),
    ])


@pytest.mark.parametrize("channel, submitter, sample", [
    (ChannelName.IDENTITY, "server-org", sample_record),
    (ChannelName.DATA, "server-org", sample_entry),
    (ChannelName.RISK_MANAGEMENT, "risk-engine", sample_alert),
])
def test_cached_encodings_equal_fresh_ones(channel, submitter, sample):
    rng = seeded_rng(22)
    net, orgs = make_network(rng)
    tx = make_transaction(channel, sample(rng), orgs[submitter], NOW)
    net.submit(tx, NOW)
    net.settle()
    fresh = _fresh_signing_bytes(tx)
    assert tx.signing_bytes == fresh
    assert tx.canonical_bytes == wire.pack_fields([fresh, tx.signature])
    decoded = ledger.decode_transaction(tx.canonical_bytes)
    assert decoded == tx and decoded.signing_bytes == fresh
    assert net.chains[channel][1].txs == (tx,)
    assert verify_chain(net, channel)[0]


@pytest.mark.parametrize("change", ["timestamp", "payload"])
def test_replaced_transaction_gets_new_bytes_and_is_rejected(change):
    rng = seeded_rng(23)
    net, orgs = make_network(rng)
    tx = make_transaction(ChannelName.DATA, sample_entry(rng),
                          orgs["server-org"], NOW)
    assert tx.signing_bytes  # fill the cache before copying
    if change == "timestamp":
        copy = dataclasses.replace(tx, timestamp=NOW + 1)
    else:
        copy = dataclasses.replace(tx, payload=sample_entry(rng, value=99.0))
    assert copy.signing_bytes == _fresh_signing_bytes(copy) != tx.signing_bytes
    with pytest.raises(BadSignature):
        net.submit(copy, NOW)


def test_generate_load_encodes_each_payload_once(monkeypatch):
    calls = {"encode": 0, "tx": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ledger, "encode_payload",
                        counted(ledger.encode_payload, "encode"))
    monkeypatch.setattr(bench, "make_transaction",
                        counted(bench.make_transaction, "tx"))
    mix = (("data", 0.6), ("identity", 0.2), ("risk_management", 0.2))
    bench.generate_load(bench.LoadProfile(arrival_rate=30, duration=10.0,
                                          tx_mix=mix), seed=24)
    assert calls["tx"] > 250
    assert calls["encode"] == calls["tx"]
