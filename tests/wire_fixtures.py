"""Deterministic message fixtures shared by wire tests and the format docs."""

from __future__ import annotations

from hearthgate import crypto, wire
from hearthgate.crypto import RoleTag
from hearthgate.runtime import seeded_rng
from hearthgate.wire import Kind

FIXTURE_NOW = 1_700_000_010.0
FIXTURE_TTL = 86_400.0


def build_fixture_messages() -> dict[str, wire.Message]:
    """One structurally valid message per variant, derived from seed 42."""
    rng = seeded_rng(42)
    now, ttl = FIXTURE_NOW, FIXTURE_TTL
    server = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, ttl, rng, now)
    auth = crypto.generate_role_keys(RoleTag.AUTH_FOR_SERVER, ttl, rng, now)
    device = crypto.generate_role_keys(RoleTag.DEVICE_FOR_SERVER, ttl, rng, now)
    server_dev = crypto.generate_role_keys(RoleTag.SERVER_FOR_DEVICE, ttl, rng, now)
    link = crypto.gen_link_key(rng)
    uid = crypto.gen_pseudo_uuid(rng)
    device_token = crypto.gen_long_lived_token(rng)
    nonce = crypto.gen_nonce(rng)
    totp_secret = crypto.gen_totp_secret(rng)
    digits = crypto.totp_generate(totp_secret, now)
    api = "https://server.example/api"

    nonce_sig = crypto.sign(auth.sig, nonce, now)
    enc_token = crypto.hybrid_encrypt(server.kem.public, digits.encode(),
                                      rng, now)
    token_sig = crypto.sign(auth.sig, wire.encode_hybrid(enc_token), now)

    def sealed(kind: Kind, key: crypto.PublicKey, plaintext: bytes) -> wire.Message:
        return wire.Message(kind, crypto.hybrid_encrypt(key, plaintext, rng, now))

    return {
        "session_hello": wire.Message(Kind.SessionHello, auth.public),
        "nonce_challenge": wire.Message(Kind.NonceChallenge, nonce),
        "nonce_response": sealed(Kind.NonceResponse, server.kem.public,
                                 wire.SIGNATURE.encode(nonce_sig)),
        "token_delivery": sealed(Kind.TokenDelivery, auth.kem.public,
                                 wire.TOKEN_PAYLOAD.encode((digits, api))),
        "device_provision": wire.Message(Kind.DeviceProvision, crypto.aead_seal(
            link,
            wire.PROVISION_PAYLOAD.encode((api, server.public, enc_token,
                                           token_sig)),
            rng)),
        "registration_request": sealed(
            Kind.RegistrationRequest, server.kem.public,
            wire.REGISTRATION_PAYLOAD.encode((device.public, uid.value,
                                              enc_token, token_sig))),
        "activation_response": sealed(
            Kind.ActivationResponse, device.kem.public,
            wire.ACTIVATION_PAYLOAD.encode((device_token, server_dev.public))),
        "connected_notice": sealed(Kind.ConnectedNotice, auth.kem.public,
                                   wire.encode_connected_payload(uid.value)),
        "data_report": sealed(
            Kind.DataReport, server_dev.kem.public,
            wire.DATA_PAYLOAD.encode((uid.value, "temperature_c", 21.5, "C",
                                      device_token))),
        "revocation_request": sealed(
            Kind.RevocationRequest, server.kem.public,
            wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB, uid.value))),
    }
