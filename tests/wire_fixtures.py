"""Deterministic message fixtures shared by wire tests and the format docs."""

from __future__ import annotations

from hearthgate import crypto, wire
from hearthgate.crypto import RoleTag
from hearthgate.runtime import seeded_rng

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
    token = crypto.totp_generate(totp_secret, now)
    api = "https://server.example/api"

    nonce_sig = crypto.sign(auth.sig, nonce.value, now)
    enc_token = crypto.hybrid_encrypt(server.kem.public, token.digits.encode(),
                                      rng, now)
    token_sig = crypto.sign(auth.sig, wire.encode_hybrid(enc_token), now)

    return {
        "session_hello": wire.SessionHello(auth.public),
        "nonce_challenge": wire.NonceChallenge(nonce.value),
        "nonce_response": wire.NonceResponse(crypto.hybrid_encrypt(
            server.kem.public, wire.SIGNATURE.encode(nonce_sig), rng, now)),
        "token_delivery": wire.TokenDelivery(crypto.hybrid_encrypt(
            auth.kem.public, wire.TOKEN_PAYLOAD.encode((token.digits, api)),
            rng, now)),
        "device_provision": wire.DeviceProvision(crypto.aead_seal(
            link.value,
            wire.PROVISION_PAYLOAD.encode((api, server.public, enc_token,
                                           token_sig)),
            rng)),
        "registration_request": wire.RegistrationRequest(crypto.hybrid_encrypt(
            server.kem.public,
            wire.REGISTRATION_PAYLOAD.encode((device.public, uid.value,
                                              enc_token, token_sig)),
            rng, now)),
        "activation_response": wire.ActivationResponse(crypto.hybrid_encrypt(
            device.kem.public,
            wire.ACTIVATION_PAYLOAD.encode((device_token, server_dev.public)),
            rng, now)),
        "connected_notice": wire.ConnectedNotice(crypto.hybrid_encrypt(
            auth.kem.public, wire.encode_connected_payload(uid.value), rng, now)),
        "data_report": wire.DataReport(crypto.hybrid_encrypt(
            server_dev.kem.public,
            wire.DATA_PAYLOAD.encode((uid.value, "temperature_c", 21.5, "C",
                                      device_token)),
            rng, now)),
        "revocation_request": wire.RevocationRequest(crypto.hybrid_encrypt(
            server.kem.public,
            wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB, uid.value)),
            rng, now)),
    }
