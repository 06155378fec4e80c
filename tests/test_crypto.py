"""Key derivation and the four sealed-payload operations.

The independent checks here open suite output with the raw AEAD from
`cryptography` and re-derive keys from the documented KDF shape, so a
silent change to either side shows up as a mismatch rather than a
round-trip that happens to agree with itself.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ticpay.crypto import (
    KEY_LEN,
    CryptoSuite,
    NonceSequence,
    Pin,
    SecretKey,
    derive_pin_key,
    derive_shared_key,
    derive_tic_key,
    get_cipher,
)
from ticpay.errors import IntegrityFailure, RoleMismatch
from ticpay.payment import PayMode, PaymentOrder
from ticpay.rng import DeterministicRng
from ticpay.wire import Ciphertext, KeyRole

PIN = Pin(bytes.fromhex("00112233445566aa"))
HANDLE = "deadbeefcafe0123"
TIC = "ABCDEF1234567890"


def reference_kdf(material: bytes, label: bytes) -> bytes:
    # HKDF with the fixed salt, one expand block; kept separate from the
    # implementation on purpose.
    prk = hmac.new(b"ticpay.kdf.v1", material, hashlib.sha256).digest()
    return hmac.new(prk, label + b"\x01", hashlib.sha256).digest()


def fresh_key(session_id: str = "S0001", seed: int = 3) -> SecretKey:
    return SecretKey(DeterministicRng(seed, f"secret-key|{session_id}").take(KEY_LEN), session_id)


def test_kdf_matches_reference_construction():
    assert derive_pin_key(PIN) == reference_kdf(PIN.value, b"pin-wrap")
    assert derive_tic_key(TIC) == reference_kdf(TIC.encode(), b"tic-key")
    assert derive_shared_key(b"s3cret", "minfo|m1") == reference_kdf(b"s3cret", b"minfo|m1")


def test_kdf_labels_separate_key_families():
    # Same input material, different purposes: the keys must not collide.
    material = bytes(8)
    keys = {
        derive_pin_key(Pin(material)),
        derive_tic_key("00000000"),  # digits alphabet, same raw bytes
        derive_shared_key(material, "minfo|x"),
    }
    assert len(keys) == 3


def test_pin_validation():
    with pytest.raises(ValueError):
        Pin(b"short")
    assert Pin.from_hex("00112233445566aa").value == PIN.value
    with pytest.raises(ValueError):
        Pin.from_hex("zz")


def test_secret_key_is_deterministic_per_seed():
    a = fresh_key("S0001", 3)
    b = fresh_key("S0001", 3)
    c = fresh_key("S0002", 3)
    d = fresh_key("S0001", 4)
    assert a.key_bytes == b.key_bytes
    assert len({a.key_bytes, c.key_bytes, d.key_bytes}) == 3
    assert len(a.key_bytes) == KEY_LEN
    for size in (0, KEY_LEN - 1, KEY_LEN + 1):
        with pytest.raises(ValueError):
            SecretKey(bytes(size), "S0001")


def test_wrap_unwrap_round_trip():
    suite = CryptoSuite()
    key = fresh_key()
    wrapped = suite.wrap_secret_key(key, PIN, session_handle=HANDLE)
    assert wrapped.role is KeyRole.PIN_WRAPPED
    out = suite.unwrap_secret_key(wrapped, PIN, session_handle=HANDLE)
    assert out.key_bytes == key.key_bytes
    assert out.session_id == key.session_id


def test_unwrap_fails_for_every_single_bit_pin_error():
    suite = CryptoSuite()
    wrapped = suite.wrap_secret_key(fresh_key(), PIN, session_handle=HANDLE)
    for byte_index in range(len(PIN.value)):
        for bit in range(8):
            flipped = bytearray(PIN.value)
            flipped[byte_index] ^= 1 << bit
            with pytest.raises(IntegrityFailure):
                suite.unwrap_secret_key(wrapped, Pin(bytes(flipped)), session_handle=HANDLE)


def test_unwrap_is_bound_to_the_session_handle():
    suite = CryptoSuite()
    wrapped = suite.wrap_secret_key(fresh_key(), PIN, session_handle=HANDLE)
    with pytest.raises(IntegrityFailure):
        suite.unwrap_secret_key(wrapped, PIN, session_handle="other-handle")


def test_tic_encryption_round_trip_and_binding():
    suite = CryptoSuite()
    key = fresh_key()
    ct = suite.encrypt_tic(TIC, key, HANDLE)
    assert suite.decrypt_tic(ct, key, HANDLE) == TIC
    with pytest.raises(IntegrityFailure):
        suite.decrypt_tic(ct, fresh_key("S0009", 9), HANDLE)
    with pytest.raises(IntegrityFailure):
        suite.decrypt_tic(ct, key, "stolen-cookie")


def test_payment_encryption_round_trip_and_binding():
    suite = CryptoSuite()
    order = PaymentOrder(mode=PayMode.ELECTRONIC_TRANSFER, payee_account="ACC-9914", amount=2599)
    ct = suite.encrypt_payment(order, TIC, HANDLE)
    back = suite.decrypt_payment(ct, TIC, HANDLE)
    assert back == order
    with pytest.raises(IntegrityFailure):
        suite.decrypt_payment(ct, "ABCDEF1234567891", HANDLE)
    with pytest.raises(IntegrityFailure):
        suite.decrypt_payment(ct, TIC, "stolen-cookie")


def test_roles_do_not_cross():
    suite = CryptoSuite()
    key = fresh_key()
    tic_ct = suite.encrypt_tic(TIC, key, HANDLE)
    with pytest.raises(RoleMismatch):
        suite.decrypt_payment(tic_ct, TIC, HANDLE)
    wrapped = suite.wrap_secret_key(key, PIN, session_handle=HANDLE)
    with pytest.raises(RoleMismatch):
        suite.decrypt_tic(wrapped, key, HANDLE)


def test_suite_output_opens_under_raw_aead():
    # Composition check: nonce handling, AD shape, and key derivation all
    # have to line up for the raw primitive to accept the suite's output.
    suite = CryptoSuite()
    key = fresh_key()
    ct = suite.encrypt_tic(TIC, key, HANDLE)
    plain = AESGCM(key.key_bytes).decrypt(ct.nonce, ct.body + ct.tag, f"tic|{HANDLE}".encode())
    assert plain == TIC.encode()

    order = PaymentOrder(mode=PayMode.CREDIT_CARD, payee_account="MAC-7001", amount=4999)
    ct2 = suite.encrypt_payment(order, TIC, HANDLE)
    plain2 = AESGCM(reference_kdf(TIC.encode(), b"tic-key")).decrypt(
        ct2.nonce, ct2.body + ct2.tag, f"order|{HANDLE}".encode()
    )
    assert PaymentOrder.from_bytes(plain2) == order


def test_nonces_never_repeat_within_a_suite():
    suite = CryptoSuite()
    key = fresh_key()
    seen = set()
    for _ in range(300):
        ct = suite.encrypt_tic(TIC, key, HANDLE)
        assert ct.nonce not in seen
        seen.add(ct.nonce)


def test_nonce_sequence_is_a_big_endian_counter():
    seq = NonceSequence(start=5)
    assert seq.next() == (5).to_bytes(12, "big")
    assert seq.next() == (6).to_bytes(12, "big")


def test_ciphertext_survives_serialization():
    suite = CryptoSuite()
    key = fresh_key()
    ct = suite.encrypt_tic(TIC, key, HANDLE)
    back = Ciphertext.from_bytes(ct.to_bytes())
    assert suite.decrypt_tic(back, key, HANDLE) == TIC


def test_tampered_ciphertext_is_rejected_everywhere():
    suite = CryptoSuite()
    key = fresh_key()
    ct = suite.encrypt_tic(TIC, key, HANDLE)
    for attr in ("nonce", "body", "tag"):
        original = getattr(ct, attr)
        mangled = bytes([original[0] ^ 1]) + original[1:]
        bad = Ciphertext(
            role=ct.role,
            nonce=mangled if attr == "nonce" else ct.nonce,
            body=mangled if attr == "body" else ct.body,
            tag=mangled if attr == "tag" else ct.tag,
        )
        with pytest.raises(IntegrityFailure):
            suite.decrypt_tic(bad, key, HANDLE)


def test_null_cipher_is_transparent_and_named():
    suite = CryptoSuite("null")
    key = fresh_key()
    ct = suite.encrypt_tic(TIC, key, HANDLE)
    # the deliberate hole: plaintext rides in the body for leak-scan control
    assert ct.body == TIC.encode()
    assert suite.decrypt_tic(ct, key, HANDLE) == TIC
    assert get_cipher("null").name == "null"
    with pytest.raises(ValueError):
        get_cipher("rot13")
