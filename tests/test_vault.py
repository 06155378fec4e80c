"""Sealed TIC store: consume-once picks, fail-closed unlock, stable bytes."""

from __future__ import annotations

import hashlib

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ticpay.errors import IntegrityFailure, VaultEmpty, VaultLocked, WireError
from ticpay.tic_registry import TicRegistry
from ticpay.vault import KDF_ITERATIONS, SALT_LEN, TicVault
from ticpay.wire import Reader

SALT = bytes(range(SALT_LEN))
CODES = ["AAAA0000BBBB1111", "CCCC2222DDDD3333", "EEEE4444FFFF5555"]
PASSWORD = "orchid-battery-9"


def fresh_vault(codes=None, password: str = PASSWORD) -> TicVault:
    return TicVault.provision(list(codes if codes is not None else CODES), password, salt=SALT)


def open_sealed_blob(vault: TicVault, password: str) -> list:
    """Independent read of the sealed payload: PBKDF2 + raw AESGCM + layout."""
    key = hashlib.pbkdf2_hmac("sha256", password.encode(), vault.salt, vault.iterations, 32)
    sealed = vault._sealed
    plain = AESGCM(key).decrypt(sealed.nonce, sealed.body + sealed.tag, b"blob|vault")
    reader = Reader(plain)
    values = [reader.str16() for _ in range(reader.u16())]
    reader.expect_end()
    return values


def test_provision_and_unlock_round_trip():
    vault = fresh_vault()
    data = vault.to_bytes()
    loaded = TicVault.from_bytes(data)
    assert loaded.locked
    loaded.unlock(PASSWORD)
    assert [c.value for c in loaded.codes()] == CODES
    assert loaded.remaining() == 3


def test_serialization_is_bit_stable():
    vault = fresh_vault()
    data = vault.to_bytes()
    assert data == vault.to_bytes()
    assert TicVault.from_bytes(data).to_bytes() == data


def test_sealed_blob_matches_independent_oracle():
    vault = fresh_vault()
    assert open_sealed_blob(vault, PASSWORD) == CODES


def test_clear_header_hides_contents():
    # Only KDF inputs and the seal counter ride outside the blob.
    data = fresh_vault().to_bytes()
    for value in CODES:
        assert value.encode() not in data


def test_wrong_password_fails_closed():
    vault = TicVault.from_bytes(fresh_vault().to_bytes())
    with pytest.raises(IntegrityFailure, match="password"):
        vault.unlock("orchid-battery-8")
    assert vault.locked
    with pytest.raises(VaultLocked):
        vault.codes()
    with pytest.raises(VaultLocked):
        vault.pick()


def test_pick_consumes_in_issue_order():
    vault = fresh_vault()
    assert vault.pick_next().value == CODES[0]
    assert vault.pick_next().value == CODES[1]
    assert vault.remaining() == 1
    # a reloaded copy must agree that the picked codes are gone
    reloaded = TicVault.from_bytes(vault.to_bytes())
    reloaded.unlock(PASSWORD)
    assert [c.value for c in reloaded.codes()] == [CODES[2]]


def test_pick_by_index_and_bounds():
    vault = fresh_vault()
    assert vault.pick(1).value == CODES[1]
    with pytest.raises(IndexError):
        vault.pick(2)
    vault.pick(0)
    vault.pick(0)
    with pytest.raises(VaultEmpty):
        vault.pick()


def test_reseal_nonces_never_repeat_across_reloads():
    # Every mutation reseals; the nonce counter must survive serialization
    # or a save/load cycle would reuse a (key, nonce) pair.
    vault = fresh_vault()
    nonces = {vault._sealed.nonce}
    vault.pick_next()
    nonces.add(vault._sealed.nonce)
    reloaded = TicVault.from_bytes(vault.to_bytes())
    reloaded.unlock(PASSWORD)
    reloaded.pick_next()
    nonces.add(reloaded._sealed.nonce)
    reloaded.change_password(PASSWORD, "new-password")
    nonces.add(reloaded._sealed.nonce)
    assert len(nonces) == 4


def test_provision_unlock_pick_change_password():
    batch = TicRegistry().generate_tics("ACC-1001", 3, seed=b"ops")
    vault = TicVault.provision(batch.codes, "first-pass", salt=SALT,
                               alphabet=batch.codes[0].alphabet)
    code = vault.pick()
    assert code.value == batch.codes[0].value
    assert vault.remaining() == 2
    vault.change_password("first-pass", "second-pass")
    vault.lock()
    with pytest.raises(IntegrityFailure):
        vault.unlock("first-pass")
    vault.unlock("second-pass")
    assert vault.pick().value == batch.codes[1].value


def test_change_password_rekeys_and_keeps_contents():
    vault = fresh_vault()
    vault.change_password(PASSWORD, "rotated")
    data = vault.to_bytes()
    stale = TicVault.from_bytes(data)
    with pytest.raises(IntegrityFailure):
        stale.unlock(PASSWORD)
    fresh = TicVault.from_bytes(data)
    fresh.unlock("rotated")
    assert [c.value for c in fresh.codes()] == CODES
    assert open_sealed_blob(fresh, "rotated") == CODES


def test_change_password_requires_the_old_one():
    vault = fresh_vault()
    with pytest.raises(IntegrityFailure):
        vault.change_password("wrong", "rotated")


def test_empty_vault_is_legal():
    vault = TicVault.provision([], PASSWORD, salt=SALT)
    assert vault.remaining() == 0
    loaded = TicVault.from_bytes(vault.to_bytes())
    loaded.unlock(PASSWORD)
    with pytest.raises(VaultEmpty):
        loaded.pick()


def test_provision_validates_inputs():
    with pytest.raises(ValueError):
        TicVault.provision(CODES, PASSWORD, salt=b"short")
    with pytest.raises(ValueError):
        TicVault.provision(["lowercase-code-x"], PASSWORD, salt=SALT)


def test_from_bytes_is_strict():
    data = fresh_vault().to_bytes()
    with pytest.raises(WireError, match="magic"):
        TicVault.from_bytes(b"XX" + data[2:])
    with pytest.raises(WireError, match="version"):
        TicVault.from_bytes(data[:2] + b"\x09" + data[3:])
    with pytest.raises(WireError):
        TicVault.from_bytes(data[:-1])
    with pytest.raises(WireError):
        TicVault.from_bytes(data + b"\x00")


def test_iterations_match_declared_work_factor():
    assert fresh_vault().iterations == KDF_ITERATIONS
