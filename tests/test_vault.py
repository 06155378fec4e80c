"""Sealed TIC store: consume-once picks, fail-closed unlock, stable bytes,
and one PBKDF2 derivation per vault key in a world."""

from __future__ import annotations

import hashlib

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import example, given
from hypothesis import strategies as st

import ticpay.vault
from ticpay.auth_server import BankServer
from ticpay.errors import IntegrityFailure, VaultEmpty, VaultLocked, WireError
from ticpay.scenarios import find_bundled, list_bundled, load_spec, parse_spec, run_spec
from ticpay.tic_registry import TicRegistry
from ticpay.vault import KDF_ITERATIONS, SALT_LEN, TicVault, VaultKeys
from ticpay.wire import Reader

SALT = bytes(range(SALT_LEN))
CODES = ["AAAA0000BBBB1111", "CCCC2222DDDD3333", "EEEE4444FFFF5555"]
PASSWORD = "orchid-battery-9"


def fresh_vault(codes=None, password: str = PASSWORD) -> TicVault:
    return TicVault.provision(list(codes if codes is not None else CODES), password, salt=SALT)


def reference_key(password: str, salt: bytes) -> bytes:
    """The vault key from hashlib's PBKDF2, independent of the vault's KDF."""
    return hashlib.pbkdf2_hmac("sha256", password.encode(), salt, KDF_ITERATIONS, 32)


def open_sealed_blob(vault: TicVault, password: str) -> list:
    """Independent read of the sealed payload: PBKDF2 + raw AESGCM + layout."""
    key = reference_key(password, vault.salt)
    sealed = vault._sealed
    plain = AESGCM(key).decrypt(sealed.nonce, sealed.body + sealed.tag, b"blob|vault")
    reader = Reader(plain)
    values = [reader.str16() for _ in range(reader.u16())]
    reader.expect_end()
    return values


@given(st.text(), st.binary(min_size=SALT_LEN, max_size=SALT_LEN))
@example("", SALT)
@example("pässwörd-ключ-🔑", SALT)
def test_vault_key_matches_the_hashlib_reference(password, salt):
    keys = VaultKeys()
    assert keys.derive(password, salt) == reference_key(password, salt)
    assert keys.derive(password, salt) == reference_key(password, salt)  # from the memo


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
    assert vault.pick().value == CODES[0]
    assert vault.pick().value == CODES[1]
    assert vault.remaining() == 1
    # a reloaded copy must agree that the picked codes are gone
    reloaded = TicVault.from_bytes(vault.to_bytes())
    reloaded.unlock(PASSWORD)
    assert [c.value for c in reloaded.codes()] == [CODES[2]]
    assert reloaded.pick().value == CODES[2]
    with pytest.raises(VaultEmpty):
        reloaded.pick()


def test_reseal_nonces_never_repeat_across_reloads():
    # Every mutation reseals; the nonce counter must survive serialization
    # or a save/load cycle would reuse a (key, nonce) pair.
    vault = fresh_vault()
    nonces = {vault._sealed.nonce}
    vault.pick()
    nonces.add(vault._sealed.nonce)
    reloaded = TicVault.from_bytes(vault.to_bytes())
    reloaded.unlock(PASSWORD)
    reloaded.pick()
    nonces.add(reloaded._sealed.nonce)
    again = TicVault.from_bytes(reloaded.to_bytes())
    again.unlock(PASSWORD)
    again.pick()
    nonces.add(again._sealed.nonce)
    assert len(nonces) == 4


def test_provision_unlock_pick():
    batch = TicRegistry().generate_tics("ACC-1001", 3, seed=b"ops")
    vault = TicVault.provision(batch.codes, "first-pass", salt=SALT)
    code = vault.pick()
    assert code.value == batch.codes[0].value
    assert vault.remaining() == 2
    vault.lock()
    with pytest.raises(IntegrityFailure):
        vault.unlock("second-pass")
    vault.unlock("first-pass")
    assert vault.pick().value == batch.codes[1].value


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


def header_fields(data: bytes) -> tuple:
    """Independent read of the clear header: (iterations, alphabet, cipher) and
    the offset of each field."""
    reader = Reader(data)
    reader.take(2 + 1 + 8 + SALT_LEN)  # magic, version, seal count, salt
    at_iterations = reader.pos
    iterations = reader.u32()
    at_alphabet = reader.pos
    alphabet = reader.str16()
    at_cipher = reader.pos
    cipher = reader.str16()
    return (iterations, alphabet, cipher), (at_iterations, at_alphabet, at_cipher)


def test_iterations_match_declared_work_factor():
    fields, _ = header_fields(fresh_vault().to_bytes())
    assert fields == (KDF_ITERATIONS, "alphanumeric-upper", "aes-gcm")


def test_from_bytes_rejects_another_work_factor_alphabet_cipher_or_key_role():
    # The clear header is not authenticated: one flipped bit in any of these
    # fields must fail parsing, not reach PBKDF2 or the cipher table.
    data = fresh_vault().to_bytes()
    _, (at_iterations, at_alphabet, at_cipher) = header_fields(data)

    def flip(offset: int, mask: int) -> bytes:
        return data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1:]

    with pytest.raises(WireError, match="work factor"):
        TicVault.from_bytes(flip(at_iterations, 0x40))  # 2**30 + 2048 rounds
    with pytest.raises(WireError, match="alphabet"):
        TicVault.from_bytes(flip(at_alphabet + 2, 0x01))
    with pytest.raises(WireError, match="cipher"):
        TicVault.from_bytes(flip(at_cipher + 2, 0x01))
    # the sealed blob's key-role byte follows the cipher name and a length
    at_role = at_cipher + 2 + len("aes-gcm") + 4
    with pytest.raises(WireError, match="vault-keyed"):
        TicVault.from_bytes(flip(at_role, 0x01))


# -- one derivation per vault key in a world ---------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    """Counts PBKDF2 derivations: one element per `derive` on a PBKDF2HMAC."""
    real = ticpay.vault.PBKDF2HMAC
    done = []

    class Counting:
        def __init__(self, *args, **kwargs):
            self._kdf = real(*args, **kwargs)

        def derive(self, material):
            done.append(material)
            return self._kdf.derive(material)

    monkeypatch.setattr(ticpay.vault, "PBKDF2HMAC", Counting)
    return done


def three_client_spec():
    # carol gets no codes, so the bank provisions two of the three devices.
    return parse_spec({
        "schema": 1,
        "name": "three",
        "flow": "one-way",
        "seed": 5,
        "clients": [{
            "username": name,
            "password": f"{name}-pw",
            "pin": f"{0x00112233445566aa + i:016x}",
            "cell": f"+1555000{i:04d}",
            "account_id": f"ACC-{1001 + i}",
            "balance": 10_000,
            "vault_password": f"{name}-vault",
            "tic_batch": 2 - i if i < 2 else 0,
            "reply": "yes",
            "payments": [{"amount": 10 + i, "payee": "ACC-9914"}],
        } for i, name in enumerate(("alice", "bob", "carol"))],
    })


def provisioned(report) -> int:
    return sum(1 for e in report.world.sim.trace.events
               if e.kind == "note" and e.note.startswith("provisioned user="))


@pytest.mark.parametrize("name", [entry["name"] for entry in list_bundled()] + ["three"])
def test_a_world_derives_one_key_per_provisioned_client(name, derivations):
    spec = three_client_spec() if name == "three" else load_spec(find_bundled(name))
    report = run_spec(spec)
    assert provisioned(report) >= 1
    assert len(derivations) == provisioned(report)
    if name == "three":
        assert provisioned(report) == 2
        assert report.world.clients[0].outcomes == ["committed"]


def test_worlds_built_from_one_spec_share_no_keys(derivations):
    spec = three_client_spec()
    first = run_spec(spec)
    once = len(derivations)
    second = run_spec(spec)
    assert once == provisioned(first) and len(derivations) == 2 * once
    assert first.world.server.vault_keys is not second.world.server.vault_keys
    assert BankServer().vault_keys is not BankServer().vault_keys


def test_a_warm_memo_still_fails_closed_on_a_wrong_password(derivations):
    keys = VaultKeys()
    data = TicVault.provision(CODES, PASSWORD, salt=SALT, keys=keys).to_bytes()
    vault = TicVault.from_bytes(data, keys=keys)
    with pytest.raises(IntegrityFailure, match="password"):
        vault.unlock("orchid-battery-8")
    assert vault.locked
    with pytest.raises(VaultLocked):
        vault.codes()
    assert len(derivations) == 2  # the seal, then the wrong password's own key
    vault.unlock(PASSWORD)
    assert len(derivations) == 2  # the seal's key, read from the memo
    assert [c.value for c in vault.codes()] == CODES
