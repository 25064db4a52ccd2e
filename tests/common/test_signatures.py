"""Schnorr signature and ECDH tests.

The second half keeps the affine/Jacobian double-and-add arithmetic the
package shipped before its windowed rewrite as an *oracle*: every public
operation of ``repro.common.signatures`` must agree with it, bit for bit, on
valid input and on a corpus of forgeries.
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import signatures as sigs
from repro.common.errors import CryptoError
from repro.common.signatures import (
    KeyPair,
    PrivateKey,
    PublicKey,
    Signature,
    shared_secret,
)


def test_sign_verify_round_trip(alice):
    signature = alice.sign(b"message")
    assert alice.public.verify(b"message", signature)


def test_verify_rejects_different_message(alice):
    signature = alice.sign(b"message")
    assert not alice.public.verify(b"other", signature)


def test_verify_rejects_wrong_key(alice, bob):
    signature = alice.sign(b"message")
    assert not bob.public.verify(b"message", signature)


def test_signing_is_deterministic(alice):
    assert alice.sign(b"m") == alice.sign(b"m")


def test_different_messages_different_signatures(alice):
    assert alice.sign(b"m1") != alice.sign(b"m2")


def test_keypair_from_label_is_deterministic():
    assert KeyPair.generate("label").address == KeyPair.generate("label").address


def test_different_labels_different_addresses():
    assert KeyPair.generate("a").address != KeyPair.generate("b").address


def test_address_is_40_hex_chars(alice):
    address = alice.address
    assert len(address) == 40
    int(address, 16)  # parses as hex


def test_signature_bytes_round_trip(alice):
    signature = alice.sign(b"x")
    assert Signature.from_bytes(signature.to_bytes()) == signature


def test_signature_from_bad_length_rejected():
    with pytest.raises(CryptoError):
        Signature.from_bytes(b"\x00" * 10)


def test_tampered_signature_fails(alice):
    signature = alice.sign(b"msg")
    tampered = Signature(r=signature.r, s=(signature.s + 1))
    assert not alice.public.verify(b"msg", tampered)


def test_public_key_rejects_invalid_encoding():
    with pytest.raises(CryptoError):
        PublicKey(b"\x05" + b"\x00" * 32)


def test_private_key_range_enforced():
    with pytest.raises(CryptoError):
        PrivateKey(0)


def test_ecdh_is_symmetric(alice, bob):
    assert shared_secret(alice.private, bob.public) == shared_secret(
        bob.private, alice.public
    )


def test_ecdh_differs_per_pair(alice, bob):
    carol = KeyPair.generate("carol")
    assert shared_secret(alice.private, bob.public) != shared_secret(
        alice.private, carol.public
    )


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.text(min_size=1, max_size=10))
def test_property_sign_verify(message, label):
    keypair = KeyPair.generate(label)
    assert keypair.public.verify(message, keypair.sign(message))


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_property_bitflip_breaks_verification(message):
    keypair = KeyPair.generate("flipper")
    signature = keypair.sign(message)
    flipped = bytes([message[0] ^ 0x01]) + message[1:]
    assert not keypair.public.verify(flipped, signature)


# -- the oracle: plain double-and-add, as shipped before the rewrite ----------

_P, _N = sigs._P, sigs._N
_G = (sigs._GX, sigs._GY)
_NEG_G = (sigs._GX, _P - sigs._GY)


def _oracle_point_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    ax, ay = a
    bx, by = b
    if ax == bx and (ay + by) % _P == 0:
        return None
    if a == b:
        lam = (3 * ax * ax) * pow(2 * ay, _P - 2, _P) % _P
    else:
        lam = (by - ay) * pow(bx - ax, _P - 2, _P) % _P
    x = (lam * lam - ax - bx) % _P
    y = (lam * (ax - x) - ay) % _P
    return (x, y)


def _oracle_jac_double(p):
    x, y, z = p
    if z == 0 or y == 0:
        return (0, 1, 0)
    ysq = y * y % _P
    s = 4 * x * ysq % _P
    m = 3 * x * x % _P
    nx = (m * m - 2 * s) % _P
    ny = (m * (s - nx) - 8 * ysq * ysq) % _P
    nz = 2 * y * z % _P
    return (nx, ny, nz)


def _oracle_jac_add(p, q):
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1sq = z1 * z1 % _P
    z2sq = z2 * z2 % _P
    u1 = x1 * z2sq % _P
    u2 = x2 * z1sq % _P
    s1 = y1 * z2sq * z2 % _P
    s2 = y2 * z1sq * z1 % _P
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _oracle_jac_double(p)
    h = (u2 - u1) % _P
    r = (s2 - s1) % _P
    hsq = h * h % _P
    hcb = hsq * h % _P
    u1hsq = u1 * hsq % _P
    nx = (r * r - hcb - 2 * u1hsq) % _P
    ny = (r * (u1hsq - nx) - s1 * hcb) % _P
    nz = h * z1 * z2 % _P
    return (nx, ny, nz)


def _oracle_point_mul(k, point):
    if point is None or k % _N == 0:
        return None
    result = (0, 1, 0)
    addend = (point[0], point[1], 1)
    while k:
        if k & 1:
            result = _oracle_jac_add(result, addend)
        addend = _oracle_jac_double(addend)
        k >>= 1
    if result[2] == 0:
        return None
    z_inv = pow(result[2], _P - 2, _P)
    z_inv_sq = z_inv * z_inv % _P
    return (result[0] * z_inv_sq % _P, result[1] * z_inv_sq * z_inv % _P)


def _oracle_lift_x(data):
    if len(data) != 33 or data[0] not in (2, 3):
        raise CryptoError("invalid compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise CryptoError("point x out of range")
    y_sq = (pow(x, 3, _P) + 7) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise CryptoError("x is not on the curve")
    if (y % 2 == 0) != (data[0] == 2):
        y = _P - y
    return (x, y)


def _oracle_public_key(secret):
    return sigs._encode_point(_oracle_point_mul(secret, _G))


def _oracle_sign(private, message):
    k = private._nonce(message)
    r_bytes = sigs._encode_point(_oracle_point_mul(k, _G))
    e = sigs._tagged_hash(
        b"medchain/schnorr", r_bytes + _oracle_public_key(private.secret) + message
    )
    return Signature(r=r_bytes, s=(k + e * private.secret) % _N)


def _oracle_verify(public_data, message, signature):
    if not 0 < signature.s < _N:
        return False
    try:
        r_point = _oracle_lift_x(signature.r)
    except CryptoError:
        return False
    e = sigs._tagged_hash(b"medchain/schnorr", signature.r + public_data + message)
    s_g = _oracle_point_mul(signature.s, _G)
    neg_e_p = _oracle_point_mul(_N - e, _oracle_lift_x(public_data))
    return _oracle_point_add(s_g, neg_e_p) == r_point


def _oracle_shared_secret(private, public):
    point = _oracle_point_mul(private.secret, _oracle_lift_x(public.data))
    return hashlib.sha256(b"medchain/ecdh" + point[0].to_bytes(32, "big")).digest()


def _oracle_double_mul(s, e, point):
    return _oracle_point_add(_oracle_point_mul(s, _G), _oracle_point_mul(e, point))


def _neg(point):
    return (point[0], _P - point[1])


def _from_halves(k1, k2):
    """The scalar that splits into ``(k1, k2)``, when both are short enough."""
    return (k1 + k2 * sigs._LAMBDA) % _N


# The images of G under the endomorphism and its square: with one of these as
# the public point, two of the four streams draw from coincident tables.
_LAM_G = _oracle_point_mul(sigs._LAMBDA, _G)
_LAM2_G = _oracle_point_mul(sigs._LAMBDA**2 % _N, _G)


# -- corpus -------------------------------------------------------------------

# Long zero runs, all-ones, the group-order neighbourhood, and the keys whose
# public point is G or -G (on those the interleaved pass adds a table entry
# equal or opposite to its running sum).
EDGE_SCALARS = [
    1, 2, 3, 15, 16, 17, 255, 256, 1 << 128, 1 << 255, (1 << 255) + 1,
    (1 << 252) - 1, (1 << 200) | 1, int("f0" * 32, 16), int("0f" * 32, 16),
    _N - 1, _N - 2, _N // 2, _N // 2 + 1,
]


def _x_off_curve():
    x = 5
    while True:
        y_sq = (pow(x, 3, _P) + 7) % _P
        if pow(y_sq, (_P - 1) // 2, _P) != 1:
            return x
        x += 1


def _forgeries(signature, message, other_public):
    """(label, public-or-None, message, signature) variations of a valid signature."""
    r, s = signature.r, signature.s
    flip = bytes([r[0] ^ 1]) + r[1:]
    return [
        ("valid", None, message, signature),
        ("s+1", None, message, Signature(r, s + 1)),
        ("s-1", None, message, Signature(r, s - 1)),
        ("s=0", None, message, Signature(r, 0)),
        ("s=n", None, message, Signature(r, _N)),
        ("s+n", None, message, Signature(r, s + _N)),
        ("n-s", None, message, Signature(r, _N - s)),
        ("flipped R prefix", None, message, Signature(flip, s)),
        ("flipped R prefix, n-s", None, message, Signature(flip, _N - s)),
        ("R prefix 0", None, message, Signature(b"\x00" + r[1:], s)),
        ("R prefix 4", None, message, Signature(b"\x04" + r[1:], s)),
        ("R too short", None, message, Signature(r[:32], s)),
        ("R too long", None, message, Signature(r + b"\x00", s)),
        ("R empty", None, message, Signature(b"", s)),
        ("R.x = p", None, message, Signature(b"\x02" + _P.to_bytes(32, "big"), s)),
        ("R.x = 2^256-1", None, message, Signature(b"\x03" + b"\xff" * 32, s)),
        ("R.x off curve", None, message,
         Signature(b"\x02" + _x_off_curve().to_bytes(32, "big"), s)),
        ("wrong key", other_public, message, signature),
        ("mutated message", None, message + b"!", signature),
        ("truncated message", None, message[:-1], signature),
    ]


def _seeded_keys(count, seed):
    rng = random.Random(seed)
    return [PrivateKey(rng.randrange(1, _N)) for _ in range(count)]


def test_verify_agrees_with_oracle_on_forged_corpus():
    rng = random.Random(2018)
    keys = _seeded_keys(4, seed=7) + [PrivateKey(1), PrivateKey(_N - 1)]
    other = PrivateKey(0xC0FFEE).public_key()
    accepted = 0
    for private in keys:
        public = private.public_key()
        message = rng.randbytes(rng.randrange(1, 48))
        signature = private.sign(message)
        for label, wrong_public, msg, forged in _forgeries(signature, message, other):
            key = wrong_public or public
            expected = _oracle_verify(key.data, msg, forged)
            assert key.verify(msg, forged) is expected, label
            assert expected is (label == "valid"), label
            accepted += expected
    assert accepted == len(keys)


def test_sign_public_key_and_ecdh_agree_with_oracle_on_edge_scalars():
    peer = PrivateKey(0xC0FFEE).public_key()
    for secret in EDGE_SCALARS:
        private = PrivateKey(secret)
        public = private.public_key()
        assert public.data == _oracle_public_key(secret)
        assert private.sign(b"edge") == _oracle_sign(private, b"edge")
        assert KeyPair(private, public).sign(b"edge") == private.sign(b"edge")
        assert shared_secret(private, peer) == _oracle_shared_secret(private, peer)


def test_base_mul_agrees_with_oracle_beyond_the_group_order():
    assert sigs._base_mul(0) is None
    for k in EDGE_SCALARS + [_N + 1, (1 << 256) - 1, (1 << 256) - (1 << 128)]:
        assert sigs._base_mul(k) == _oracle_point_mul(k, _G)


def test_public_keys_g_and_minus_g():
    assert PrivateKey(1).public_key().point == _G
    assert PrivateKey(_N - 1).public_key().point == _NEG_G


_DOUBLE_MUL_POINTS = {
    "G": _G,
    "minus-G": _NEG_G,
    "random": _oracle_point_mul(0xDEADBEEF, _G),
    "lambda-G": _LAM_G,
    "minus-lambda-G": _neg(_LAM_G),
    "lambda2-G": _LAM2_G,
    "minus-lambda2-G": _neg(_LAM2_G),
}

# Scalars picked by their halves: a zero first half, a zero second half (any
# short scalar), both negative, mixed signs, and halves of full length.
_HALVES = [(0, 1), (0, 5), (1, 0), (-3, -5), (3, -5), (-3, 5), (-1, -1),
           (-(1 << 127) + 1, -(1 << 126) - 3), (-(1 << 126), (1 << 126) + 7)]


@pytest.mark.parametrize("name", list(_DOUBLE_MUL_POINTS))
def test_double_mul_agrees_with_oracle(name):
    point = _DOUBLE_MUL_POINTS[name]
    scalars = [0, 1, 2, 3, 127, 128, 129, 1 << 255, _N - 1, _N - 2, (1 << 252) - 1]
    rng = random.Random(13)
    pairs = [(s, e) for s in scalars[:6] for e in scalars[:6]]
    pairs += [(rng.choice(scalars), rng.randrange(_N)) for _ in range(6)]
    pairs += [(rng.randrange(_N), rng.choice(scalars)) for _ in range(6)]
    pairs += [(_N - 1, 1), (1, _N - 1), (_N - 2, 2), (1 << 255, 1 << 255)]
    split = [_from_halves(k1, k2) for k1, k2 in _HALVES]
    pairs += list(zip(split, split)) + list(zip(split, reversed(split)))
    for s, e in pairs:
        assert sigs._double_mul(s, e, point) == _oracle_double_mul(s, e, point), (s, e)


def test_double_mul_degenerate_scalars():
    point = _oracle_point_mul(0xDEADBEEF, _G)
    assert sigs._double_mul(0, 0, point) is None
    assert sigs._double_mul(0, 5, point) == _oracle_point_mul(5, point)
    assert sigs._double_mul(5, 0, point) == _oracle_point_mul(5, _G)
    assert sigs._double_mul(1, 1, _G) == _oracle_point_mul(2, _G)  # doubling branch
    assert sigs._double_mul(1, 1, _NEG_G) is None  # cancels to infinity
    assert sigs._double_mul(7, 7, _NEG_G) is None
    assert sigs._point_mul(_N, point) is None
    # s == lambda splits to (0, 1): its one digit draws lambda*G from the
    # endomorphism's G table and meets the same point from the P table.
    lam = sigs._LAMBDA
    assert sigs._double_mul(lam, 1, _LAM_G) == _oracle_point_mul(2, _LAM_G)
    assert sigs._double_mul(lam, 1, _neg(_LAM_G)) is None
    assert sigs._double_mul(1, lam, _LAM2_G) == _oracle_point_mul(2, _G)  # lambda**3 == 1
    assert sigs._double_mul(1, lam, _neg(_LAM2_G)) is None
    assert sigs._double_mul(0, lam, point) == _oracle_point_mul(lam, point)  # zero first half
    assert sigs._double_mul(lam, 0, point) == _LAM_G
    both_negative = _from_halves(-3, -5)
    assert sigs._double_mul(both_negative, both_negative, point) == _oracle_double_mul(
        both_negative, both_negative, point
    )


def test_endomorphism_constants_check_themselves():
    lam, beta = sigs._LAMBDA, sigs._BETA
    assert lam != 1 and (lam * lam + lam + 1) % _N == 0  # a primitive cube root of 1 mod n
    assert beta != 1 and pow(beta, 3, _P) == 1  # and one mod p
    for a, b in ((sigs._A1, sigs._B1), (sigs._A2, sigs._B2)):
        assert (a + b * lam) % _N == 0  # a lattice vector
        assert max(abs(a), abs(b)) < 1 << 129  # and a short one
    assert sigs._A1 * sigs._B2 - sigs._A2 * sigs._B1 == _N  # the two span the whole lattice


def _assert_splits_into_short_halves(k):
    k1, k2 = sigs._split(k)
    assert (k1 + k2 * sigs._LAMBDA) % _N == k % _N
    assert abs(k1) < 1 << 128 and abs(k2) < 1 << 128, (k, k1, k2)


def test_split_reconstructs_the_scalar_from_short_halves():
    lam = sigs._LAMBDA
    for k in [0, _N - 1, lam, _N - lam, lam - 1, lam + 1] + EDGE_SCALARS:
        _assert_splits_into_short_halves(k)
    for halves in _HALVES:
        assert sigs._split(_from_halves(*halves)) == halves


# Bare @given: integers are cheap, so the ci-stress profile decides the depth.
@given(st.integers(min_value=0, max_value=_N - 1))
def test_property_split_reconstructs_the_scalar_from_short_halves(k):
    _assert_splits_into_short_halves(k)


@pytest.mark.parametrize("name", ["G", "minus-G", "random"])
def test_endomorphism_table_is_lambda_times_each_entry(name):
    point = _DOUBLE_MUL_POINTS[name]
    assert sigs._endo_table([point]) == [_oracle_point_mul(sigs._LAMBDA, point)]


def test_odd_multiples_agree_with_oracle():
    for point in (_G, _DOUBLE_MUL_POINTS["random"], _LAM_G):
        expected = [_oracle_point_mul(2 * i + 1, point) for i in range(8)]
        assert sigs._odd_multiples(point, 8) == expected
    assert sigs._odd_multiples(_G, 1) == [_G]


@pytest.mark.parametrize("width", [2, 5, 8])
def test_wnaf_digits_reconstruct_the_scalar(width):
    for k in [0] + EDGE_SCALARS:
        digits = sigs._wnaf(k, width)
        assert sum(d << i for i, d in enumerate(digits)) == k
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(d % 2 and abs(d) < 1 << (width - 1) for d in digits if d)
        assert all(b - a >= width for a, b in zip(nonzero, nonzero[1:]))


_MUTATIONS = st.sampled_from(
    ["none", "s+1", "s-1", "s=0", "s=n", "flip", "prefix", "short", "key", "message"]
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=_N - 1),
    st.binary(min_size=1, max_size=64),
    _MUTATIONS,
)
def test_property_new_arithmetic_agrees_with_oracle(secret, message, mutation):
    private = PrivateKey(secret)
    public = private.public_key()
    assert public.data == _oracle_public_key(secret)
    signature = private.sign(message)
    assert signature == _oracle_sign(private, message)
    r, s = signature.r, signature.s
    if mutation == "key":
        public = PrivateKey(secret % (_N - 1) + 1).public_key()
    elif mutation == "message":
        message = message + b"\x00"
    else:
        signature = {
            "none": signature,
            "s+1": Signature(r, s + 1),
            "s-1": Signature(r, s - 1),
            "s=0": Signature(r, 0),
            "s=n": Signature(r, _N),
            "flip": Signature(bytes([r[0] ^ 1]) + r[1:], s),
            "prefix": Signature(b"\x07" + r[1:], s),
            "short": Signature(r[1:], s),
        }[mutation]
    expected = _oracle_verify(public.data, message, signature)
    assert public.verify(message, signature) is expected
    assert expected is (mutation == "none")


def test_golden_signature_bytes():
    """Block ids, receipts hashes and every golden pin hang off these bytes."""
    assert KeyPair.generate("alice").sign(b"message").to_bytes().hex() == (
        "0313aaad01ba6cda1f692b4d2eae26a8ec5bb3cfe545c5102639c9ca608d9f5c44"
        "b93cd0e8f4cfdc78c636486f216a3eee2d9069252117787b49855b0cb672735c"
    )
    assert KeyPair.generate("bob").sign(b"").to_bytes().hex() == (
        "03a708051c01a95804d5225ad6729c1a446c57f78288888ce4575b7425014ae6a8"
        "32c45fd933a09a3a141e16e014a0c4961c422f4c14610c5f97caf75e2a6cdec5"
    )
    assert PrivateKey(_N - 1).sign(b"medchain").to_bytes().hex() == (
        "03b00706942b925449075dd387745bfbe1a483357ae612cbf6306071318059d557"
        "c17554ccda6cf6cf8ee223613f6165398b516a0532a1bbaca4301c925f36355c"
    )


def test_public_key_rejects_non_bytes():
    with pytest.raises(CryptoError):
        PublicKey(bytearray(KeyPair.generate("alice").public.data))


def test_sign_without_public_key_still_derives_it(alice):
    assert alice.private.sign(b"m") == alice.sign(b"m")
    assert alice.private.sign(b"m", alice.public) == alice.sign(b"m")


# -- speed, as a ratio to the oracle in the same process -----------------------


def _best_ratio(slow, fast, trials=5):
    """best(slow) / best(fast), the two timed alternately so a noisy stretch hits both."""
    best_slow = best_fast = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        slow()
        middle = time.perf_counter()
        fast()
        best_slow = min(best_slow, middle - start)
        best_fast = min(best_fast, time.perf_counter() - middle)
    return best_slow / best_fast


def test_verify_and_sign_stay_well_ahead_of_double_and_add(alice):
    """Measured 4.6x (verify) and 11x (sign); a ratio does not care how fast the host is.

    Each floor sits about 40 % under its measurement.
    """
    message = b"ratio gate"
    signature = alice.sign(message)
    assert alice.public.verify(message, signature)  # tables built before timing

    verify_ratio = _best_ratio(
        lambda: _oracle_verify(alice.public.data, message, signature),
        lambda: alice.public.verify(message, signature),
    )
    sign_ratio = _best_ratio(
        lambda: _oracle_sign(alice.private, message),
        lambda: alice.sign(message),
    )
    assert verify_ratio >= 2.6, f"verify only {verify_ratio:.2f}x the oracle"
    assert sign_ratio >= 5.0, f"sign only {sign_ratio:.2f}x the oracle"
