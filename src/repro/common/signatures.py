"""Schnorr signatures over secp256k1, implemented from scratch.

The paper's architecture needs ownership and authenticity (every transaction,
data-set registration, and access grant is signed).  We implement a compact
Schnorr scheme over the secp256k1 curve in pure Python: enough to make the
protocol structure real (keygen / sign / verify / address derivation) without
any external crypto dependency.  Nonces are derived deterministically from
the secret key and message (RFC-6979 style), so signing is reproducible.

This is a reproduction artifact, not audited cryptography.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.common.errors import CryptoError

# secp256k1 domain parameters.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

Point = Optional[Tuple[int, int]]  # None is the point at infinity.

# Scalar multiplication works in Jacobian coordinates (one modular inversion
# per result instead of one per addition) and adds only *affine* table
# entries to the running sum, which saves a third of the field
# multiplications of a general Jacobian addition.
_JPoint = Tuple[int, int, int]  # (X, Y, Z); Z == 0 is the point at infinity.
_INFINITY: _JPoint = (0, 1, 0)


def _jac_double(p: _JPoint) -> _JPoint:
    # secp256k1 has a == 0 and no point with y == 0, and Z == 0 stays 0.
    x, y, z = p
    ysq = y * y % _P
    s = 4 * x * ysq % _P
    m = 3 * x * x % _P
    nx = (m * m - 2 * s) % _P
    return (nx, (m * (s - nx) - 8 * ysq * ysq) % _P, 2 * y * z % _P)


def _jac_add_affine(p: _JPoint, x2: int, y2: int) -> _JPoint:
    """``p + (x2, y2)`` for an affine second operand (mixed addition)."""
    x1, y1, z1 = p
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % _P
    h = (x2 * z1sq - x1) % _P
    r = (y2 * z1sq * z1 - y1) % _P
    if h == 0:
        return _jac_double(p) if r == 0 else _INFINITY
    hsq = h * h % _P
    hcb = hsq * h % _P
    v = x1 * hsq % _P
    nx = (r * r - hcb - 2 * v) % _P
    return (nx, (r * (v - nx) - y1 * hcb) % _P, h * z1 % _P)


def _batch_to_affine(points: List[_JPoint]) -> List[Tuple[int, int]]:
    """Affine form of finite points with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for point in points:
        prefix.append(acc)
        acc = acc * point[2] % _P
    inv = pow(acc, -1, _P)
    out: List[Tuple[int, int]] = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        z_inv = inv * before % _P
        inv = inv * z % _P
        z_inv_sq = z_inv * z_inv % _P
        out.append((x * z_inv_sq % _P, y * z_inv_sq * z_inv % _P))
    out.reverse()
    return out


def _jac_to_affine(p: _JPoint) -> Point:
    return None if p[2] == 0 else _batch_to_affine([p])[0]


def _odd_multiples(point: Tuple[int, int], count: int) -> List[Tuple[int, int]]:
    """``[P, 3P, 5P, ...]``, ``count`` affine entries, one inversion.

    With ``2P == (dx, dy, dz)``, the map ``(x, y) -> (x * dz**2, y * dz**3)``
    carries the curve onto an isomorphic one where ``2P`` is the affine point
    ``(dx, dy)``, so the chain still runs on mixed additions (their formulas
    do not use the curve constant); a ``Z`` found there is ``Z * dz`` here.
    """
    x, y = point
    dx, dy, dz = _jac_double((x, y, 1))
    dzsq = dz * dz % _P
    chain: List[_JPoint] = [(x * dzsq % _P, y * dzsq * dz % _P, 1)]
    for _ in range(count - 1):
        chain.append(_jac_add_affine(chain[-1], dx, dy))
    return _batch_to_affine([(cx, cy, cz * dz % _P) for cx, cy, cz in chain])


def _wnaf(k: int, width: int) -> List[int]:
    """Width-``width`` non-adjacent form of ``k >= 0``, least significant first.

    Every non-zero digit is odd, below ``2**(width-1)`` in magnitude, and
    followed by at least ``width - 1`` zeros, so a 256-bit scalar costs about
    ``256 / (width + 1)`` additions from a table of ``2**(width-2)`` odd
    multiples.
    """
    full = 1 << width
    gap = [0] * (width - 1)
    digits: List[int] = []
    while k:
        if k & 1:
            digit = k & (full - 1)
            if digit >= full >> 1:
                digit -= full
            k = (k - digit) >> width
            digits.append(digit)
            digits += gap
        else:
            digits.append(0)
            k >>= 1
    return digits


# wNAF widths: 64 odd multiples of G are built once per process, 8 odd
# multiples of the other point once per multiplication.
_G_WIDTH = 8
_VAR_WIDTH = 5
_COMB_ROWS = 64  # 4-bit windows of a 256-bit scalar

# The curve's efficient endomorphism: for every point of the group,
# _LAMBDA * (x, y) == (_BETA * x, y), where _LAMBDA is a cube root of unity
# mod n and _BETA the matching one mod p (GLV; Guide to Elliptic Curve
# Cryptography, alg. 3.74).  (_A1, _B1) and (_A2, _B2) are a short basis of
# the lattice {(a, b) : a + b * _LAMBDA == 0 (mod n)}; both vectors are about
# sqrt(n) long, which is what lets _split halve a scalar.
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1 = _B2 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8


def _split(k: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k == k1 + k2 * _LAMBDA (mod n)``, both signed.

    Subtracts from ``(k, 0)`` the lattice vector nearest to it, so for
    ``0 <= k < n`` each half is below ``2**128`` in magnitude.
    """
    c1 = (_B2 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    return (k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2)


def _endo_table(table: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``_LAMBDA`` times every entry: one field multiplication each."""
    return [(x * _BETA % _P, y) for x, y in table]


# The G tables are built on first use (~20 ms, ~210 kB together): a process
# that only queries never pays for them.  A concurrent first use builds the
# same table twice and keeps one.
_g_odd: Optional[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = None
_g_comb: Optional[List[List[Tuple[int, int]]]] = None


def _g_odd_multiples() -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The odd multiples of ``G`` and the same multiples of ``_LAMBDA * G``."""
    global _g_odd
    if _g_odd is None:
        table = _odd_multiples((_GX, _GY), 1 << (_G_WIDTH - 2))
        _g_odd = (table, _endo_table(table))
    return _g_odd


def _g_comb_table() -> List[List[Tuple[int, int]]]:
    """``table[i][j - 1] == j * 16**i * G`` for ``j`` in 1..15."""
    global _g_comb
    if _g_comb is None:
        rows = []
        base = (_GX, _GY)
        for _ in range(_COMB_ROWS):
            chain: List[_JPoint] = [(base[0], base[1], 1)]
            for _ in range(15):
                chain.append(_jac_add_affine(chain[-1], base[0], base[1]))
            multiples = _batch_to_affine(chain)
            base = multiples.pop()  # 16 * base starts the next row
            rows.append(multiples)
        _g_comb = rows
    return _g_comb


def _base_mul(k: int) -> Point:
    """``k * G`` for ``0 <= k < 2**256``: one table addition per non-zero nibble."""
    acc = _INFINITY
    for row in _g_comb_table():
        nibble = k & 15
        if nibble:
            acc = _jac_add_affine(acc, *row[nibble - 1])
        k >>= 4
    return _jac_to_affine(acc)


def _double_mul(s: int, e: int, point: Tuple[int, int]) -> Point:
    """``s*G + e*point`` in one interleaved pass (Strauss-Shamir over wNAF).

    Each scalar is split into two signed halves, ``k == k1 + k2 * _LAMBDA``,
    and the ``k2`` half draws from the ``_LAMBDA`` image of the same table, so
    four half-length streams share about 128 doublings where the two full
    scalars would share 256; each stream contributes only its own table
    additions.  ``s`` and ``e`` must lie in ``[0, n)``.
    """
    g_table, g_endo = _g_odd_multiples()
    p_table = _odd_multiples(point, 1 << (_VAR_WIDTH - 2))
    s1, s2 = _split(s)
    e1, e2 = _split(e)
    # adds[i] holds the affine points due once the running sum stands at bit i.
    adds: List[List[Tuple[int, int]]] = []
    for half, width, table in (
        (s1, _G_WIDTH, g_table),
        (s2, _G_WIDTH, g_endo),
        (e1, _VAR_WIDTH, p_table),
        (e2, _VAR_WIDTH, _endo_table(p_table)),
    ):
        digits = _wnaf(abs(half), width)
        adds += [[] for _ in range(len(digits) - len(adds))]
        for i, digit in enumerate(digits):
            if digit:
                x2, y2 = table[abs(digit) >> 1]
                # A negative half negates each of its digits.
                adds[i].append((x2, y2 if (digit > 0) == (half > 0) else _P - y2))
    acc = _INFINITY
    for due in reversed(adds):
        if acc[2]:
            acc = _jac_double(acc)
        for x2, y2 in due:
            acc = _jac_add_affine(acc, x2, y2)
    return _jac_to_affine(acc)


def _point_mul(k: int, point: Tuple[int, int]) -> Point:
    """``k * point`` for an arbitrary curve point (ECDH)."""
    return _double_mul(0, k % _N, point)


def _encode_point(point: Point) -> bytes:
    if point is None:
        raise CryptoError("cannot encode the point at infinity")
    x, y = point
    return b"\x02" + x.to_bytes(32, "big") if y % 2 == 0 else b"\x03" + x.to_bytes(32, "big")


def _decode_x(data: bytes) -> int:
    """The x-coordinate of a compressed point whose encoding is well formed."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise CryptoError("invalid compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise CryptoError("point x out of range")
    return x


# A node sees few distinct keys (validators, active senders) and sees each of
# them on every transaction, so the square root is paid once per key; a
# rejected encoding raises and is not remembered.
@lru_cache(maxsize=256)
def _lift_x(data: bytes) -> Tuple[int, int]:
    x = _decode_x(data)
    y_sq = (pow(x, 3, _P) + 7) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise CryptoError("x is not on the curve")
    if (y % 2 == 0) != (data[0] == 2):
        y = _P - y
    return (x, y)


def _tagged_hash(tag: bytes, data: bytes) -> int:
    digest = hashlib.sha256(tag + data).digest()
    return int.from_bytes(digest, "big") % _N


@dataclass(frozen=True)
class PublicKey:
    """Compressed secp256k1 public key."""

    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise CryptoError("public key must be bytes")
        _lift_x(self.data)  # validate eagerly

    @property
    def point(self) -> Tuple[int, int]:
        return _lift_x(self.data)

    def address(self) -> str:
        """Short hex address derived from the key (ledger account id)."""
        return hashlib.sha256(self.data).hexdigest()[:40]

    def verify(self, message: bytes, signature: "Signature") -> bool:
        """Schnorr verification: R = s*G - e*P and e == H(R || P || m).

        ``R`` is not lifted to a point: the candidate is on the curve, so it
        equals the point ``signature.r`` encodes exactly when x-coordinate
        and y-parity match, and an ``r`` whose x is not on the curve matches
        no candidate.
        """
        if not 0 < signature.s < _N:
            return False
        try:
            r_x = _decode_x(signature.r)
        except CryptoError:
            return False
        e = _tagged_hash(b"medchain/schnorr", signature.r + self.data + message)
        candidate = _double_mul(signature.s, (_N - e) % _N, self.point)
        return (
            candidate is not None
            and candidate[0] == r_x
            and candidate[1] & 1 == signature.r[0] & 1
        )


@dataclass(frozen=True)
class Signature:
    """Schnorr signature: compressed nonce point ``r`` and scalar ``s``."""

    r: bytes
    s: int

    def to_bytes(self) -> bytes:
        return self.r + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 65:
            raise CryptoError("signature must be 65 bytes")
        return cls(r=data[:33], s=int.from_bytes(data[33:], "big"))


@dataclass(frozen=True)
class PrivateKey:
    """secp256k1 private scalar with deterministic Schnorr signing."""

    secret: int

    def __post_init__(self) -> None:
        if not 0 < self.secret < _N:
            raise CryptoError("private key out of range")

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a valid private key from arbitrary seed bytes."""
        counter = 0
        while True:
            digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            candidate = int.from_bytes(digest, "big")
            if 0 < candidate < _N:
                return cls(candidate)
            counter += 1

    def public_key(self) -> PublicKey:
        return PublicKey(_encode_point(_base_mul(self.secret)))

    def _nonce(self, message: bytes) -> int:
        """Deterministic nonce (RFC-6979 flavoured HMAC construction)."""
        key = self.secret.to_bytes(32, "big")
        counter = 0
        while True:
            mac = hmac.new(
                key, message + counter.to_bytes(4, "big"), hashlib.sha256
            ).digest()
            k = int.from_bytes(mac, "big") % _N
            if k != 0:
                return k
            counter += 1

    def sign(self, message: bytes, public: Optional[PublicKey] = None) -> Signature:
        """Produce a Schnorr signature over ``message``.

        ``public`` is this key's public key when the caller already holds it
        (:class:`KeyPair` does); without it the key is derived, which costs
        as much as the signature itself.
        """
        k = self._nonce(message)
        r_bytes = _encode_point(_base_mul(k))
        pub = public if public is not None else self.public_key()
        e = _tagged_hash(b"medchain/schnorr", r_bytes + pub.data + message)
        s = (k + e * self.secret) % _N
        return Signature(r=r_bytes, s=s)


def shared_secret(private: "PrivateKey", public: "PublicKey") -> bytes:
    """ECDH shared secret: hash of the x-coordinate of ``secret * P``.

    Both sides derive the same 32 bytes: ``shared_secret(a, B) ==
    shared_secret(b, A)``.  Used by the HIE layer's envelope encryption.
    """
    point = _point_mul(private.secret, public.point)
    if point is None:
        raise CryptoError("degenerate shared secret")
    return hashlib.sha256(b"medchain/ecdh" + point[0].to_bytes(32, "big")).digest()


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key, its public key, and address."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        private = PrivateKey.from_seed(seed)
        return cls(private=private, public=private.public_key())

    @classmethod
    def generate(cls, label: str) -> "KeyPair":
        """Deterministic keypair derived from a human-readable label."""
        return cls.from_seed(label.encode("utf-8"))

    @property
    def address(self) -> str:
        return self.public.address()

    def sign(self, message: bytes) -> Signature:
        return self.private.sign(message, self.public)
