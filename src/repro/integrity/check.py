"""Per-request integrity verdicts: the policy ladder, digests and coverage.

The serving stack supports four integrity policies, in increasing cost:

* ``off``    — no checking; the pre-existing behaviour, bit for bit.
* ``digest`` — blake2b output digests remembered per request payload in
  a bounded :class:`DigestLedger`; a repeated request whose digest
  diverges from the remembered one flags silent corruption.  Catches
  only repeats, but costs one hash.
* ``abft``   — checksum-residue verification for the gemm family
  (:mod:`repro.integrity.abft`): detection without a golden model and
  single-element correction.  Kernels outside the gemm family fall back
  to the digest ledger.
* ``dmr``    — dual modular redundancy: the worker executes the request
  twice (second run with the replay fast path suspended) and compares
  outputs byte for byte.  Implemented in the worker; this module only
  names the policy.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.compiler import FUNC5_CGEMM, FUNC5_FC
from repro.integrity.abft import verify_gemm

if TYPE_CHECKING:  # structural only: anything with a graph .payload works
    from repro.serve.request import InferenceRequest

#: the IntegrityPolicy ladder, cheapest first
INTEGRITY_POLICIES = ("off", "digest", "abft", "dmr")

#: func5 values whose outputs the gemm ABFT covers (gemm, cgemm, fc)
ABFT_FUNC5 = (0, FUNC5_CGEMM, FUNC5_FC)


def coerce_policy(value) -> str:
    """Normalise a user-supplied policy value; None means ``off``."""
    if value is None:
        return "off"
    policy = str(value).lower()
    if policy not in INTEGRITY_POLICIES:
        raise ValueError(
            f"unknown integrity policy {value!r}; expected one of {INTEGRITY_POLICIES}"
        )
    return policy


def abft_operands(request: InferenceRequest) -> Optional[tuple]:
    """``(a, b, c, alpha, beta)`` when the request is a single gemm-family
    or ``fc`` node, whose output the ABFT residues can verify, else None.

    Multi-node graphs are never covered — their final output is a
    composite of several kernels — and neither are convolutions; those
    fall back to digest/DMR checking.
    """
    payload = request.payload
    if len(payload["nodes"]) != 1:
        return None
    (node,) = payload["nodes"]
    inputs = [payload["inputs"][name] for name in node.inputs]
    if node.func5 in (0, FUNC5_CGEMM):
        a, b, c = inputs
        alpha = node.params[0] if len(node.params) > 0 else 1
        beta = node.params[1] if len(node.params) > 1 else 0
        return a, b, c, alpha, beta
    if node.func5 == FUNC5_FC:
        x, w, bias = inputs
        return x, w, bias, 1, 1
    return None


def covered(request: InferenceRequest) -> bool:
    """True when ABFT can verify this request without a golden model."""
    return abft_operands(request) is not None


def _update_array(h: "hashlib._Hash", array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    h.update(str(arr.shape).encode())
    h.update(arr.dtype.str.encode())
    h.update(arr.tobytes())


def request_digest(request: InferenceRequest) -> bytes:
    """A stable content digest of everything that determines the output.

    Hashes the request's graph, not its ``kind`` label or tensor names:
    each node's slot, params, output shape and dtype with its operands
    as positions in first-use order, every input array at its first
    use, and the output's position.  So a gemm built by
    :func:`~repro.serve.request.gemm_request`, by ``kernel_request`` on
    slot 0 or as a one-node graph digests the same.
    """
    h = hashlib.blake2b(digest_size=16)
    payload = request.payload
    position: Dict[str, int] = {}

    def ref(name: str) -> int:
        if name not in position:
            position[name] = len(position)
            if name in payload["inputs"]:
                _update_array(h, payload["inputs"][name])
        return position[name]

    for node in payload["nodes"]:
        operands = tuple(ref(name) for name in node.inputs)
        dtype = None if node.dtype is None else np.dtype(node.dtype).str
        h.update(repr((
            node.func5, tuple(int(p) for p in node.params), node.out_shape,
            dtype, operands, ref(node.name),
        )).encode())
    h.update(repr(ref(payload["output"])).encode())
    return h.digest()


def output_digest(output: np.ndarray) -> bytes:
    """Byte-exact digest of a result array."""
    h = hashlib.blake2b(digest_size=16)
    _update_array(h, output)
    return h.digest()


class DigestLedger:
    """Bounded memory of ``request digest -> output digest`` pairs.

    Serving workers reset to a cold heap between requests, so a repeated
    request payload must produce a byte-identical output; a divergence
    on a repeat is silent corruption in one of the two runs.  On a
    mismatch the entry is evicted — the ledger cannot tell which run was
    the corrupt one, so it forgets both and relearns from the retry.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("ledger capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.stats = {"recorded": 0, "confirmed": 0, "mismatched": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, key: bytes, digest: bytes) -> bool:
        """Record or compare one output digest; True means *mismatch*."""
        seen = self._entries.get(key)
        if seen is None:
            self._entries[key] = digest
            self.stats["recorded"] += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return False
        self._entries.move_to_end(key)
        if seen != digest:
            del self._entries[key]
            self.stats["mismatched"] += 1
            return True
        self.stats["confirmed"] += 1
        return False


@dataclass(frozen=True)
class IntegrityVerdict:
    """Outcome of checking one output: ``clean``, ``corrected`` (ABFT
    repaired a single element; ``output`` holds the fixed array) or
    ``corrupt`` (unrepairable; the worker raises and recovery begins)."""

    status: str
    output: Optional[np.ndarray]
    detail: Optional[str] = None
    method: Optional[str] = None


def check_output(
    request: InferenceRequest,
    output: np.ndarray,
    policy: str,
    ledger: Optional[DigestLedger] = None,
    digest: Optional[bytes] = None,
) -> IntegrityVerdict:
    """Apply the per-request portion of an integrity policy.

    ``dmr``'s shadow execution happens in the worker (it needs the
    machine); here ``dmr`` gets the same ABFT/digest screening as
    ``abft`` so cheap detection still runs first.  ``digest`` is
    ``request_digest(request)`` when the caller already has it; the
    ledger fallback hashes the request only when it is None.
    """
    if policy == "off":
        return IntegrityVerdict("clean", output)
    if policy in ("abft", "dmr"):
        operands = abft_operands(request)
        if operands is not None:
            status, checked = verify_gemm(*operands, output)
            if status == "corrupt":
                return IntegrityVerdict(
                    "corrupt", None, "ABFT checksum residue nonzero", "abft"
                )
            return IntegrityVerdict(status, checked, method="abft")
    if ledger is not None:
        if digest is None:
            digest = request_digest(request)
        if ledger.observe(digest, output_digest(output)):
            return IntegrityVerdict(
                "corrupt", None, "output digest diverged from prior run", "digest"
            )
    return IntegrityVerdict("clean", output)
