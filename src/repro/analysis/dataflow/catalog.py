"""Source / sink / sanitizer catalog for the PHI escape analysis.

The site-boundary contract of the paper: raw patient data stays inside each
hospital site; only decomposed queries, aggregates, digests, and
commitments cross the chain / RPC / gossip boundary.  This module is the
single place that says what counts as each side of that contract:

- **sources** produce raw PHI: record accessors on the hospital stores
  (``get_records`` / ``get_raw``), synthetic cohort generation, record-level
  legacy parsing, and decoded DA blob payloads (``retrieve_blob`` — the
  erasure-coded *shares* are custody objects and are served by design; the
  reassembled plaintext is the PHI-bearing value);
- **sinks** cross the site boundary: chain state writes (``set_slot``,
  contract-call construction — which covers ``BlobRegistry.register``
  arguments, since those ride a contract call), p2p gossip announcements,
  obs trace attributes and JSON-lines exporters, and — at the contract
  level — ``storage_set`` / ``emit`` / ``require`` messages / method
  returns (receipts are replicated chain data);
- **sanitizers** reduce PHI to boundary-safe values: digests and Merkle
  anchors (``repro.common.hashing``, ``DatasetAnchor.build``), masked
  federated aggregation (``learning.aggregation``), query composition
  aggregates, counting builtins, and envelope encryption for consented
  exchange.

Matching is name-based with two precision tiers: a dotted-path match via
the module's import map when the call target resolves, and an exact
attribute / bare-name match otherwise.  The names below are chosen so the
current tree dogfoods to **zero findings** (pinned by test); anything
generic enough to collide (``.set(``, ``.append(`` on non-aliased
receivers, ``Transport.request``) is deliberately excluded and documented
in DESIGN.md §14 as a soundness caveat.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

#: Calls (by attribute or bare name) whose result is raw patient data.
SOURCE_CALL_NAMES: FrozenSet[str] = frozenset(
    {
        "get_records",  # HospitalDataStore record access
        "get_raw",  # legacy-format rows, same payload
        "generate_patient",  # CohortGenerator synthetic records
        "generate_cohort",
        "generate_multi_site",
        "shared_patients",  # cross-site linked patient groups
        "parse_record",  # legacy row -> canonical patient record
        "retrieve_blob",  # decoded (plaintext) DA payload
    }
)

#: Human description per source call, used in trace steps.
SOURCE_DESCRIPTIONS: Dict[str, str] = {
    "get_records": "patient records from a site data store",
    "get_raw": "raw legacy patient rows from a site data store",
    "generate_patient": "synthetic patient record (cohort generator)",
    "generate_cohort": "synthetic patient cohort (cohort generator)",
    "generate_multi_site": "multi-site patient cohorts (cohort generator)",
    "shared_patients": "cross-site linked patient records",
    "parse_record": "canonical patient record parsed from a legacy row",
    "retrieve_blob": "decoded off-chain blob payload (DA layer)",
}

#: Contract / site-boundary sink calls: name -> boundary kind.
SINK_CALL_KINDS: Dict[str, str] = {
    # chain state (replicated to every node)
    "set_slot": "chain state",
    "submit_signed_call": "chain contract-call payload",
    "submit_as": "chain contract-call payload",
    "make_call": "chain contract-call payload",
    "make_deploy": "chain deploy payload",
    "make_transfer": "chain transfer payload",
    # p2p gossip
    "announce": "p2p gossip payload",
    # observability exporters (traces leave the site as artifacts)
    "set_attr": "obs trace attribute",
    "set_attrs": "obs trace attribute",
    "trace_span": "obs trace attribute",
    "write_trace_jsonl": "obs JSON-lines trace export",
    "write_prometheus": "obs metrics export",
}

#: Contract-level host sinks (MedScript): name -> boundary kind.
CONTRACT_SINK_KINDS: Dict[str, str] = {
    "storage_set": "contract storage (replicated chain state)",
    "emit": "contract event log (replicated chain state)",
    "require": "revert message (replicated in receipts)",
}

#: Calls whose result is provably boundary-safe (digests, aggregates,
#: commitments, ciphertext).  Matched exactly by attr / bare name.
SANITIZER_CALL_NAMES: FrozenSet[str] = frozenset(
    {
        # repro.common.hashing
        "sha256",
        "sha256_hex",
        "hash_value",
        "hash_value_hex",
        "hash_leaves_batch",
        "hash_pair",
        "short_hash",
        # Merkle anchoring / integrity commitments
        "record_leaf",
        "record_leaves",
        "verify_dataset",
        "verify_record_proof",
        "verify_record_with_proof",
        "anchor",
        "merkle_root",
        # query composition
        "compose",
        "decompose",
        # consented-exchange envelope encryption
        "encrypt_for",
        # counting helpers
        "record_count",
    }
)

#: Dotted-path suffixes accepted as sanitizers when the import map resolves
#: the target (e.g. ``repro.offchain.anchoring.DatasetAnchor.build``).
SANITIZER_DOTTED_SUFFIXES: FrozenSet[str] = frozenset(
    {
        "DatasetAnchor.build",
    }
)

#: Builtins that reduce a container of records to a boundary-safe scalar.
AGGREGATING_BUILTINS: FrozenSet[str] = frozenset(
    {"len", "sum", "min", "max", "any", "all", "bool", "round", "abs"}
)

#: Builtins / helpers that re-shape a value without removing PHI.
PROPAGATING_CALLS: FrozenSet[str] = frozenset(
    {
        "list",
        "tuple",
        "set",
        "dict",
        "sorted",
        "reversed",
        "enumerate",
        "zip",
        "map",
        "filter",
        "next",
        "iter",
        "copy",
        "deepcopy",
        "to_jsonable",
        "canonical_bytes",
        "dumps",  # json.dumps: serialization is not sanitization
        "loads",
    }
)

#: String-coercion calls: propagate taint AND record a format step (a
#: stringified record is still a record — MED202's mechanism).
FORMAT_CALLS: FrozenSet[str] = frozenset({"str", "repr", "format"})

#: Mutating container methods that fold argument taint into the receiver's
#: alias cell (MED204's mechanism).
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault"}
)

#: Prefixes marking a *declared* sanitizer.  A call to one is trusted
#: (CLEAN) unless the callee is visible in the same module and its summary
#: proves PHI passes through — then the call is a sanitizer *bypass* and
#: the flow reports MED205 (false-sanitizer re-identification).
DECLARED_SANITIZER_PREFIXES = (
    "anonymize",
    "deidentify",
    "de_identify",
    "redact",
    "scrub",
    "pseudonymize",
    "sanitize",
)

#: Exact parameter names that carry PHI into a contract method.  Kept
#: deliberately tight: pseudonymous identifiers (``patient_id``,
#: ``patient_pseudo_id``), digests (``*_hash`` / ``*_root``), and counts
#: (``record_count``) are the on-chain currency of the paper's design and
#: must NOT match.
PHI_PARAM_NAMES: FrozenSet[str] = frozenset(
    {
        "record",
        "records",
        "patient_record",
        "patient_records",
        "raw_record",
        "raw_records",
        "patient_data",
        "medical_record",
        "medical_records",
        "ehr",
        "ehr_record",
        "phi",
        "mrn",
        "ssn",
        "dob",
        "date_of_birth",
        "diagnosis",
        "diagnoses",
        "genome",
        "genomic_data",
        "lab_results",
        "symptoms",
    }
)

#: Prefix escape hatch for explicit tagging in new contracts.
PHI_PARAM_PREFIX = "phi_"

#: Constant subscript keys whose projection out of a patient record is
#: boundary-safe: pseudonymous identifiers, digests/commitments, counts —
#: the paper's legal on-chain currency.  ``record["patient_id"]`` is a
#: sanitized projection; ``record["dob"]`` (or any other key) keeps the
#: record's taint.  Caveat (DESIGN.md §14): this trusts key *names*; code
#: that stashes raw PHI under a ``*_id`` key defeats it.
SAFE_PROJECTION_KEYS: FrozenSet[str] = frozenset({"count"})
SAFE_PROJECTION_SUFFIXES = ("_id", "_hash", "_root", "_count", "_digest")


def is_phi_param(name: str) -> bool:
    """True when a contract parameter name is cataloged as PHI-bearing."""
    return name in PHI_PARAM_NAMES or name.startswith(PHI_PARAM_PREFIX)


def is_safe_projection(key: str) -> bool:
    """True when projecting a record to this key is boundary-safe."""
    return key in SAFE_PROJECTION_KEYS or key.endswith(
        SAFE_PROJECTION_SUFFIXES
    )


def is_declared_sanitizer(name: str) -> bool:
    base = name.lstrip("_")
    return base.startswith(DECLARED_SANITIZER_PREFIXES)


def source_description(name: str) -> str:
    return SOURCE_DESCRIPTIONS.get(name, f"PHI source {name}()")


def sink_kind(name: str) -> Optional[str]:
    return SINK_CALL_KINDS.get(name)


def contract_sink_kind(name: str) -> Optional[str]:
    return CONTRACT_SINK_KINDS.get(name)
