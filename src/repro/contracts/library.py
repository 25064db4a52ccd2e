"""Built-in MedScript contracts for the three categories of Figure 4.

The paper defines *data contracts* (request/registration of data sets and
access policy), *analytics contracts* (request execution of analytics tools
and learning models), and *clinical-trial contracts* (participant
recruitment and continuous trial monitoring).  :data:`PLATFORM_CONTRACTS`
lists the sources a medical blockchain network deploys at boot
(:mod:`repro.contracts.deploy`).

Each contract is intentionally *light-weight*: it stores registrations,
policies, and task metadata, and emits events for the off-chain monitor
node — the heavy computation happens off chain (section III's design
strategy).  ``COMPUTE_CONTRACT_SOURCE`` is the deliberate anti-pattern used
by experiment E3: a compute-heavy analytic executed *on chain* by every
node, demonstrating the duplicated-computing waste.
"""

from __future__ import annotations

DATA_REGISTRY_SOURCE = '''
"""Data contract: data-set registration, ownership, and access policy."""

def register_dataset(dataset_id, site, schema, record_count, merkle_root):
    require(not storage_has("ds/" + dataset_id), "dataset already registered")
    require(record_count >= 0, "record_count must be non-negative")
    entry = {
        "dataset_id": dataset_id,
        "owner": sender(),
        "site": site,
        "schema": schema,
        "record_count": record_count,
        "merkle_root": merkle_root,
        "registered_at": block_height(),
        "revoked": False,
    }
    storage_set("ds/" + dataset_id, entry)
    emit("DataRegistered", {"dataset_id": dataset_id, "site": site, "owner": sender()})
    return dataset_id

def update_anchor(dataset_id, merkle_root, record_count):
    entry = storage_get("ds/" + dataset_id)
    require(entry is not None, "unknown dataset")
    require(entry["owner"] == sender(), "only the owner may update the anchor")
    entry["merkle_root"] = merkle_root
    entry["record_count"] = record_count
    storage_set("ds/" + dataset_id, entry)
    emit("AnchorUpdated", {"dataset_id": dataset_id, "merkle_root": merkle_root})
    return True

def get_dataset(dataset_id):
    return storage_get("ds/" + dataset_id)

def list_datasets():
    out = []
    for key in storage_keys("ds/"):
        out = out + [storage_get(key)]
    return out

def grant_access(dataset_id, grantee, purpose, expires_ms):
    entry = storage_get("ds/" + dataset_id)
    require(entry is not None, "unknown dataset")
    require(entry["owner"] == sender(), "only the owner may grant access")
    grant = {
        "dataset_id": dataset_id,
        "grantee": grantee,
        "purpose": purpose,
        "expires_ms": expires_ms,
        "granted_by": sender(),
        "granted_at": block_height(),
        "revoked": False,
    }
    storage_set("grant/" + dataset_id + "/" + grantee + "/" + purpose, grant)
    emit("AccessGranted", {
        "dataset_id": dataset_id, "grantee": grantee, "purpose": purpose,
    })
    return True

def revoke_access(dataset_id, grantee, purpose):
    key = "grant/" + dataset_id + "/" + grantee + "/" + purpose
    grant = storage_get(key)
    require(grant is not None, "no such grant")
    entry = storage_get("ds/" + dataset_id)
    require(entry["owner"] == sender(), "only the owner may revoke access")
    grant["revoked"] = True
    storage_set(key, grant)
    emit("AccessRevoked", {
        "dataset_id": dataset_id, "grantee": grantee, "purpose": purpose,
    })
    return True

def check_access(dataset_id, grantee, purpose, now_ms):
    entry = storage_get("ds/" + dataset_id)
    if entry is None or entry["revoked"]:
        return False
    if entry["owner"] == grantee:
        return True
    grant = storage_get("grant/" + dataset_id + "/" + grantee + "/" + purpose)
    if grant is None or grant["revoked"]:
        return False
    if grant["expires_ms"] >= 0 and now_ms > grant["expires_ms"]:
        return False
    return True
'''


ANALYTICS_SOURCE = '''
"""Analytics contract: tool registration and off-chain task coordination."""

def register_tool(tool_id, code_hash, description):
    require(not storage_has("tool/" + tool_id), "tool already registered")
    storage_set("tool/" + tool_id, {
        "tool_id": tool_id,
        "owner": sender(),
        "code_hash": code_hash,
        "description": description,
        "registered_at": block_height(),
    })
    emit("ToolRegistered", {"tool_id": tool_id, "code_hash": code_hash})
    return tool_id

def get_tool(tool_id):
    return storage_get("tool/" + tool_id)

def request_task(task_id, tool_id, dataset_ids, params, purpose):
    require(not storage_has("task/" + task_id), "task id already used")
    tool = storage_get("tool/" + tool_id)
    require(tool is not None, "unknown tool")
    task = {
        "task_id": task_id,
        "tool_id": tool_id,
        "dataset_ids": dataset_ids,
        "params": params,
        "purpose": purpose,
        "requester": sender(),
        "status": "requested",
        "requested_at": block_height(),
        "result_hash": "",
    }
    storage_set("task/" + task_id, task)
    emit("TaskRequested", {
        "task_id": task_id,
        "tool_id": tool_id,
        "dataset_ids": dataset_ids,
        "requester": sender(),
        "purpose": purpose,
    })
    return task_id

def post_result(task_id, result_hash, summary):
    task = storage_get("task/" + task_id)
    require(task is not None, "unknown task")
    require(task["status"] == "requested", "task is not pending")
    task["status"] = "completed"
    task["result_hash"] = result_hash
    task["summary"] = summary
    task["completed_at"] = block_height()
    task["executor"] = sender()
    storage_set("task/" + task_id, task)
    emit("TaskCompleted", {
        "task_id": task_id, "result_hash": result_hash, "executor": sender(),
    })
    return True

def fail_task(task_id, reason):
    task = storage_get("task/" + task_id)
    require(task is not None, "unknown task")
    require(task["status"] == "requested", "task is not pending")
    task["status"] = "failed"
    task["error"] = reason
    storage_set("task/" + task_id, task)
    emit("TaskFailed", {"task_id": task_id, "reason": reason})
    return True

def get_task(task_id):
    return storage_get("task/" + task_id)
'''


CLINICAL_TRIAL_SOURCE = '''
"""Clinical-trial contract: registration, recruitment, continuous monitoring.

Implements the paper's section III.B integrity story: the trial protocol and
its pre-registered outcomes are hash-anchored at registration time, so
outcome switching (the COMPare problem) is detected when results are
reported against outcomes that were never registered.
"""

def register_trial(trial_id, protocol_hash, outcomes, target_enrollment):
    require(not storage_has("trial/" + trial_id), "trial already registered")
    require(len(outcomes) > 0, "at least one pre-registered outcome required")
    storage_set("trial/" + trial_id, {
        "trial_id": trial_id,
        "sponsor": sender(),
        "protocol_hash": protocol_hash,
        "outcomes": outcomes,
        "target_enrollment": target_enrollment,
        "status": "recruiting",
        "registered_at": block_height(),
        "enrolled": 0,
    })
    emit("TrialRegistered", {
        "trial_id": trial_id,
        "protocol_hash": protocol_hash,
        "outcomes": outcomes,
    })
    return trial_id

def get_trial(trial_id):
    return storage_get("trial/" + trial_id)

def enroll(trial_id, patient_pseudo_id, site, arm):
    trial = storage_get("trial/" + trial_id)
    require(trial is not None, "unknown trial")
    require(trial["status"] == "recruiting", "trial is not recruiting")
    key = "enroll/" + trial_id + "/" + patient_pseudo_id
    require(not storage_has(key), "patient already enrolled")
    storage_set(key, {
        "trial_id": trial_id,
        "patient": patient_pseudo_id,
        "site": site,
        "arm": arm,
        "enrolled_at": block_height(),
    })
    trial["enrolled"] = trial["enrolled"] + 1
    if trial["enrolled"] >= trial["target_enrollment"]:
        trial["status"] = "active"
        emit("RecruitmentComplete", {"trial_id": trial_id, "enrolled": trial["enrolled"]})
    storage_set("trial/" + trial_id, trial)
    emit("PatientEnrolled", {
        "trial_id": trial_id, "patient": patient_pseudo_id, "site": site, "arm": arm,
    })
    return trial["enrolled"]

def report_outcome(trial_id, patient_pseudo_id, outcome, value_milli, data_hash):
    trial = storage_get("trial/" + trial_id)
    require(trial is not None, "unknown trial")
    enrolled = storage_get("enroll/" + trial_id + "/" + patient_pseudo_id)
    require(enrolled is not None, "patient not enrolled")
    if outcome not in trial["outcomes"]:
        emit("OutcomeSwitchingDetected", {
            "trial_id": trial_id,
            "reported_outcome": outcome,
            "registered_outcomes": trial["outcomes"],
            "reporter": sender(),
        })
        require(False, "outcome was not pre-registered")
    key = "report/" + trial_id + "/" + patient_pseudo_id + "/" + outcome
    storage_set(key, {
        "trial_id": trial_id,
        "patient": patient_pseudo_id,
        "outcome": outcome,
        "value_milli": value_milli,
        "data_hash": data_hash,
        "reported_at": block_height(),
        "reporter": sender(),
    })
    emit("OutcomeReported", {
        "trial_id": trial_id,
        "patient": patient_pseudo_id,
        "outcome": outcome,
        "value_milli": value_milli,
    })
    return True

def report_adverse_event(trial_id, patient_pseudo_id, severity, description_hash):
    trial = storage_get("trial/" + trial_id)
    require(trial is not None, "unknown trial")
    enrolled = storage_get("enroll/" + trial_id + "/" + patient_pseudo_id)
    require(enrolled is not None, "patient not enrolled")
    require(severity >= 1 and severity <= 5, "severity must be 1..5")
    count = storage_get("ae_count/" + trial_id, 0) + 1
    storage_set("ae_count/" + trial_id, count)
    storage_set("ae/" + trial_id + "/" + str(count), {
        "trial_id": trial_id,
        "patient": patient_pseudo_id,
        "severity": severity,
        "description_hash": description_hash,
        "reported_at": block_height(),
    })
    emit("AdverseEvent", {
        "trial_id": trial_id,
        "patient": patient_pseudo_id,
        "severity": severity,
        "count": count,
    })
    return count

def adverse_event_count(trial_id):
    return storage_get("ae_count/" + trial_id, 0)

def finalize(trial_id, results_hash):
    trial = storage_get("trial/" + trial_id)
    require(trial is not None, "unknown trial")
    require(trial["sponsor"] == sender(), "only the sponsor may finalize")
    trial["status"] = "finalized"
    trial["results_hash"] = results_hash
    storage_set("trial/" + trial_id, trial)
    emit("TrialFinalized", {"trial_id": trial_id, "results_hash": results_hash})
    return True
'''


PATIENT_CONSENT_SOURCE = '''
"""Patient-consent contract: per-patient, per-scope opt-out.

The paper's data-ownership stance ("data sets can be owned by different
entities ... patients") needs more than site-level grants: the *patient*
must be able to withdraw their records from research use.  Consent is
opt-in by default (enrollment implies baseline consent, as in a real-world
data network) with explicit, revocable, scope-specific opt-out recorded on
chain.  The off-chain control code excludes opted-out patients' records
before any analytic runs.
"""

def set_consent(patient_pseudo_id, scope, allow):
    key = "consent/" + scope + "/" + patient_pseudo_id
    storage_set(key, {
        "patient": patient_pseudo_id,
        "scope": scope,
        "allow": allow,
        "set_by": sender(),
        "set_at": block_height(),
    })
    opted = storage_get("optout/" + scope, [])
    if allow:
        cleaned = []
        for pid in opted:
            if pid != patient_pseudo_id:
                cleaned = cleaned + [pid]
        storage_set("optout/" + scope, cleaned)
    else:
        if patient_pseudo_id not in opted:
            storage_set("optout/" + scope, opted + [patient_pseudo_id])
    emit("ConsentChanged", {
        "patient": patient_pseudo_id, "scope": scope, "allow": allow,
    })
    return allow

def check_consent(patient_pseudo_id, scope):
    entry = storage_get("consent/" + scope + "/" + patient_pseudo_id)
    if entry is None:
        return True
    return entry["allow"]

def opted_out(scope):
    return storage_get("optout/" + scope, [])

def optout_count(scope):
    return len(storage_get("optout/" + scope, []))
'''


BLOB_REGISTRY_SOURCE = '''
"""Blob registry: on-chain commitments for erasure-coded off-chain blobs.

A blob (genomic panel, imaging study) never touches the chain; the owner
registers only its Merkle root plus coding geometry.  Auditors verify
sampled chunks against the root, repairs are logged so custody history is
on the ledger, and the payload custody itself lives with the n sites named
in the placement.
"""

def register_blob(blob_id, merkle_root, size, chunk_size, k, n, stripes, placement):
    require(not storage_has("blob/" + blob_id), "blob already registered")
    require(size >= 0, "size must be non-negative")
    require(chunk_size > 0, "chunk_size must be positive")
    require(k >= 1, "k must be at least 1")
    require(n >= k, "n must be at least k")
    require(stripes >= 0, "stripes must be non-negative")
    require(len(placement) == n, "placement must name one site per share")
    entry = {
        "blob_id": blob_id,
        "owner": sender(),
        "merkle_root": merkle_root,
        "size": size,
        "chunk_size": chunk_size,
        "k": k,
        "n": n,
        "stripes": stripes,
        "placement": placement,
        "registered_at": block_height(),
        "repairs": 0,
        "last_audit": None,
        "revoked": False,
    }
    storage_set("blob/" + blob_id, entry)
    emit("BlobRegistered", {
        "blob_id": blob_id, "merkle_root": merkle_root, "n": n, "k": k,
    })
    return blob_id

def get_blob(blob_id):
    return storage_get("blob/" + blob_id)

def list_blobs():
    out = []
    for key in storage_keys("blob/"):
        out = out + [storage_get(key)]
    return out

def report_audit(blob_id, samples, verified, flagged_sites):
    entry = storage_get("blob/" + blob_id)
    require(entry is not None, "unknown blob")
    require(samples >= 0, "samples must be non-negative")
    require(verified >= 0, "verified must be non-negative")
    require(verified <= samples, "verified cannot exceed samples")
    entry["last_audit"] = {
        "auditor": sender(),
        "samples": samples,
        "verified": verified,
        "flagged_sites": flagged_sites,
        "at": block_height(),
    }
    storage_set("blob/" + blob_id, entry)
    emit("BlobAudited", {
        "blob_id": blob_id,
        "samples": samples,
        "verified": verified,
        "ok": verified == samples,
    })
    return verified == samples

def report_repair(blob_id, restored):
    entry = storage_get("blob/" + blob_id)
    require(entry is not None, "unknown blob")
    require(restored >= 0, "restored must be non-negative")
    entry["repairs"] = entry["repairs"] + 1
    storage_set("blob/" + blob_id, entry)
    emit("BlobRepaired", {"blob_id": blob_id, "restored": restored})
    return entry["repairs"]

def revoke_blob(blob_id):
    entry = storage_get("blob/" + blob_id)
    require(entry is not None, "unknown blob")
    require(entry["owner"] == sender(), "only the owner may revoke")
    entry["revoked"] = True
    storage_set("blob/" + blob_id, entry)
    emit("BlobRevoked", {"blob_id": blob_id})
    return True
'''


COMPUTE_CONTRACT_SOURCE = '''
"""Deliberately compute-heavy on-chain analytic (the paper's anti-pattern).

Runs an integer matrix multiply and a fixed-point gradient-descent step
entirely inside the contract VM.  Every consensus node re-executes this,
which is the duplicated computing experiment E3 measures.
"""

def matmul(a, b, n):
    out = []
    i = 0
    while i < n:
        row = []
        j = 0
        while j < n:
            acc = 0
            k = 0
            while k < n:
                acc = acc + a[i][k] * b[k][j]
                k = k + 1
            row = row + [acc]
            j = j + 1
        out = out + [row]
        i = i + 1
    return out

def train_step(features, labels, weights, lr_milli):
    n = len(features)
    d = len(weights)
    grad = []
    j = 0
    while j < d:
        grad = grad + [0]
        j = j + 1
    i = 0
    while i < n:
        dot = 0
        j = 0
        while j < d:
            dot = dot + features[i][j] * weights[j]
            j = j + 1
        error = dot // 1000 - labels[i]
        j = 0
        while j < d:
            grad[j] = grad[j] + error * features[i][j]
            j = j + 1
        i = i + 1
    j = 0
    new_weights = []
    while j < d:
        step = (lr_milli * grad[j]) // (n * 1000)
        new_weights = new_weights + [weights[j] - step]
        j = j + 1
    storage_set("weights", new_weights)
    emit("TrainStep", {"samples": n})
    return new_weights

def get_weights():
    return storage_get("weights", [])
'''


COUNTER_SOURCE = '''
"""Minimal contract used by unit tests."""

def init(start=0):
    storage_set("count", start)

def increment(by=1):
    value = storage_get("count", 0) + by
    storage_set("count", value)
    emit("Incremented", {"count": value})
    return value

def get():
    return storage_get("count", 0)
'''

#: The platform's contracts in deploy order (Figure 4's data / analytics /
#: clinical-trial categories, plus patient consent for the paper's
#: data-ownership goals and the erasure-coded blob registry): each name feeds
#: its contract's id, and each index is the deployer's nonce.
PLATFORM_CONTRACTS = {
    "data-registry": DATA_REGISTRY_SOURCE,
    "analytics": ANALYTICS_SOURCE,
    "clinical-trial": CLINICAL_TRIAL_SOURCE,
    "patient-consent": PATIENT_CONSENT_SOURCE,
    "blob-registry": BLOB_REGISTRY_SOURCE,
}
