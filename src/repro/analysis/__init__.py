"""repro.analysis — static contract verifier and repo convention linter.

The deterministic-execution story of the paper (every node runs the
identical contract code) is enforced in two places: at runtime by the VM's
gas meter and syntax whitelist, and — as of this package — *statically,
before deployment and before merge*:

- the **contract family** (MED0xx) verifies MedScript source prior to
  on-chain registration (nondeterminism, unbounded loops, unknown host
  calls, worst-case gas);
- the **repo family** (MED1xx) lints the ``repro`` codebase for
  conventions the runtime silently depends on (no blocking calls in async
  paths, canonical serialization in consensus code, kernel-clock time);
- the **dataflow family** (MED2xx) is an interprocedural PHI taint pass
  proving that raw patient data never crosses the site boundary (chain
  state, RPC responses, gossip, observability exports) — always on for
  contract sources, opt-in (``--taint``) for repo modules.

Use :func:`verify_contract` as the deploy gate,
:func:`analyze_contract_source` / :func:`analyze_paths` for reports, and
``python -m repro.analysis`` from CI.
"""

from repro.analysis import contract_rules, repo_rules  # register checkers
from repro.analysis import dataflow  # register the MED2xx rule family
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.dataflow import TaintEngine, check_contract, check_module
from repro.analysis.engine import (
    analyze_contract_source,
    analyze_file,
    analyze_paths,
    extract_embedded_contracts,
    parse_suppressions,
)
from repro.analysis.findings import AnalysisResult, Finding, RuleInfo, Severity
from repro.analysis.registry import (
    ContractChecker,
    ContractContext,
    ModuleContext,
    RepoChecker,
    all_rules,
    contract_checkers,
    register,
    repo_checkers,
)
from repro.analysis.verify import verify_contract
from repro.common.errors import ContractVerificationError

__all__ = [
    "AnalysisResult",
    "ContractChecker",
    "ContractContext",
    "ContractVerificationError",
    "Finding",
    "ModuleContext",
    "RepoChecker",
    "RuleInfo",
    "Severity",
    "all_rules",
    "TaintEngine",
    "analyze_contract_source",
    "analyze_file",
    "analyze_paths",
    "apply_baseline",
    "check_contract",
    "check_module",
    "contract_checkers",
    "contract_rules",
    "dataflow",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "extract_embedded_contracts",
    "parse_suppressions",
    "register",
    "repo_checkers",
    "repo_rules",
    "verify_contract",
]
