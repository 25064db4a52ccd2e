"""Contract-verifier tests: the known-bad corpus, noqa, and zero-FP audit.

The corpus holds one minimal bad snippet per rule; each must be flagged
with exactly its own code (no cross-rule noise), which is the acceptance
bar for the analyzer: findings precise enough to gate deployments on.
"""

import os

import pytest

from repro.analysis import analyze_contract_source, analyze_file, analyze_paths
from repro.analysis.findings import Severity
from repro.analysis.registry import all_rules
from repro.contracts import library

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: One minimal known-bad snippet per contract rule.  Each fires exactly its
#: own code.  MED008 needs a gas ceiling and is parameterized separately.
BAD_CORPUS = {
    "MED001": "def f(x):\n    return x + time\n",
    "MED002": "def f():\n    return 1.5\n",
    "MED003": "def f(a, b):\n    return a / b\n",
    "MED004": "def f(n):\n    while True:\n        n = n + 1\n    return n\n",
    "MED005": (
        "def f(entry):\n"
        '    storage_set("a", entry)\n'
        '    storage_set("b", entry)\n'
        "    return 1\n"
    ),
    "MED006": "def f():\n    return helper(1)\n",
    "MED007": 'def f():\n    return 1\n    storage_set("k", 2)\n',
    "MED009": "def f(x):\n    return x.append\n",
    "MED010": "def f():\n    return unknown_var + 1\n",
}


class TestBadCorpus:
    @pytest.mark.parametrize("code", sorted(BAD_CORPUS))
    def test_snippet_flagged_with_exactly_its_code(self, code):
        findings = analyze_contract_source(BAD_CORPUS[code])
        assert {f.code for f in findings} == {code}

    def test_med008_gas_ceiling(self):
        source = (
            "def f():\n"
            "    total = 0\n"
            "    for i in range(100):\n"
            '        total = total + storage_get("k", 0)\n'
            "    return total\n"
        )
        findings = analyze_contract_source(source, max_gas=100)
        assert {f.code for f in findings} == {"MED008"}
        # Without a ceiling the rule stays silent.
        assert analyze_contract_source(source) == []

    def test_med008_names_the_sizes_it_assumes(self):
        # The bound prices sha256_hex and storage_keys at assumed sizes; a
        # finding on a function that reaches either says so, through calls too.
        source = (
            "def _digest(v):\n"
            "    return sha256_hex(v)\n"
            "def hashed(v):\n"
            "    return _digest(v)\n"
            "def listed():\n"
            '    return storage_keys("ds/")\n'
            "def read():\n"
            '    return [storage_get("a"), storage_get("b")]\n'
        )
        texts = {f.symbol: f.message for f in analyze_contract_source(source, max_gas=100)}
        assert texts["hashed"].endswith("(if sha256_hex hashes at most 4,096 bytes a call)")
        assert texts["listed"].endswith("(if storage_keys returns at most 1,024 keys a call)")
        assert texts["read"].endswith("exceeds the ceiling 100")

    def test_syntax_error_reported_as_med009(self):
        findings = analyze_contract_source("def f(:\n    return 1\n")
        assert len(findings) == 1
        assert findings[0].code == "MED009"
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_location_and_symbol(self):
        findings = analyze_contract_source(BAD_CORPUS["MED002"])
        (finding,) = findings
        assert finding.line == 2
        assert finding.symbol == "f"
        assert finding.severity is Severity.ERROR

    def test_storage_alias_cleared_by_rebinding(self):
        source = (
            "def f(entry):\n"
            '    storage_set("a", entry)\n'
            '    entry = storage_get("a")\n'
            '    storage_set("b", entry)\n'
            "    return 1\n"
        )
        assert analyze_contract_source(source) == []

    def test_function_read_as_value_is_med010(self):
        source = (
            "def _h(a):\n"
            "    return a\n"
            "def f(len):\n"
            "    return [len, _h(1), _h, storage_get, abs]\n"
        )
        findings = analyze_contract_source(source)
        assert [(f.code, f.col) for f in findings] == [("MED010", 24), ("MED010", 28), ("MED010", 41)]
        assert all("read as a value" in f.message for f in findings)

    def test_function_a_host_or_builtin_takes_first_is_med007(self):
        """A call to ``storage_set`` or ``len`` reaches the host function or the
        builtin, so no call reaches a contract function of that name."""
        source = (
            "def storage_set(k, v):\n"
            "    return 0\n"
            "def len(x):\n"
            "    return 1\n"
            "def f():\n"
            "    return storage_set('k', len([1]))\n"
        )
        findings = analyze_contract_source(source)
        assert [(f.code, f.symbol, f.line) for f in findings] == [("MED007", "len", 3), ("MED007", "storage_set", 1)]
        assert "reaches the host function" in findings[1].message

    def test_break_of_an_inner_loop_does_not_bound_the_outer(self):
        source = (
            "def f(xs):\n"
            "    while True:\n"
            "        for x in xs:\n"
            "            break\n"
            "    return 1\n"
        )
        assert [(f.code, f.line) for f in analyze_contract_source(source)] == [("MED004", 2)]
        # A ``return`` anywhere in the body, or a ``break`` in the inner loop's ``else``, leaves it.
        for exit_line in ("            return x\n", "            pass\n        else:\n            break\n"):
            assert analyze_contract_source(source.replace("            break\n", exit_line)) == []

    def test_bounded_while_not_flagged(self):
        source = (
            "def f(n):\n"
            "    while True:\n"
            "        n = n - 1\n"
            "        if n <= 0:\n"
            "            break\n"
            "    return n\n"
        )
        assert analyze_contract_source(source) == []


class TestSuppressions:
    def test_targeted_noqa_suppresses_only_listed_code(self):
        source = "def f(x):\n    return x + time + unknown_var  # repro: noqa[MED001]\n"
        findings = analyze_contract_source(source)
        assert {f.code for f in findings} == {"MED010"}

    def test_blanket_noqa_suppresses_everything_on_line(self):
        source = "def f(x):\n    return x + time + unknown_var  # repro: noqa\n"
        assert analyze_contract_source(source) == []

    @pytest.mark.parametrize(
        "line, codes",
        [
            ("return a / 2.0  # repro: noqa", {"MED002", "MED003"}),
            ("return a / b  # repro: noqa[MED003]", {"MED003"}),
            ("return a.append  # repro: noqa[MED009]", {"MED009"}),
        ],
    )
    def test_grammar_findings_cannot_be_suppressed(self, line, codes):
        """MED002/003/009 are the VM's compile errors: the deploy would fail on
        chain anyway, so the gate reports them whatever the comment says."""
        findings = analyze_contract_source(f"def f(a, b):\n    {line}\n")
        assert {f.code for f in findings} == codes

    def test_noqa_on_other_line_does_not_suppress(self):
        source = "def f():  # repro: noqa\n    return 1.5\n"
        findings = analyze_contract_source(source)
        assert {f.code for f in findings} == {"MED002"}


class TestZeroFalsePositives:
    """The acceptance bar: no findings on the shipped contract library."""

    def test_library_contracts_all_clean(self):
        sources = {
            name: getattr(library, name)
            for name in dir(library)
            if name.endswith("_SOURCE")
        }
        assert len(sources) >= 6
        for name, source in sources.items():
            findings = analyze_contract_source(source, file=name)
            assert findings == [], [f.render() for f in findings]

    def test_library_file_embedded_audit_clean(self):
        path = os.path.join(REPO_ROOT, "src", "repro", "contracts", "library.py")
        assert analyze_file(path) == []

    def test_src_repro_and_examples_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, "examples"),
        ]
        result = analyze_paths([p for p in paths if os.path.exists(p)])
        assert result.files_analyzed > 50
        assert result.contracts_analyzed >= 6
        assert result.findings == [], [f.render() for f in result.findings]


class TestEmbeddedContracts:
    def test_embedded_finding_maps_to_host_line(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text(
            "X = 1\n"
            "BAD_SOURCE = '''\n"
            "def f():\n"
            "    return 1.5\n"
            "'''\n"
        )
        findings = analyze_file(str(host))
        (finding,) = findings
        assert finding.code == "MED002"
        assert finding.file == str(host)
        assert finding.line == 4  # the literal's `return 1.5` line in mod.py

    def test_noqa_inside_embedded_literal(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text(
            "BAD_SOURCE = '''\n"
            "def f():\n"
            "    return time  # repro: noqa[MED001]\n"
            "'''\n"
        )
        assert analyze_file(str(host)) == []

    def test_non_contract_string_constants_ignored(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text('QUERY_SOURCE = "just a plain string"\n')
        assert analyze_file(str(host)) == []


class TestRuleCatalog:
    def test_every_contract_rule_has_a_corpus_entry(self):
        contract_codes = {
            rule.code for rule in all_rules() if rule.family == "contract"
        }
        covered = set(BAD_CORPUS) | {"MED008"}
        assert covered == contract_codes

    def test_rule_codes_unique_and_stable(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert codes == sorted(set(codes))
        assert all(code.startswith("MED") for code in codes)
