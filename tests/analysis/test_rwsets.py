"""Static read/write-set derivation tests (`repro.analysis.rwsets`).

The parallel block scheduler schedules across waves based on these sets, so
the critical property is *soundness*: a method not flagged ``unknown`` must
over-approximate every slot it can touch, and anything unprovable must
poison the method to ``unknown``.
"""

from repro.analysis import MethodRWSet, SlotTemplate, read_write_sets
from repro.analysis.rwsets import MAX_CALL_DEPTH


def rendered(templates):
    return {t.render() for t in templates}


class TestTemplateDerivation:
    def test_literal_keys(self):
        sets = read_write_sets(
            "def get():\n"
            '    return storage_get("total")\n'
            "def put(v):\n"
            '    storage_set("total", v)\n'
        )
        assert not sets["get"].unknown
        assert rendered(sets["get"].reads) == {"total"}
        assert not sets["get"].writes
        assert rendered(sets["put"].writes) == {"total"}

    def test_param_fstring_and_concat(self):
        sets = read_write_sets(
            "def bump(user):\n"
            '    v = storage_get(f"bal:{user}", 0)\n'
            '    storage_set("bal:" + user, v + 1)\n'
        )
        method = sets["bump"]
        assert not method.unknown
        assert rendered(method.reads) == {"bal:{user}"}
        assert rendered(method.writes) == {"bal:{user}"}

    def test_str_coercion_and_int_constants(self):
        sets = read_write_sets(
            "def f(i):\n"
            '    storage_set("slot:" + str(i), 1)\n'
            "def g():\n"
            "    return storage_get(7)\n"
        )
        assert rendered(sets["f"].writes) == {"slot:{i}"}
        assert rendered(sets["g"].reads) == {"7"}

    def test_module_constant_and_local_propagation(self):
        sets = read_write_sets(
            'PREFIX = "acl:"\n'
            "def check(who):\n"
            "    key = PREFIX + who\n"
            "    return storage_get(key)\n"
        )
        assert rendered(sets["check"].reads) == {"acl:{who}"}

    def test_prefix_scan_templates(self):
        sets = read_write_sets(
            "def scan(p):\n"
            '    return storage_keys(f"bal:{p}")\n'
            "def scan_all():\n"
            "    return storage_keys()\n"
        )
        assert rendered(sets["scan"].read_prefixes) == {"bal:{p}"}
        assert rendered(sets["scan_all"].read_prefixes) == {""}

    def test_delete_counts_as_read_and_write(self):
        sets = read_write_sets('def drop(k):\n    storage_delete("x:" + k)\n')
        assert rendered(sets["drop"].reads) == {"x:{k}"}
        assert rendered(sets["drop"].writes) == {"x:{k}"}

    def test_branches_union(self):
        sets = read_write_sets(
            "def route(flag):\n"
            "    if flag:\n"
            '        storage_set("a", 1)\n'
            "    else:\n"
            '        storage_set("b", 2)\n'
        )
        assert rendered(sets["route"].writes) == {"a", "b"}

    def test_helper_calls_are_followed(self):
        sets = read_write_sets(
            "def _key(user, kind):\n"
            '    return storage_get(kind + ":" + user)\n'
            "def read(user):\n"
            '    return _key(user, "bal")\n'
            "def read_kw(user):\n"
            '    return _key(kind="pt", user=user)\n'
        )
        assert rendered(sets["read"].reads) == {"bal:{user}"}
        assert rendered(sets["read_kw"].reads) == {"pt:{user}"}
        assert "_key" not in sets  # private helpers folded into callers

    def test_helper_default_argument(self):
        sets = read_write_sets(
            'def _get(k, kind="bal"):\n'
            '    return storage_get(kind + ":" + k)\n'
            "def read(k):\n"
            "    return _get(k)\n"
        )
        assert rendered(sets["read"].reads) == {"bal:{k}"}


class TestCallsGoWhereTheVMSendsThem:
    def test_host_function_wins_over_contract_function(self):
        sets = read_write_sets(
            "def storage_set(k, v):\n"
            '    return storage_get("shadow")\n'
            "def f():\n"
            '    storage_set("k", 1)\n'
        )
        assert rendered(sets["f"].writes) == {"k"}
        assert not sets["f"].reads

    def test_positional_argument_wins_over_keyword(self):
        sets = read_write_sets(
            "def _put(k):\n"
            "    storage_set(k, 1)\n"
            "def f():\n"
            '    _put("a", k="b")\n'
        )
        assert rendered(sets["f"].writes) == {"a"}

    def test_surplus_positional_arguments_are_dropped(self):
        sets = read_write_sets(
            "def _put(k):\n"
            "    storage_set(k, 1)\n"
            "def f(u):\n"
            '    _put(u, "ignored")\n'
        )
        assert not sets["f"].unknown
        assert rendered(sets["f"].writes) == {"{u}"}

    def test_a_call_the_vm_refuses_touches_nothing(self):
        # An unknown keyword fails the call before the callee's body runs.
        sets = read_write_sets(
            "def _put(k):\n"
            "    storage_set(k, 1)\n"
            "def f(u):\n"
            '    _put(u, bogus=1)\n'
        )
        assert not sets["f"].unknown
        assert not sets["f"].writes


class TestUnknownPoisoning:
    def test_computed_key_expression(self):
        sets = read_write_sets(
            "def f(xs):\n    return storage_get(xs[0])\n"
        )
        assert sets["f"].unknown

    def test_numeric_addition_key(self):
        # 2 + 3 evaluates to slot "5"; a concat template would claim "23".
        sets = read_write_sets("def f():\n    return storage_get(2 + 3)\n")
        assert sets["f"].unknown

    def test_string_side_makes_addition_safe(self):
        sets = read_write_sets(
            'def f(n):\n    return storage_get("n:" + n)\n'
        )
        assert not sets["f"].unknown

    def test_rebound_parameter(self):
        sets = read_write_sets(
            "def f(k):\n"
            "    k = transform(k)\n"
            '    return storage_get("x:" + k)\n'
        )
        assert sets["f"].unknown

    def test_aliased_helper_call(self):
        # `g = helper; g(x)` hides a potential storage access.
        sets = read_write_sets(
            "def _helper(k):\n"
            '    storage_set("h:" + k, 1)\n'
            "def f(k):\n"
            "    g = _helper\n"
            "    g(k)\n"
        )
        assert sets["f"].unknown

    def test_computed_callee(self):
        sets = read_write_sets(
            "def f(fns, k):\n    fns[0](k)\n"
        )
        assert sets["f"].unknown

    def test_unknown_name_call(self):
        sets = read_write_sets("def f(k):\n    mystery(k)\n")
        assert sets["f"].unknown

    def test_pure_builtin_calls_stay_known(self):
        sets = read_write_sets(
            "def f(k):\n"
            "    n = len(k)\n"
            '    return storage_get("x:" + k)\n'
        )
        assert not sets["f"].unknown

    def test_keyword_storage_argument(self):
        sets = read_write_sets('def f():\n    return storage_get(key="a")\n')
        assert sets["f"].unknown

    def test_recursion_hits_depth_cap(self):
        sets = read_write_sets(
            "def f(k):\n    return f(k)\n"
        )
        assert sets["f"].unknown

    def test_deep_call_chain_capped(self):
        lines = []
        for i in range(MAX_CALL_DEPTH + 2):
            lines.append(f"def _f{i}(k):")
            lines.append(f"    return _f{i + 1}(k)")
        lines.append(f"def _f{MAX_CALL_DEPTH + 2}(k):")
        lines.append('    return storage_get("x:" + k)')
        lines.append("def entry(k):")
        lines.append("    return _f0(k)")
        sets = read_write_sets("\n".join(lines) + "\n")
        assert sets["entry"].unknown

    @staticmethod
    def _chain(depth):
        """entry -> _f0 -> ... -> _f<depth-1> -> storage_get."""
        lines = []
        for i in range(depth - 1):
            lines.append(f"def _f{i}(k):")
            lines.append(f"    return _f{i + 1}(k)")
        lines.append(f"def _f{depth - 1}(k):")
        lines.append('    return storage_get("x:" + k)')
        lines.append("def entry(k):")
        lines.append("    return _f0(k)")
        return "\n".join(lines) + "\n"

    def test_max_depth_override_resolves_deeper_chains(self):
        source = self._chain(MAX_CALL_DEPTH + 4)
        assert read_write_sets(source)["entry"].unknown
        sets = read_write_sets(source, max_depth=MAX_CALL_DEPTH + 8)
        assert not sets["entry"].unknown
        (template,) = sets["entry"].reads
        assert template.render() == "x:{k}"

    def test_max_depth_override_poisons_shallow_chains_to_unknown(self):
        # A chain the default cap resolves mis-resolves to *unknown* —
        # never to a wrong template — when the cap is tightened.
        source = self._chain(4)
        assert not read_write_sets(source)["entry"].unknown
        assert read_write_sets(source, max_depth=2)["entry"].unknown

    def test_format_spec_rejected(self):
        sets = read_write_sets(
            'def f(n):\n    return storage_get(f"x:{n:04d}")\n'
        )
        assert sets["f"].unknown

    def test_syntax_error_yields_empty(self):
        assert read_write_sets("def f(:\n") == {}


class TestResolve:
    def resolve(self, source, method, args):
        return read_write_sets(source)[method].resolve(args)

    def test_resolve_substitutes_args(self):
        access = self.resolve(
            'def f(u):\n    storage_set("bal:" + u, 0)\n', "f", {"u": "alice"}
        )
        assert access.writes == frozenset({"bal:alice"})

    def test_resolve_applies_defaults(self):
        access = self.resolve(
            'def f(u, kind="bal"):\n'
            "    storage_set(kind + \":\" + u, 0)\n",
            "f",
            {"u": "bob"},
        )
        assert access.writes == frozenset({"bal:bob"})

    def test_resolve_missing_arg_is_none(self):
        assert self.resolve(
            'def f(u):\n    storage_set("bal:" + u, 0)\n', "f", {}
        ) is None

    def test_resolve_container_arg_is_none(self):
        assert self.resolve(
            'def f(u):\n    storage_set("bal:" + u, 0)\n', "f", {"u": [1]}
        ) is None

    def test_resolve_unknown_method_is_none(self):
        assert self.resolve(
            "def f(k):\n    mystery(k)\n", "f", {"k": "a"}
        ) is None

    def test_int_arg_coerced_like_runtime(self):
        access = self.resolve(
            'def f(i):\n    storage_set("s:" + str(i), 0)\n', "f", {"i": 12}
        )
        assert access.writes == frozenset({"s:12"})


class TestSlotTemplate:
    def test_render_and_params(self):
        template = SlotTemplate(
            parts=(("lit", "bal:"), ("param", "user"))
        )
        assert template.render() == "bal:{user}"
        assert template.params == frozenset({"user"})
        assert not template.is_literal

    def test_public_exports(self):
        import repro.analysis as analysis

        assert analysis.read_write_sets is read_write_sets
        assert analysis.MethodRWSet is MethodRWSet
