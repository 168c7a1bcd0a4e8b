"""Per-rule positive/negative fixtures, driven through ``lint_source``.

Every violating snippet lives inside a string literal so the repository's
own lint run (which covers ``tests/``) never trips over this file.
"""

import textwrap

import pytest

from repro.lint import lint_source

KERNEL = "repro.kernel.fixture"  # inside every package-scoped rule's scope
TESTS = "tests.test_fixture"  # outside the kernel-adjacent packages


def codes(source, module=KERNEL):
    return [f.code for f in lint_source(textwrap.dedent(source), module=module)]


class TestGlobalRandom:
    def test_module_level_call_flagged(self):
        src = """
        import random
        x = random.random()
        """
        assert codes(src) == ["RPR101"]

    def test_from_import_flagged(self):
        src = """
        from random import choice
        y = choice([1, 2])
        """
        # the import and the call are both flagged
        assert codes(src) == ["RPR101", "RPR101"]

    def test_unseeded_random_instance_flagged(self):
        assert codes("import random\nrng = random.Random()\n") == ["RPR101"]

    def test_unseeded_construction_flagged_through_any_binding(self):
        # Every spelling of an unseeded Random() draws its seed from OS
        # entropy: no argument, or a literal None seed.
        for src in (
            "from random import Random\nr = Random()\n",
            "from random import Random as R\nr = R(None)\n",
            "import random\nr = random.Random(None)\n",
            "import random\nr = random.Random(x=None)\n",
        ):
            assert codes(src) == ["RPR101"], src

    def test_unseeded_construction_flagged_through_a_value_binding(self):
        src = "import random\nRng = random.Random\n\ndef f():\n    return Rng()\n"
        assert codes(src) == ["RPR101"]

    def test_seeded_instance_clean(self):
        src = """
        import random
        rng = random.Random(7)
        x = rng.random()
        """
        assert codes(src) == []

    def test_random_class_import_clean(self):
        assert codes("from random import Random\nrng = Random(3)\n") == []

    def test_applies_everywhere(self):
        src = "import random\nx = random.random()\n"
        assert codes(src, module=TESTS) == ["RPR101"]

    def test_aliased_module_flagged(self):
        src = "import random as rnd\nx = rnd.shuffle([1])\n"
        assert codes(src) == ["RPR101"]


class TestWallClock:
    def test_time_time_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["RPR102"]

    def test_os_environ_flagged(self):
        assert codes("import os\nv = os.environ['HOME']\n") == ["RPR102"]

    def test_os_urandom_flagged(self):
        assert codes("import os\nb = os.urandom(8)\n") == ["RPR102"]

    def test_datetime_now_flagged(self):
        src = """
        from datetime import datetime
        d = datetime.now()
        """
        assert codes(src) == ["RPR102"]

    def test_datetime_module_chain_flagged(self):
        src = """
        import datetime
        d = datetime.datetime.now()
        """
        assert codes(src) == ["RPR102"]

    def test_from_import_of_clock_fn_flagged(self):
        src = """
        from time import perf_counter
        t = perf_counter()
        """
        assert codes(src) == ["RPR102"]

    def test_outside_kernel_packages_clean(self):
        assert codes("import time\nt = time.time()\n", module=TESTS) == []

    def test_os_path_clean(self):
        assert codes("import os\np = os.path.join('a', 'b')\n") == []


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        src = """
        def f():
            for x in {3, 1, 2}:
                pass
        """
        assert codes(src) == ["RPR103"]

    def test_comprehension_over_set_call_flagged(self):
        src = """
        def f(items):
            s = set(items)
            return [x for x in s]
        """
        assert codes(src) == ["RPR103"]

    def test_list_of_set_flagged(self):
        src = """
        def f(items):
            s = frozenset(items)
            return list(s)
        """
        assert codes(src) == ["RPR103"]

    def test_set_pop_flagged(self):
        src = """
        def f(items):
            s = set(items)
            return s.pop()
        """
        assert codes(src) == ["RPR103"]

    def test_bare_keys_iteration_flagged(self):
        src = """
        def f(d):
            for k in d.keys():
                pass
        """
        assert codes(src) == ["RPR103"]

    def test_annotated_set_parameter_flagged(self):
        src = """
        from typing import Set

        def f(pids: Set[int]):
            return [p for p in pids]
        """
        assert codes(src) == ["RPR103"]

    def test_sorted_iteration_clean(self):
        src = """
        def f(items):
            s = set(items)
            return [x for x in sorted(s)]
        """
        assert codes(src) == []

    def test_order_insensitive_sink_clean(self):
        src = """
        def f(items):
            s = set(items)
            return sum(x for x in s), len(s), min(s)
        """
        assert codes(src) == []

    def test_rebound_name_not_flagged(self):
        # a name later rebound to a list is tainted, not evidently a set
        src = """
        def f(items):
            s = set(items)
            s = sorted(s)
            return [x for x in s]
        """
        assert codes(src) == []

    def test_outside_kernel_packages_clean(self):
        src = """
        def f():
            for x in {3, 1, 2}:
                pass
        """
        assert codes(src, module=TESTS) == []


class TestIdentityOrdering:
    def test_id_call_flagged(self):
        src = """
        def key(obj):
            return id(obj)
        """
        assert codes(src) == ["RPR104"]

    def test_outside_kernel_packages_clean(self):
        assert codes("x = id(object())\n", module=TESTS) == []


class TestAutomatonPurity:
    def test_print_in_step_flagged(self):
        src = """
        class Leaky(Automaton):
            def step(self, state, observation):
                print(state)
                return state
        """
        assert codes(src) == ["RPR201"]

    def test_module_global_mutation_flagged(self):
        src = """
        SEEN = []

        class Leaky(Automaton):
            def step(self, state, observation):
                SEEN.append(state)
                return state
        """
        assert codes(src) == ["RPR201"]

    def test_global_statement_flagged(self):
        src = """
        COUNT = 0

        class Leaky(Automaton):
            def step(self, state, observation):
                global COUNT
                COUNT += 1
                return state
        """
        assert codes(src) == ["RPR201"]

    def test_sys_stdout_flagged(self):
        src = """
        import sys

        class Leaky(Automaton):
            def step(self, state, observation):
                sys.stdout.write("x")
                return state
        """
        assert codes(src) == ["RPR201"]

    def test_pure_step_clean(self):
        src = """
        class Pure(Automaton):
            def step(self, state, observation):
                return state.advance(observation)
        """
        assert codes(src) == []

    def test_non_automaton_class_clean(self):
        src = """
        class Reporter:
            def step(self, state):
                print(state)
        """
        assert codes(src) == []

    def test_transitive_subclass_flagged(self):
        src = """
        class Base(Automaton):
            pass

        class Leaf(Base):
            def step(self, state, observation):
                print(state)
                return state
        """
        assert codes(src) == ["RPR201"]


class TestGuardedInstrumentation:
    def test_unguarded_metrics_flagged(self):
        src = """
        from repro import obs

        def step():
            obs.metrics().inc("kernel.steps")
        """
        assert codes(src) == ["RPR301"]

    def test_guard_by_if_clean(self):
        src = """
        from repro import obs

        def step():
            if obs._ENABLED:
                obs.metrics().inc("kernel.steps")
        """
        assert codes(src) == []

    def test_early_bailout_clean(self):
        src = """
        from repro import obs as _obs

        def step():
            if not _obs._ENABLED:
                return
            _obs.tracer().event("step")
        """
        assert codes(src) == []

    def test_obs_package_itself_exempt(self):
        src = """
        from repro import obs

        def flush():
            obs.metrics().snapshot()
        """
        assert codes(src, module="repro.obs.export") == []

    def test_outside_repro_clean(self):
        src = """
        from repro import obs

        def report():
            obs.metrics().snapshot()
        """
        assert codes(src, module=TESTS) == []

    def test_store_module_unguarded_flagged(self):
        # The result store grew store.hit/miss/digest counters; RPR301
        # must police that module like any other repro.* package.
        src = """
        from repro import obs as _obs

        def key_for(fn, kwargs):
            _obs.metrics().inc("store.digest")
        """
        assert codes(src, module="repro.store.store") == ["RPR301"]

    def test_store_module_guarded_clean(self):
        src = """
        from repro import obs as _obs

        def key_for(fn, kwargs):
            if _obs._ENABLED:
                _obs.metrics().inc("store.digest")
        """
        assert codes(src, module="repro.store.store") == []

    def test_spec_module_unguarded_flagged(self):
        # Sweep specs root the trace path tree with a sweep.spec span.
        src = """
        from repro import obs as _obs

        def run(self):
            with _obs.tracer().span("sweep.spec"):
                pass
        """
        assert codes(src, module="repro.harness.spec") == ["RPR301"]

    def test_spec_module_guarded_clean(self):
        src = """
        from repro import obs as _obs

        def run(self):
            if _obs._ENABLED:
                with _obs.tracer().span("sweep.spec"):
                    return 1
            return 1
        """
        assert codes(src, module="repro.harness.spec") == []

    def test_conditional_expression_guard_clean(self):
        # The `x if _obs._ENABLED else None` idiom used by the sweep
        # driver's store path counts as a guard.
        src = """
        from repro import obs as _obs

        def lookup():
            tracer = _obs.tracer() if _obs._ENABLED else None
            return tracer
        """
        assert codes(src, module="repro.harness.parallel") == []


class TestRegistry:
    EIGHT = [
        "RPR101",
        "RPR102",
        "RPR103",
        "RPR104",
        "RPR201",
        "RPR301",
        "RPR401",
        "RPR501",
    ]

    def test_all_eight_codes_registered(self):
        from repro.lint.registry import all_rules

        assert [rule.code for rule in all_rules()] == self.EIGHT

    def test_known_codes_include_whole_program_families(self):
        from repro.lint.registry import known_codes

        codes = known_codes()
        assert codes == self.EIGHT
        assert {"RPR401", "RPR501"} <= set(codes)

    def test_flow_companions_share_single_file_codes(self):
        # The cross-module legs of RPR101/102/103/201 live in the same class
        # as their direct sites: one class per code, no "-flow" companion,
        # and a second class for a taken code is refused.
        from repro.lint.registry import Rule, all_rules, register

        rules = all_rules()
        assert len({type(rule) for rule in rules}) == len(rules) == 8
        assert not [rule.name for rule in rules if rule.name.endswith("-flow")]

        class Again(Rule):
            code = "RPR101"

        with pytest.raises(ValueError):
            register(Again)

    def test_rules_sorted_by_code(self):
        from repro.lint.registry import all_rules

        rule_codes = [rule.code for rule in all_rules()]
        assert rule_codes == sorted(rule_codes)


class TestBatchModuleScope:
    """The fused lane sits inside the determinism rules' scope: RPR101 is
    global, RPR102-RPR104 cover it through the ``repro.kernel`` prefix."""

    BATCH_MODULES = ("repro.kernel.batch",)

    def test_determinism_rules_apply_to_batch_modules(self):
        from repro.lint.registry import all_rules

        determinism = [
            r for r in all_rules() if r.code in
            ("RPR101", "RPR102", "RPR103", "RPR104")
        ]
        assert len(determinism) == 4
        for module in self.BATCH_MODULES:
            for rule in determinism:
                assert rule.applies_to(module), (rule.code, module)

    def test_scoped_rule_fires_inside_batch_modules(self):
        src = """
        import time
        t = time.time()
        """
        for module in self.BATCH_MODULES:
            assert codes(src, module=module) == ["RPR102"]
        assert codes(src, module=TESTS) == []
