"""Independence relation + diamond validation (repro.verify.independence)."""

from repro.specs import system_binary_search as bs
from repro.specs import system_s1, system_token
from repro.specs.modelcheck import (bound_data, bound_requests, bound_visits)
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext
from repro.verify.independence import (CONDITIONAL, INDEPENDENT,
                                       IndependenceRelation,
                                       instance_footprint, may_equal,
                                       validate_relation)
from repro.trs.terms import Atom, Seq, Struct, Var, Wildcard


def _bs_bounded(n=3, nodes=(1,)):
    rules = bs.make_rules(n, restricted=True)
    rules = bound_data(rules, 1, nodes=nodes)
    rules = bound_requests(rules, "5")
    return bound_visits(rules, 5, "4")


class TestMayEqual:
    def test_wildcards_and_vars_are_wild(self):
        assert may_equal(Wildcard(), Atom(3))
        assert may_equal(Var("x"), Struct("f", (Atom(1),)))

    def test_ground_terms_compare_structurally(self):
        assert may_equal(Struct("f", (Atom(1),)), Struct("f", (Atom(1),)))
        assert not may_equal(Struct("f", (Atom(1),)), Struct("f", (Atom(2),)))
        assert not may_equal(Struct("f", (Atom(1),)), Struct("g", (Atom(1),)))

    def test_nested_wildcard_inside_struct(self):
        # The soundness case: consumed patterns retain wildcards, e.g.
        # ``p(0, _)`` must be allowed to overlap with ``p(0, h)``.
        a = Struct("p", (Atom(0), Wildcard()))
        b = Struct("p", (Atom(0), Seq((Atom(1),))))
        assert may_equal(a, b)

    def test_seq_lengths_discriminate(self):
        assert not may_equal(Seq((Atom(1),)), Seq((Atom(1), Atom(2))))


class TestStaticClassification:
    def test_summary_counts_are_consistent(self):
        rules = _bs_bounded()
        relation = IndependenceRelation(rules)
        summary = relation.summary()
        assert summary["pairs"] == summary["independent"] + summary["conditional"]
        rule_count = summary["rules"]
        assert summary["pairs"] == rule_count * (rule_count + 1) // 2

    def test_same_bag_consumers_conflict(self):
        # Token rules 1 and 2 both consume from the Q/P request bags.
        rules = bound_data(system_token.make_rules(3, ring=True), 1)
        relation = IndependenceRelation(rules)
        assert relation.pair("1", "2")["status"] == CONDITIONAL

    def test_to_dict_is_sorted_and_complete(self):
        rules = _bs_bounded()
        d = IndependenceRelation(rules).to_dict()
        assert d["rules"] == sorted(d["rules"])
        assert len(d["pairs"]) == len(d["rules"]) * (len(d["rules"]) + 1) // 2
        assert all(v["status"] in (INDEPENDENT, CONDITIONAL)
                   for v in d["pairs"].values())

    def test_opaque_rules_reported_ambiguous(self):
        rules = _bs_bounded()
        ambiguous = IndependenceRelation(rules).ambiguous_rules()
        assert "1" in ambiguous            # next_nonce bulk read
        assert "where-clause" in ambiguous["1"]


class TestInstanceRefinement:
    def test_distinct_nodes_commute_same_node_conflicts(self):
        rules = bound_data(system_s1.make_rules(restricted=True), 2)
        relation = IndependenceRelation(rules)
        rewriter = Rewriter(rules, RuleContext())
        # Advance past the initial state: rule 2's restricted guard needs
        # pending data, so queue a datum at node 0 first.
        state = system_s1.initial_state(3)
        for rule, binding in rewriter.instantiations(state):
            if rule.name == "1" and binding["x"].value == 0:
                state = rewriter.apply(state, rule, binding)
                break
        insts = {}
        for rule, binding in rewriter.instantiations(state):
            if rule.name not in ("1", "2"):   # rule 3 binds y, not x
                continue
            inst = instance_footprint(relation.footprints[rule.name], binding)
            insts.setdefault((rule.name, binding["x"].value), inst)
        one_at_0 = insts[("1", 0)]
        one_at_1 = insts[("1", 1)]
        two_at_0 = insts[("2", 0)]
        assert relation.instances_independent(one_at_0, one_at_1)
        assert not relation.instances_independent(one_at_0, two_at_0)

    def test_key_identifies_transition_not_partition(self):
        rules = bound_data(system_token.make_rules(3, ring=True), 1)
        relation = IndependenceRelation(rules)
        rewriter = Rewriter(rules, RuleContext())
        state = system_token.initial_state(3)
        keys = {}
        for rule, binding in rewriter.instantiations(state):
            inst = instance_footprint(relation.footprints[rule.name], binding)
            keys.setdefault(inst.key, 0)
            keys[inst.key] += 1
        assert keys, "initial state must enable something"
        # Every key binds the rule's identifying variables, never a rest.
        for key in keys:
            assert all(name not in ("Q", "P", "I", "O", "W")
                       for name, _ in key[1:])


class TestDiamondValidation:
    def test_relation_validates_clean_on_all_chain_systems(self):
        cases = [
            (bound_data(system_s1.make_rules(restricted=True), 1),
             system_s1.initial_state(3)),
            (bound_data(system_token.make_rules(3, ring=True), 1),
             system_token.initial_state(3)),
            (_bs_bounded(), bs.initial_state(3)),
        ]
        for rules, initial in cases:
            rewriter = Rewriter(rules, RuleContext())
            relation = IndependenceRelation(rules)
            violations, checks = validate_relation(rewriter, relation, initial)
            assert checks > 0
            assert violations == []

    def test_canary_wrong_relation_is_caught(self):
        # Force rules 4 (token moves on, T := ⊥) and 7 (trap fires, needs
        # T = x) independent: rule 4 disables rule 7, so the diamond
        # validator must object.  This is the machine-check that a wrong
        # independence relation cannot silently reach the DPOR layer.
        rules = _bs_bounded()
        rewriter = Rewriter(rules, RuleContext())
        wrong = IndependenceRelation(rules, overrides={("4", "7"): True})
        violations, _ = validate_relation(
            rewriter, wrong, bs.initial_state(3))
        assert violations, "deliberately wrong relation must be rejected"
        assert any({v["rule_a"], v["rule_b"]} == {"4", "7"}
                   for v in violations)

    def test_override_forces_dependence_too(self):
        rules = bound_data(system_s1.make_rules(restricted=True), 1)
        relation = IndependenceRelation(
            rules, overrides={("1", "1"): False})
        rewriter = Rewriter(rules, RuleContext())
        state = system_s1.initial_state(3)
        insts = []
        for rule, binding in rewriter.instantiations(state):
            if rule.name == "1":
                insts.append(instance_footprint(
                    relation.footprints["1"], binding))
        assert not relation.instances_independent(insts[0], insts[1])

    def test_footprints_come_from_the_relation(self, monkeypatch):
        # A rule set allocated where a freed one lived shares its id(); a
        # footprint cache keyed by id() handed it the dead rule set's
        # footprints (false diamond violations, KeyError on rule names).
        # Plant such a stale entry: validation must not read it.
        from repro.verify import independence
        from repro.verify.footprint import footprints

        rules = bound_data(system_token.make_rules(3, ring=True), 1)
        rewriter = Rewriter(rules, RuleContext())
        relation = IndependenceRelation(rules)
        initial = system_token.initial_state(3)
        clean = validate_relation(rewriter, relation, initial)
        assert clean[0] == [] and clean[1] > 0
        monkeypatch.setattr(independence, "_FP_CACHE",
                            {id(rules): footprints(_bs_bounded())},
                            raising=False)
        assert validate_relation(rewriter, relation, initial) == clean
