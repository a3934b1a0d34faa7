#!/usr/bin/env python3
"""Unit tests for the pqs_lint analyzer passes: tokenizer, symbol tables,
call graph, flow rules, incremental cache, and the revert guard that
proves the event-lifetime rule would catch re-introducing the PR 4/5
dangling-event bugs. Run as the pqs_lint_unittests ctest."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cache as cache_mod  # noqa: E402
import callgraph  # noqa: E402
import cpplex  # noqa: E402
import flowrules  # noqa: E402
import linerules  # noqa: E402
import pqs_lint  # noqa: E402
import symtab  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def model(text, path="src/x.cpp"):
    return symtab.build_model(path, text)


def graph(*texts_and_paths):
    models = [model(t, p) for t, p in texts_and_paths]
    return callgraph.CallGraph(models)


def fn_by_name(m, name):
    for fn in m["functions"]:
        if fn["name"] == name:
            return fn
    raise AssertionError("no function %r in %s" % (name, m["path"]))


class TokenizerTest(unittest.TestCase):
    def kinds(self, text):
        return [(t.kind, t.text) for t in cpplex.tokenize(text)]

    def test_raw_string_is_one_token(self):
        toks = cpplex.tokenize('auto s = R"x({ not code } ")x";')
        strs = [t for t in toks if t.kind == cpplex.STR]
        self.assertEqual(len(strs), 1)
        self.assertIn("not code", strs[0].text)
        # The braces inside the raw string must not appear as punct.
        braces = [t for t in toks if t.text in ("{", "}")]
        self.assertEqual(braces, [])

    def test_template_punctuation_survives(self):
        toks = cpplex.code_tokens(cpplex.tokenize(
            "std::vector<std::pair<int, int>> v;"))
        texts = [t.text for t in toks]
        self.assertIn("vector", texts)
        self.assertIn("::", texts)
        self.assertIn(">>", texts)  # kept whole; skip_angles handles it

    def test_nested_lambdas_keep_line_numbers(self):
        text = "void f() {\n  g([] {\n    h([] {\n      i();\n    });\n  });\n}\n"
        toks = cpplex.tokenize(text)
        i_call = [t for t in toks if t.text == "i"][0]
        self.assertEqual(i_call.line, 4)

    def test_pp_directive_with_continuation_folds(self):
        text = "#define M(a) \\\n    ((a) + 1)\nint x;\n"
        toks = cpplex.tokenize(text)
        pps = [t for t in toks if t.kind == cpplex.PP]
        self.assertEqual(len(pps), 1)
        self.assertIn("+ 1", pps[0].text)
        # The macro body must not leak parens into the code stream.
        self.assertEqual([t.text for t in cpplex.code_tokens(toks)],
                         ["int", "x", ";"])

    def test_mid_line_hash_is_not_a_directive(self):
        toks = cpplex.tokenize("int a = 1 # 2;\nint b;\n")
        self.assertEqual([t.kind for t in toks if t.text == "#"],
                         [cpplex.PUNCT])

    def test_comments_keep_lines(self):
        text = "// one\n/* two\nthree */\nint x;\n"
        comments = [t for t in cpplex.tokenize(text)
                    if t.kind == cpplex.COMMENT]
        self.assertEqual([c.line for c in comments], [1, 2])


class SymtabTest(unittest.TestCase):
    def test_member_schedule_and_dtor_cancel(self):
        m = model("""
            class R {
            public:
                ~R() { stop(); }
                void arm() { timer_ = sim_.schedule_in(1, cb); }
                void stop() { sim_.cancel(timer_); }
            private:
                Sim& sim_;
                sim::EventId timer_ = 0;
            };
        """)
        arm = fn_by_name(m, "arm")
        self.assertEqual(arm["schedules"][0]["kind"], "member")
        self.assertEqual(arm["schedules"][0]["target"], "timer_")
        stop = fn_by_name(m, "stop")
        self.assertTrue(stop["has_cancel"])
        self.assertIn("timer_", stop["cancel_idents"])
        self.assertIn("timer_", m["classes"]["R"]["event_fields"])
        self.assertTrue(m["classes"]["R"]["has_dtor"])

    def test_discard_local_and_fire_forget(self):
        m = model("""
            void a(Sim& s) { s.schedule_in(1, cb); }
            void b(Sim& s) { auto id = s.schedule_in(1, cb); s.cancel(id); }
            void c(Sim& s) {
                // pqs-lint: fire-and-forget(justified reason here)
                s.schedule_in(1, cb);
            }
        """)
        self.assertEqual(fn_by_name(m, "a")["schedules"][0]["kind"],
                         "discard")
        sb = fn_by_name(m, "b")["schedules"][0]
        self.assertEqual(sb["kind"], "local")
        self.assertEqual(sb["target"], "id")
        sc = fn_by_name(m, "c")["schedules"][0]
        self.assertTrue(sc["ff"])
        self.assertIn("justified", sc["ff_why"])

    def test_wrapped_fire_forget_justification(self):
        m = model("""
            void c(Sim& s) {
                // pqs-lint: fire-and-forget(a justification long enough
                // to wrap onto a continuation comment line)
                s.schedule_in(1, cb);
            }
        """)
        sc = fn_by_name(m, "c")["schedules"][0]
        self.assertTrue(sc["ff"])
        self.assertTrue(sc["ff_why"])

    def test_guarded_by_field_and_requires(self):
        m = model("""
            class C {
                void locked() PQS_REQUIRES(mu_) { ++n_; }
                std::mutex mu_;
                long n_ PQS_GUARDED_BY(mu_) = 0;
            };
            std::ostream* g_sink PQS_GUARDED_BY(g_mu) = nullptr;
        """)
        self.assertEqual(m["classes"]["C"]["guarded"], {"n_": "mu_"})
        self.assertEqual(fn_by_name(m, "locked")["requires"], ["mu_"])
        self.assertEqual(m["globals"]["g_sink"]["guarded_by"], "g_mu")

    def test_lock_scope_tracking(self):
        m = model("""
            class C {
                void f() {
                    ++a_;
                    { std::lock_guard<std::mutex> lk(mu_); ++b_; }
                    ++c_;
                }
                std::mutex mu_;
                long a_ = 0, b_ = 0, c_ = 0;
            };
        """)
        uses = {name: held for name, _line, held
                in fn_by_name(m, "f")["member_uses"]}
        self.assertEqual(uses["a_"], [])
        self.assertIn("mu_", uses["b_"])
        self.assertEqual(uses["c_"], [])

    def test_std_qualified_calls_are_not_project_calls(self):
        m = model("void f() { std::visit(v, x); helper(); }")
        names = [c[0] for c in fn_by_name(m, "f")["calls"]]
        self.assertNotIn("visit", names)
        self.assertIn("helper", names)


class CallGraphTest(unittest.TestCase):
    def test_cross_tu_same_class_resolution(self):
        g = graph(
            ("class A { void stop(); void go(); };", "src/a.h"),
            ("void A::go() { stop(); }\nvoid A::stop() {}", "src/a.cpp"),
            ("class B { void stop() {} };", "src/b.h"))
        go = [nid for nid, (_f, fn) in enumerate(g.nodes)
              if fn["qname"] == "A::go"][0]
        targets = {g.fn(t)["qname"] for t in g.callees(go)}
        self.assertEqual(targets, {"A::stop"})

    def test_generic_stl_names_do_not_alias(self):
        g = graph(
            ("class Grid { public: void insert(int); };", "src/grid.h"),
            ("void route(Table& t) { t.insert(1); }", "src/route.cpp"))
        route = [nid for nid, (_f, fn) in enumerate(g.nodes)
                 if fn["name"] == "route"][0]
        self.assertEqual(g.callees(route), {})

    def test_reachable_depth_and_chain(self):
        g = graph(("""
            void a() { b(); }
            void b() { c(); }
            void c() {}
        """, "src/x.cpp"))
        a = [nid for nid, (_f, fn) in enumerate(g.nodes)
             if fn["name"] == "a"][0]
        seen = g.reachable(a, 1)
        self.assertEqual({g.fn(n)["name"] for n in seen}, {"a", "b"})
        seen = g.reachable(a, 5)
        c = [n for n in seen if g.fn(n)["name"] == "c"][0]
        self.assertEqual([h["function"] for h in g.chain(seen, c)],
                         ["a", "b", "c"])

    def test_class_info_merges_across_files(self):
        g = graph(
            ("class R { sim::EventId t_; ~R(); };", "src/r.h"),
            ("R::~R() {}", "src/r.cpp"))
        self.assertTrue(g.classes["R"]["has_dtor"])
        self.assertIn("t_", g.classes["R"]["event_fields"])


class FlowRuleTest(unittest.TestCase):
    def findings(self, text, rule, path="src/x.cpp"):
        g = graph((text, path))
        checks = {
            flowrules.RULE_EVENT_LIFETIME: flowrules.check_event_lifetime,
            flowrules.RULE_TRANSITIVE_HOT:
                flowrules.check_transitive_hot_alloc,
            flowrules.RULE_TRANSITIVE_RANDOM:
                flowrules.check_transitive_raw_random,
            flowrules.RULE_GUARDED_BY: flowrules.check_guarded_by,
        }
        return checks[rule](g, lambda p: True)

    def test_event_lifetime_requires_justification_text(self):
        found = self.findings("""
            void f(Sim& s) {
                // pqs-lint: fire-and-forget
                s.schedule_in(1, cb);
            }
        """, flowrules.RULE_EVENT_LIFETIME)
        self.assertEqual(len(found), 1)
        self.assertIn("justification", found[0]["message"])

    def test_transitive_hot_alloc_reports_chain(self):
        found = self.findings("""
            #include <vector>
            std::vector<int> helper() { std::vector<int> v; return v; }
            // pqs-hot
            void hot() { helper(); }
        """, flowrules.RULE_TRANSITIVE_HOT)
        self.assertEqual(len(found), 1)
        self.assertEqual([h["function"] for h in found[0]["chain"]],
                         ["hot", "helper"])

    def test_transitive_hot_alloc_sees_templated_factories(self):
        for factory in ("make_unique", "make_shared"):
            found = self.findings("""
                #include <memory>
                void helper() { auto p = std::%s<int>(1); }
                // pqs-hot
                void hot() { helper(); }
            """ % factory, flowrules.RULE_TRANSITIVE_HOT)
            self.assertEqual(len(found), 1, factory)
            self.assertIn("std::" + factory, found[0]["message"])

    def test_transitive_random_chain(self):
        found = self.findings("""
            int leak() { return std::rand(); }
            void trial() { leak(); }
        """, flowrules.RULE_TRANSITIVE_RANDOM)
        self.assertEqual(len(found), 1)
        self.assertIn("rand", found[0]["message"])

    def test_rng_util_is_exempt(self):
        found = self.findings(
            "int seed_entropy() { return std::rand(); }\n"
            "void trial() { seed_entropy(); }\n",
            flowrules.RULE_TRANSITIVE_RANDOM, path="src/util/rng.cpp")
        self.assertEqual(found, [])

    def test_guarded_by_ctor_exempt(self):
        found = self.findings("""
            class C {
                C() { n_ = 0; }
                void bad() { ++n_; }
                std::mutex mu_;
                long n_ PQS_GUARDED_BY(mu_) = 0;
            };
        """, flowrules.RULE_GUARDED_BY)
        self.assertEqual(len(found), 1)
        self.assertIn("C::bad", found[0]["message"])


class RevertGuardTest(unittest.TestCase):
    """Deliberately re-introduce the PR 4/5 dangling-event bugs on the
    real tree sources and prove event-lifetime catches each one."""

    def event_findings(self, files):
        models = [symtab.build_model(rel, text) for rel, text in files]
        g = callgraph.CallGraph(models)
        return flowrules.check_event_lifetime(g, lambda p: True)

    def read(self, rel):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            return f.read()

    def test_intact_tree_is_clean(self):
        files = [(rel, self.read(rel)) for rel in (
            "src/core/maintenance.h", "src/core/maintenance.cpp",
            "src/sim/fault_plan.h", "src/sim/fault_plan.cpp")]
        self.assertEqual(self.event_findings(files), [])

    def test_removing_refresher_cancel_loop_is_caught(self):
        cpp = self.read("src/core/maintenance.cpp")
        needle = ("    for (const auto& [node, id] : timers_) {\n"
                  "        simulator.cancel(id);\n    }\n")
        self.assertIn(needle, cpp)  # keep in sync with maintenance.cpp
        found = self.event_findings([
            ("src/core/maintenance.h", self.read("src/core/maintenance.h")),
            ("src/core/maintenance.cpp", cpp.replace(needle, ""))])
        self.assertTrue(any(f["rule"] == flowrules.RULE_EVENT_LIFETIME
                            and "timers_" in f["message"] for f in found))

    def test_removing_csma_dtor_is_caught(self):
        h = self.read("src/mac/csma_mac.h")
        self.assertIn("~CsmaMac() { shutdown(); }", h)
        found = self.event_findings([
            ("src/mac/csma_mac.h",
             h.replace("~CsmaMac() { shutdown(); }", "")),
            ("src/mac/csma_mac.cpp", self.read("src/mac/csma_mac.cpp"))])
        self.assertTrue(any("ack_timer_" in f["message"] for f in found))


class HotPathLibmTest(unittest.TestCase):
    """hot-path-libm: no libm range test or propagation law inside a
    // pqs-hot body, on fixtures and on the real per-reception paths."""

    def libm_lines(self, text, path="src/x.cpp"):
        found = linerules.run_line_rules(path, linerules.Prep(text))
        return [f["line"] for f in found
                if f["rule"] == linerules.RULE_HOT_LIBM]

    def read(self, rel):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            return f.read()

    def test_flags_each_libm_spelling_only_in_hot_bodies(self):
        text = "\n".join([
            "double cold(Vec2 a, Vec2 b) { return geom::distance(a, b); }",
            "// pqs-hot",
            "void hot(Vec2 a, Vec2 b, It i, It j) {",
            "    x = geom::distance(a, b);",
            "    x = std::hypot(a.x, a.y) + std::pow(x, 4.0);",
            "    x = std::exp(x) + std::log1p(x) + (a - b).norm();",
            "    x = torus_distance(a, b, 1.0) + distance(a, b);",
            "    x = geom::distance_sq(a, b) + (a - b).norm_sq();",
            "    n = std::distance(i, j) + std::exp2(x);",
            "    // std::hypot in a comment is not a call",
            "    y = \"std::pow(\";",
            "}",
            "double after(Vec2 a) { return a.norm(); }",
        ])
        self.assertEqual(self.libm_lines(text), [4, 5, 5, 6, 6, 6, 7, 7])

    def test_allow_comment_suppresses(self):
        text = ("// pqs-hot\nvoid hot() {\n"
                "    d = torus_distance(a, b, s);"
                "  // pqs-lint: allow(hot-path-libm)\n}\n")
        self.assertEqual(self.libm_lines(text), [])

    def test_real_hot_paths_are_clean(self):
        for rel in ("src/net/abstract_network.cpp", "src/net/world.cpp",
                    "src/geom/spatial_grid.cpp", "src/phy/channel.cpp"):
            self.assertEqual(self.libm_lines(self.read(rel), rel), [], rel)

    def test_distance_back_in_broadcast_is_caught(self):
        rel = "src/net/abstract_network.cpp"
        cpp = self.read(rel)
        needle = "geom::in_range(at, world_.position(to), world_.range())"
        self.assertIn(needle, cpp)  # keep in sync with AbstractLink
        reverted = cpp.replace(
            needle, "geom::distance(at, world_.position(to)) <= "
                    "world_.range()")
        lines = self.libm_lines(reverted, rel)
        self.assertEqual(len(lines), 1)
        self.assertIn("geom::distance", reverted.split("\n")[lines[0] - 1])


class CacheTest(unittest.TestCase):
    def test_hit_miss_and_content_invalidation(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.json")
            c = cache_mod.LintCache(path)
            h1 = cache_mod.content_hash("int x;")
            self.assertIsNone(c.get("src/a.cpp", h1))
            c.put("src/a.cpp", h1, {"path": "src/a.cpp"}, [])
            c.save()

            warm = cache_mod.LintCache(path)
            self.assertIsNotNone(warm.get("src/a.cpp", h1))
            self.assertEqual(warm.hits, 1)
            # Content change -> miss.
            h2 = cache_mod.content_hash("int y;")
            self.assertIsNone(warm.get("src/a.cpp", h2))

    def test_tool_hash_change_invalidates_everything(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.json")
            c = cache_mod.LintCache(path)
            h = cache_mod.content_hash("int x;")
            c.put("src/a.cpp", h, {}, [])
            c.save()
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            data["tool"] = "stale"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(data, f)
            self.assertIsNone(cache_mod.LintCache(path).get("src/a.cpp", h))

    def test_corrupt_cache_is_discarded(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write("{ not json")
            c = cache_mod.LintCache(path)
            self.assertEqual(c.entries, {})

    def test_warm_run_parses_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache_path = os.path.join(tmp, "cache.json")
            os.makedirs(os.path.join(tmp, "repo", "src"))
            src = os.path.join(tmp, "repo", "src", "a.cpp")
            with open(src, "w", encoding="utf-8") as f:
                f.write("void f() {}\n")
            root = os.path.join(tmp, "repo")

            def one_run():
                c = cache_mod.LintCache(cache_path)
                timings = {}
                _v, stats = pqs_lint.run(root, ["src/a.cpp"], [], c,
                                         timings)
                c.save()
                return stats

            cold = one_run()
            self.assertEqual((cold["parsed"], cold["cached"]), (1, 0))
            warm = one_run()
            self.assertEqual((warm["parsed"], warm["cached"]), (0, 1))


class BaselineTest(unittest.TestCase):
    def test_match_and_mandatory_why(self):
        v = pqs_lint.Violation("src/a.cpp", 3, "raw-random", "uses rand()")
        self.assertTrue(pqs_lint.baseline_match(
            {"rule": "raw-random", "file": "src/a.cpp",
             "contains": "rand", "why": "legacy"}, v))
        self.assertFalse(pqs_lint.baseline_match(
            {"rule": "raw-random", "file": "src/b.cpp", "why": "x"}, v))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump([{"rule": "raw-random", "file": "src/a.cpp"}], f)
            with self.assertRaises(SystemExit):
                pqs_lint.load_baseline(path)


if __name__ == "__main__":
    unittest.main()
