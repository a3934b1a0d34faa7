#!/usr/bin/env python3
"""pqs_lint — project-specific flow-aware static analysis for the pqs
simulator.

Generic tools (clang-tidy, sanitizers) cannot express the repo's own
correctness contracts, so this checker enforces them statically. It runs
in passes:

  1. tokenize       cpplex.py — comment/raw-string/pp-safe token stream
  2. symbol tables  symtab.py — per-file functions, classes, fields,
                    schedule/cancel/alloc/entropy/lock facts
  3. call graph     callgraph.py — cross-TU, name-based, over-approximate
  4. rules          linerules.py (the per-file rules from PR 2-6) and
                    flowrules.py (the flow-aware rules), reported with
                    call-chain traces where a chain explains the finding

Line rules: held-ref-across-send, raw-random, unordered-output,
raw-stdout, dangling-schedule-capture, raw-timestamp, hot-path-alloc,
hot-path-libm.

Flow rules: event-lifetime (every armed EventId must be cancelled on its
owner's destructor path or annotated fire-and-forget), transitive
hot-path-alloc, transitive-raw-random, guarded-by (PQS_GUARDED_BY /
PQS_REQUIRES thread-safety annotations).

Scanning covers src/, bench/, and tools/ (tests/ is parsed into the call
graph but only reported on request); raw-stdout and raw-timestamp stay
src/-scoped by design. Suppression: `// pqs-lint: allow(<rule>)` on the
line, `// pqs-lint: fire-and-forget(<why>)` on a schedule call, or a
justified entry in tools/pqs_lint/baseline.json.

Per-file work (tokenize + parse + line rules) is cached by content hash
(--cache-file); flow rules re-run over the cached models, so a no-change
rerun touches no file twice.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cache as cache_mod          # noqa: E402
import callgraph                   # noqa: E402
import flowrules                   # noqa: E402
import linerules                   # noqa: E402
import symtab                      # noqa: E402

from linerules import LINE_RULES   # noqa: E402
from flowrules import FLOW_RULES   # noqa: E402

ALL_RULES = LINE_RULES + FLOW_RULES

# Soft per-rule wall-time budget for the ctest gate (1-core container);
# overruns are reported on stderr so regressions are visible in CI logs.
RULE_BUDGET_MS = 2000.0

SCAN_DIRS = ("src", "bench", "tools")
GRAPH_ONLY_DIRS = ("tests",)
CPP_EXTS = (".h", ".cpp", ".hpp", ".cc")


class Violation:
    def __init__(self, path, line, rule, message, chain=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.chain = chain

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def to_json(self):
        out = {"file": self.path.replace(os.sep, "/"), "line": self.line,
               "rule": self.rule, "message": self.message}
        if self.chain:
            out["chain"] = self.chain
        return out


def collect_default_files(root):
    """(scan files, graph-only files), both as root-relative paths."""
    scan, graph_only = [], []
    for top, sink in ((SCAN_DIRS, scan), (GRAPH_ONLY_DIRS, graph_only)):
        for d in top:
            base_dir = os.path.join(root, d)
            for base, dirs, names in os.walk(base_dir):
                # Fixtures contain deliberate violations and must not
                # pollute the project call graph.
                dirs[:] = [x for x in sorted(dirs)
                           if x != "lint_fixtures"]
                for name in sorted(names):
                    if name.endswith(CPP_EXTS):
                        sink.append(os.path.relpath(
                            os.path.join(base, name), root))
    return scan, graph_only


def load_baseline(path):
    """Baseline entries: [{rule, file, contains?, why}]. `why` is
    mandatory — an unexplained suppression is itself an error."""
    if not path or not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    for i, e in enumerate(entries):
        for key in ("rule", "file", "why"):
            if not e.get(key):
                raise SystemExit(
                    "pqs_lint: baseline entry %d lacks required key '%s'"
                    % (i, key))
    return entries


def baseline_match(entry, v):
    if entry["rule"] != v.rule:
        return False
    if entry["file"] != v.path.replace(os.sep, "/"):
        return False
    contains = entry.get("contains")
    return not contains or contains in v.message


class FileRecord:
    __slots__ = ("rel", "norm", "model", "line_findings", "allows",
                 "scanned")

    def __init__(self, rel, norm, model, line_findings, allows, scanned):
        self.rel = rel
        self.norm = norm
        self.model = model
        self.line_findings = line_findings
        self.allows = allows
        self.scanned = scanned


def process_file(root, rel, scanned, cache, timings_ms, stats):
    """Loads one file, via cache when possible. Returns a FileRecord."""
    path = os.path.join(root, rel)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    norm = rel.replace(os.sep, "/")
    # Allow lines are re-parsed every run (cheap) so flow-rule findings
    # can honour them even on cache hits.
    allows = linerules.parse_allows(text.split("\n"))

    h = cache_mod.content_hash(text) if cache else None
    if cache:
        entry = cache.get(norm, h)
        if entry is not None and (not scanned
                                  or entry["line_findings"] is not None):
            stats["cached"] += 1
            return FileRecord(rel, norm, entry["model"],
                              entry["line_findings"] or [], allows,
                              scanned)

    stats["parsed"] += 1
    line_findings = None
    if scanned:
        prep = linerules.Prep(text)
        line_findings = linerules.run_line_rules(norm, prep, timings_ms)
    t0 = time.monotonic()
    model = symtab.build_model(norm, text)
    timings_ms["symtab"] = timings_ms.get("symtab", 0.0) + \
        (time.monotonic() - t0) * 1e3
    if cache:
        cache.put(norm, h, model, line_findings)
    return FileRecord(rel, norm, model, line_findings or [], allows,
                      scanned)


def run(root, scan_rels, graph_rels, cache, timings_ms):
    """Full analysis. Returns (violations, stats)."""
    stats = {"parsed": 0, "cached": 0,
             "files_scanned": len(scan_rels),
             "files_graph_only": len(graph_rels)}

    records = []
    for rel in scan_rels:
        records.append(process_file(root, rel, True, cache, timings_ms,
                                    stats))
    for rel in graph_rels:
        records.append(process_file(root, rel, False, cache, timings_ms,
                                    stats))

    violations = []
    allows_by_file = {}
    scan_set = set()
    for rec in records:
        allows_by_file[rec.norm] = rec.allows
        if rec.scanned:
            scan_set.add(rec.norm)
            for f in rec.line_findings:
                violations.append(Violation(rec.rel, f["line"], f["rule"],
                                            f["message"]))

    # Flow rules over the whole-project call graph.
    t0 = time.monotonic()
    graph = callgraph.CallGraph([rec.model for rec in records])
    timings_ms["callgraph"] = (time.monotonic() - t0) * 1e3

    def in_scope(path):
        return path in scan_set

    flow_checks = (
        (flowrules.RULE_EVENT_LIFETIME, flowrules.check_event_lifetime),
        (flowrules.RULE_TRANSITIVE_HOT,
         flowrules.check_transitive_hot_alloc),
        (flowrules.RULE_TRANSITIVE_RANDOM,
         flowrules.check_transitive_raw_random),
        (flowrules.RULE_GUARDED_BY, flowrules.check_guarded_by),
    )
    for rule, check in flow_checks:
        t0 = time.monotonic()
        for f in check(graph, in_scope):
            allowed = f["rule"] in allows_by_file.get(
                f["file"], {}).get(f["line"] - 1, ())
            if allowed:
                continue
            violations.append(Violation(f["file"], f["line"], f["rule"],
                                        f["message"], f.get("chain")))
        timings_ms[rule] = timings_ms.get(rule, 0.0) + \
            (time.monotonic() - t0) * 1e3

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations, stats


def lint_one(path, rel):
    """Lints one file standalone (line + flow rules, single-file call
    graph). Used by the fixture harness."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    norm = rel.replace(os.sep, "/")
    allows = linerules.parse_allows(text.split("\n"))
    prep = linerules.Prep(text)
    violations = [Violation(rel, f["line"], f["rule"], f["message"])
                  for f in linerules.run_line_rules(norm, prep)]
    model = symtab.build_model(norm, text)
    graph = callgraph.CallGraph([model])
    for _rule, check in (
            ("", flowrules.check_event_lifetime),
            ("", flowrules.check_transitive_hot_alloc),
            ("", flowrules.check_transitive_raw_random),
            ("", flowrules.check_guarded_by)):
        for f in check(graph, lambda p: True):
            if f["rule"] in allows.get(f["line"] - 1, ()):
                continue
            violations.append(Violation(f["file"], f["line"], f["rule"],
                                        f["message"], f.get("chain")))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def lint_file(path, rel, violations):
    """Back-compat shim (PR 2 API): append Violations for one file."""
    violations.extend(lint_one(path, rel))


def emit_timings(timings_ms, stream):
    for rule in sorted(timings_ms):
        ms = timings_ms[rule]
        over = "  ** OVER BUDGET **" if ms > RULE_BUDGET_MS else ""
        print("pqs-lint timing: %-28s %8.1f ms (budget %.0f ms)%s"
              % (rule, ms, RULE_BUDGET_MS, over), file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="project-specific flow-aware C++ lint")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--treat-as-src", action="store_true",
                        help="apply the src/-scoped rules (raw-stdout, "
                             "raw-timestamp) to explicitly listed files "
                             "regardless of path; used by fixture tests")
    parser.add_argument("--cache-file", default=None,
                        help="JSON incremental cache path (content-hash "
                             "keyed; skips re-parsing unchanged files)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--json-out", default=None,
                        help="also write the JSON report here (schema "
                             "pqs_lint/1), independent of --format")
    parser.add_argument("--timings", action="store_true",
                        help="print per-rule wall time to stderr")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="fail if the whole run exceeds this budget")
    parser.add_argument("--baseline", default=None,
                        help="baseline suppression file (default: "
                             "baseline.json beside this script)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (default: whole "
                             "project: src/ bench/ tools/, with tests/ "
                             "feeding the call graph)")
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    root = os.path.abspath(args.root)

    baseline_path = args.baseline or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "baseline.json")
    baseline = [] if args.no_baseline else load_baseline(baseline_path)

    cache = cache_mod.LintCache(args.cache_file) if args.cache_file \
        else None
    timings_ms = {}

    if args.files:
        # Explicit file list: each file is linted standalone (line rules
        # + single-file flow rules); the cache is not consulted.
        violations = []
        for f in args.files:
            path = os.path.abspath(f)
            rel = os.path.relpath(path, root)
            if args.treat_as_src and not rel.replace(
                    os.sep, "/").startswith("src/"):
                rel = os.path.join("src", os.path.basename(f))
            violations.extend(lint_one(path, rel))
        violations.sort(key=lambda v: (v.path, v.line, v.rule))
        stats = {"parsed": len(args.files), "cached": 0,
                 "files_scanned": len(args.files), "files_graph_only": 0}
    else:
        scan_rels, graph_rels = collect_default_files(root)
        violations, stats = run(root, scan_rels, graph_rels, cache,
                                timings_ms)
        if cache:
            cache.prune({r.replace(os.sep, "/")
                         for r in scan_rels + graph_rels})
            cache.save()
            stats["cache_hits"] = cache.hits
            stats["cache_misses"] = cache.misses

    # Baseline filtering, tracking which entries still match something.
    if baseline:
        used = [False] * len(baseline)
        kept = []
        for v in violations:
            hit = False
            for i, entry in enumerate(baseline):
                if baseline_match(entry, v):
                    used[i] = True
                    hit = True
                    break
            if not hit:
                kept.append(v)
        violations = kept
        for i, entry in enumerate(baseline):
            if not used[i]:
                print("pqs_lint: warning: stale baseline entry %d "
                      "(%s in %s) matches nothing — delete it"
                      % (i, entry["rule"], entry["file"]),
                      file=sys.stderr)

    elapsed = time.monotonic() - t_start
    # On a warm-cache run the line rules never execute (their findings
    # come from the cache), so make the zero cost explicit rather than
    # dropping their timing entries.
    for rule in ALL_RULES:
        timings_ms.setdefault(rule, 0.0)
    timings_ms["total"] = elapsed * 1e3
    if args.timings:
        emit_timings(timings_ms, sys.stderr)

    doc = {
        "version": 1,
        "tool": "pqs_lint",
        "rules": list(ALL_RULES),
        "stats": stats,
        "timings_ms": {k: round(v, 2) for k, v in timings_ms.items()},
        "findings": [v.to_json() for v in violations],
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as jf:
            json.dump(doc, jf, indent=2)
            jf.write("\n")

    sink = open(args.out, "w", encoding="utf-8") if args.out \
        else sys.stdout
    try:
        if args.format == "json":
            json.dump(doc, sink, indent=2)
            sink.write("\n")
        else:
            for v in violations:
                print(v, file=sink)
            if violations:
                print("pqs_lint: %d violation(s) in %d file(s)"
                      % (len(violations),
                         len({v.path for v in violations})), file=sink)
            else:
                print("pqs_lint: clean (%d files scanned, %d parsed, "
                      "%d cached, %.2fs)"
                      % (stats["files_scanned"], stats["parsed"],
                         stats["cached"], elapsed), file=sink)
    finally:
        if args.out:
            sink.close()

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print("pqs_lint: FAIL — run took %.2fs (budget %.2fs)"
              % (elapsed, args.max_seconds), file=sys.stderr)
        return 2
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
