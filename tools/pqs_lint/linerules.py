"""The per-line / per-scope lint rules (pqs_lint's original rule set),
refactored so the driver can run and time each rule independently and
cache per-file results. Semantics are unchanged from the PR 2-6 linter:

  held-ref-across-send, raw-random, unordered-output, raw-stdout,
  dangling-schedule-capture, raw-timestamp, hot-path-alloc

plus hot-path-libm, which keeps libm calls out of `// pqs-hot` bodies.

Path scoping: raw-stdout and raw-timestamp apply only under src/ (bench
and tools legitimately print tables and measure wall time); the other
rules apply to every scanned file. Suppress any finding with
`// pqs-lint: allow(<rule-id>)` on the offending line.
"""

import os
import re

RULE_HELD_REF = "held-ref-across-send"
RULE_RAW_RANDOM = "raw-random"
RULE_UNORDERED_OUTPUT = "unordered-output"
RULE_RAW_STDOUT = "raw-stdout"
RULE_DANGLING_SCHEDULE = "dangling-schedule-capture"
RULE_RAW_TIMESTAMP = "raw-timestamp"
RULE_HOT_ALLOC = "hot-path-alloc"
RULE_HOT_LIBM = "hot-path-libm"

LINE_RULES = (RULE_HELD_REF, RULE_RAW_RANDOM, RULE_UNORDERED_OUTPUT,
              RULE_RAW_STDOUT, RULE_DANGLING_SCHEDULE, RULE_RAW_TIMESTAMP,
              RULE_HOT_ALLOC, RULE_HOT_LIBM)

# Calls that can synchronously re-enter the location service and resolve
# (erase) a pending op while the caller still holds a table reference.
REENTRANT_CALLS = ("send_routed", "send_unicast", "send_broadcast",
                   "deliver", "send")

REENTRANT_RE = re.compile(
    r"\b(?:%s)\s*\(" % "|".join(REENTRANT_CALLS))

OPTABLE_BIND_RE = re.compile(
    r"(?:\bauto\b\s*[&*]?|\b[A-Za-z_][\w:]*(?:<[^;=]*>)?\s*[&*])\s*"
    r"(\w+)\s*=\s*[\w.\->]*\bops_?\.\s*(?:find|open)\s*\(")

DERIVED_REF_RE = re.compile(
    r"\b[A-Za-z_][\w:]*&\s+(\w+)\s*=\s*(\w+)\s*(?:->|\.)\s*state\b")

REASSIGN_TEMPLATE = r"\b%s\s*=\s*[\w.\->]*\bops_?\.\s*(?:find|open)\s*\("

RAW_RANDOM_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brand\s*\(\s*\)|std::random_device\b"
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*"
    r"(\w+)\s*[;={(]")

RANGE_FOR_RE = re.compile(r"\bfor\s*\([^:;()]*:\s*([\w.\->]+)\s*\)")

OUTPUT_SINK_RE = re.compile(
    r"std::cout\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\(|\.row\s*\("
    r"|RowBuffer\b|CsvWriter\b|\bcsv\w*\s*(?:\.|->)")

RAW_STDOUT_RE = re.compile(r"std::cout\b|(?<![\w:])(?:std::)?printf\s*\(|"
                           r"(?<![\w:])puts\s*\(")

STD_FUNCTION_NAME_RE = re.compile(
    r"\bstd\s*::\s*function\s*<[^;{}]*>\s*&?\s*(\w+)\s*[;=,)]")

SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:in|at)\s*\(")

LAMBDA_CAPTURE_RE = re.compile(r"\[([^\[\]]*)\]")

RAW_TIMESTAMP_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|\b\w*[Cc]lock\s*::\s*now\s*\("
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(|\btimespec_get\s*\(")

ALLOW_RE = re.compile(r"//\s*pqs-lint:\s*allow\(([\w,\s-]+)\)")

HOT_ANNOT_RE = re.compile(r"//\s*pqs-hot\b")

HOT_ALLOC_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<[^;{}&*]*>\s*\w+\s*[;({=]"
    r"|\bstd\s*::\s*vector\s*<[^;{}&*]*>\s*\{"
    r"|\bstd\s*::\s*string\s+\w+\s*[;({=]"
    r"|\bstd\s*::\s*make_unique\s*<"
    r"|\bstd\s*::\s*make_shared\s*<")

# libm on a per-reception path: a range test is distance_sq(a, b) <= r * r
# (geom::in_range), and received power comes from phy::TwoRayLaw on d^2.
# Unqualified distance( is geom's own spelling inside namespace geom.
HOT_LIBM_RE = re.compile(
    r"\bstd\s*::\s*(?:hypot|pow|exp|log\w*)\s*\("
    r"|(?:\bgeom\s*::\s*|(?<![\w:.>]))distance\s*\("
    r"|\btorus_distance\s*\("
    r"|\.\s*norm\s*\(\s*\)")


def parse_allows(raw_lines):
    """Per-line (0-based) set of suppressed rule ids."""
    allows = {}
    for i, line in enumerate(raw_lines):
        m = ALLOW_RE.search(line)
        if m:
            allows[i] = {r.strip() for r in m.group(1).split(",")}
    return allows


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving line
    structure so reported line numbers stay exact."""
    out = []
    i = 0
    n = len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.) — bail out
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def join_continuations(lines):
    """Maps each physical line to a 'logical' line: a declaration whose
    initializer starts on the following line(s) is folded into one string
    for pattern matching, keyed by the first physical line."""
    logical = []
    for i, line in enumerate(lines):
        text = line
        j = i
        while (j + 1 < len(lines)
               and re.search(r"[=,(]\s*$", text)
               and len(text) < 2000):
            j += 1
            text = text + " " + lines[j].strip()
        logical.append(text)
    return logical


class Prep:
    """Per-file state shared by every line rule."""

    def __init__(self, raw_text):
        self.raw_lines = raw_text.split("\n")
        self.allows = parse_allows(self.raw_lines)
        stripped = strip_comments_and_strings(raw_text)
        self.lines = stripped.split("\n")
        self.logical = join_continuations(self.lines)

    def allowed(self, lineno, rule):
        return rule in self.allows.get(lineno, ())


class HeldRefChecker:
    """Flow-approximate scope tracker for rule held-ref-across-send."""

    class Taint:
        def __init__(self, depth, cond_scoped):
            self.depth = depth
            self.cond_scoped = cond_scoped
            self.went_deeper = False
            self.barrier_line = None

    def __init__(self, violations):
        self.violations = violations
        self.taints = {}
        self.depth = 0

    def check_line(self, lineno, line, logical):
        for var in list(self.taints):
            if re.search(REASSIGN_TEMPLATE % re.escape(var), logical):
                self.taints[var] = self.Taint(
                    self.depth, bool(re.match(r"\s*(?:if|while|for)\s*\(",
                                              logical)))

        for var, taint in self.taints.items():
            if taint.barrier_line is None or lineno <= taint.barrier_line:
                continue
            if re.search(r"\b%s\b" % re.escape(var), line):
                self.violations.append((
                    lineno, RULE_HELD_REF,
                    "'%s' (OpTable entry state bound at line %d) used after "
                    "the reentrant call at line %d; the entry may have been "
                    "resolved and erased — re-find() the op instead"
                    % (var, taint.decl_line + 1, taint.barrier_line + 1)))
                taint.barrier_line = None  # one report per var

        m = OPTABLE_BIND_RE.search(logical)
        if m:
            taint = self.Taint(self.depth,
                               bool(re.match(r"\s*(?:if|while|for)\s*\(",
                                             logical)))
            taint.decl_line = lineno
            self.taints[m.group(1)] = taint
        dm = DERIVED_REF_RE.search(logical)
        if dm and dm.group(2) in self.taints:
            taint = self.Taint(self.depth, False)
            taint.decl_line = lineno
            self.taints[dm.group(1)] = taint

        if REENTRANT_RE.search(line):
            for var, taint in self.taints.items():
                if taint.barrier_line is None and taint.decl_line < lineno:
                    taint.barrier_line = lineno

        self.depth += line.count("{") - line.count("}")
        for var in list(self.taints):
            taint = self.taints[var]
            if self.depth > taint.depth:
                taint.went_deeper = True
            dead = (self.depth < taint.depth
                    or (taint.cond_scoped and taint.went_deeper
                        and self.depth <= taint.depth))
            if dead:
                del self.taints[var]


class DanglingScheduleChecker:
    """Scope tracker for rule dangling-schedule-capture (see the PR 4
    scenario-driver use-after-scope class)."""

    def __init__(self, violations):
        self.violations = violations
        self.funcs = {}  # name -> (decl depth, decl line)
        self.depth = 0

    def check_line(self, lineno, line, logical):
        for m in STD_FUNCTION_NAME_RE.finditer(logical):
            if m.group(1) not in self.funcs:
                self.funcs[m.group(1)] = (self.depth, lineno)

        if SCHEDULE_CALL_RE.search(line):
            sm = SCHEDULE_CALL_RE.search(logical)
            rest = logical[sm.end():]
            cm = LAMBDA_CAPTURE_RE.search(rest)
            if cm:
                caps = [c.strip() for c in cm.group(1).split(",")
                        if c.strip()]
                default_ref = "&" in caps
                body = rest[cm.end():]
                for name, (_d, decl) in self.funcs.items():
                    explicit = any(re.fullmatch(r"&\s*%s" % re.escape(name),
                                                c) for c in caps)
                    implicit = default_ref and re.search(
                        r"\b%s\b" % re.escape(name), body)
                    if explicit or implicit:
                        self.violations.append((
                            lineno, RULE_DANGLING_SCHEDULE,
                            "scheduled event captures stack-local "
                            "std::function '%s' (declared line %d) by "
                            "reference; a straggler firing after the "
                            "enclosing scope returns calls through a "
                            "dangling reference — move the continuation "
                            "into shared-owned state captured by value"
                            % (name, decl + 1)))

        self.depth += line.count("{") - line.count("}")
        for name in list(self.funcs):
            if self.depth < self.funcs[name][0]:
                del self.funcs[name]


def _rule_held_ref(prep, norm):
    checker = HeldRefChecker([])
    for i, line in enumerate(prep.lines):
        checker.check_line(i, line, prep.logical[i])
    return checker.violations


def _rule_dangling_schedule(prep, norm):
    checker = DanglingScheduleChecker([])
    for i, line in enumerate(prep.lines):
        checker.check_line(i, line, prep.logical[i])
    return checker.violations


def _rule_raw_random(prep, norm):
    if norm.startswith("src/util/rng."):
        return []
    out = []
    for i, line in enumerate(prep.lines):
        m = RAW_RANDOM_RE.search(line)
        if m:
            out.append((i, RULE_RAW_RANDOM,
                        "'%s' breaks deterministic seeding; use util::Rng "
                        "(src/util/rng.h) instead" % m.group(0).strip()))
    return out


def _rule_unordered_output(prep, norm):
    out = []
    unordered_vars = set()
    for line in prep.lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(1))
    for i, line in enumerate(prep.lines):
        fm = RANGE_FOR_RE.search(line)
        if not fm:
            continue
        seq = fm.group(1)
        tail = re.split(r"\.|->", seq)[-1]
        if tail not in unordered_vars:
            continue
        depth = 0
        opened = False
        for j in range(i, min(i + 60, len(prep.lines))):
            body = prep.lines[j]
            if OUTPUT_SINK_RE.search(body):
                out.append((i, RULE_UNORDERED_OUTPUT,
                            "iteration over unordered container '%s' feeds "
                            "output; hash order is nondeterministic — sort "
                            "first" % tail))
                break
            depth += body.count("{") - body.count("}")
            if body.count("{") > 0:
                opened = True
            if opened and depth <= 0 and j > i:
                break
            if not opened and j > i and body.strip().endswith(";"):
                break
    return out


def _rule_raw_stdout(prep, norm):
    if not norm.startswith("src/") or norm.startswith("src/util/logging."):
        return []
    out = []
    for i, line in enumerate(prep.lines):
        m = RAW_STDOUT_RE.search(line)
        if m:
            out.append((i, RULE_RAW_STDOUT,
                        "raw '%s' in src/; route output through the logging "
                        "util (PQS_INFO/...) or an explicit FILE*/CsvWriter "
                        "sink" % m.group(0).strip().rstrip("(")))
    return out


def _rule_raw_timestamp(prep, norm):
    if not norm.startswith("src/") or \
            norm.startswith(("src/sim/", "src/obs/")):
        return []
    out = []
    for i, line in enumerate(prep.lines):
        m = RAW_TIMESTAMP_RE.search(line)
        if m:
            out.append((i, RULE_RAW_TIMESTAMP,
                        "wall-clock read '%s' outside src/sim//src/obs/; "
                        "use sim::Simulator::now() virtual time (explicit "
                        "perf measurement needs an allow())"
                        % m.group(0).strip().rstrip("(")))
    return out


def _hot_body_lines(prep):
    """(annotation line, body line) index pairs, 0-based, for every line of
    each function annotated `// pqs-hot`, from its opening brace to the
    matching close."""
    for start, raw_line in enumerate(prep.raw_lines):
        if not HOT_ANNOT_RE.search(raw_line):
            continue
        depth = 0
        entered = False
        for j in range(start, min(start + 500, len(prep.lines))):
            body = prep.lines[j]
            if not entered and "{" not in body:
                continue
            entered = True
            yield start, j
            depth += body.count("{") - body.count("}")
            if depth <= 0:
                break


def _rule_hot_alloc(prep, norm):
    out = []
    for start, j in _hot_body_lines(prep):
        for m in HOT_ALLOC_RE.finditer(prep.lines[j]):
            out.append((j, RULE_HOT_ALLOC,
                        "heap construction '%s' inside a // pqs-hot "
                        "function (annotated line %d); reuse a pooled "
                        "buffer (acquire_ids / BlockPool / new_packet) "
                        "or hoist it out of the hot path"
                        % (m.group(0).strip().rstrip("(;{=").strip(),
                           start + 1)))
    return out


def _rule_hot_libm(prep, norm):
    out = []
    for start, j in _hot_body_lines(prep):
        for m in HOT_LIBM_RE.finditer(prep.lines[j]):
            out.append((j, RULE_HOT_LIBM,
                        "libm call '%s' inside a // pqs-hot function "
                        "(annotated line %d); test range with "
                        "geom::in_range (squared distance) and take "
                        "received power from phy::TwoRayLaw on d^2"
                        % (re.sub(r"\s+", "", m.group(0)).rstrip("("),
                           start + 1)))
    return out


_RULE_FNS = {
    RULE_HELD_REF: _rule_held_ref,
    RULE_DANGLING_SCHEDULE: _rule_dangling_schedule,
    RULE_RAW_RANDOM: _rule_raw_random,
    RULE_UNORDERED_OUTPUT: _rule_unordered_output,
    RULE_RAW_STDOUT: _rule_raw_stdout,
    RULE_RAW_TIMESTAMP: _rule_raw_timestamp,
    RULE_HOT_ALLOC: _rule_hot_alloc,
    RULE_HOT_LIBM: _rule_hot_libm,
}


def run_line_rules(rel, prep, timings_ms=None):
    """Runs every line rule on one prepared file. Returns allow-filtered
    violations as [{line (1-based), rule, message}]. `timings_ms` (dict)
    accumulates per-rule wall time when provided."""
    import time
    norm = rel.replace(os.sep, "/")
    out = []
    for rule, fn in _RULE_FNS.items():
        t0 = time.monotonic()
        for lineno, rid, message in fn(prep, norm):
            if not prep.allowed(lineno, rid):
                out.append({"line": lineno + 1, "rule": rid,
                            "message": message})
        if timings_ms is not None:
            timings_ms[rule] = timings_ms.get(rule, 0.0) + \
                (time.monotonic() - t0) * 1e3
    return out
