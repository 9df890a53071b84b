#!/usr/bin/env python3
"""Project-specific lint for the msplog tree (registered as a CTest).

Checks enforced over src/ (stdlib only, no third-party deps):

  pragma-once          every header starts its preprocessor life with
                       `#pragma once`.
  raw-sync             `std::mutex` / `std::shared_mutex` /
                       `std::condition_variable` (and their includes) are
                       banned outside src/audit — everything else must go
                       through the audit::Mutex wrappers so the lock-order
                       auditor sees every acquisition.
  naked-new            no naked `new` / `delete`: ownership goes through
                       make_unique/make_shared/containers. Intentional leaks
                       (function-local singletons) carry an
                       `audit:allow(naked-new)` comment.
  nondeterminism       rand()/srand()/std::random_device/std::mt19937 are
                       banned outside common/rng.h: all randomness flows
                       through the seeded simulation RNG so runs replay
                       deterministically.
  blocking-under-lock  calls into the simulated disk/network (model-time
                       sleeps) while a lock guard is live. src/sim itself is
                       exempt (holding io_mu_ across the sleep IS the
                       single-spindle latency model). Reviewed exceptions
                       carry `audit:allow(blocking-under-lock)`.
  include-hygiene      no `#include "../..."` — project includes are rooted
                       at src/.
  obs-layering         src/obs must not include headers from any server
                       layer (sim/, msp/, log/, rpc/, db/, baseline/,
                       recovery/, harness/): the observability layer is
                       dependency-free — flight recorder and friends take
                       injected callbacks (clock, snapshot providers) — so
                       every other layer (including sim/ itself) can use it
                       without cycles.
  flush-send           kFlushRequest messages are built ONLY by the per-peer
                       flush aggregator (src/msp/flush_aggregator.cc), which
                       owns coalescing, resend dedup and the watermark. A
                       direct `msg.type = MessageType::kFlushRequest`
                       anywhere else bypasses group commit and duplicates
                       in-flight requests. Comparisons (switch/==) are fine.
  guarded-by           in headers under src/, a mutable data member declared
                       after an audit::Mutex/SharedMutex member of the same
                       class must carry GUARDED_BY/PT_GUARDED_BY. Exempt:
                       atomics, const/static/constexpr members, std::thread,
                       audit:: types (mutexes, condvars), and obs metric
                       handles (internally atomic). Reviewed exceptions
                       carry `audit:allow(guarded-by)`. This keeps the clang
                       thread-safety annotations (src/audit/annotations.h)
                       honest on the GCC-only container where clang cannot
                       check them.
  requires-assertheld  a method annotated REQUIRES(...)/REQUIRES_SHARED(...)
                       must either be named *Locked (callers see the
                       contract in the name) or call AssertHeld /
                       AssertSharedHeld in its body (the runtime twin of the
                       compile-time contract).
  hot-path-alloc       files tagged with a `// lint:hot-path` comment are
                       allocation-free fast paths: constructing a
                       std::function (heap-allocates per capture — use the
                       SBO Task from common/task.h) and calling the
                       allocating by-value Encode() (use the size-
                       precomputed EncodeTo span path) are banned there.
                       Naked new is already banned tree-wide. Reviewed
                       exceptions carry `audit:allow(hot-path-alloc)`.
  mode-branch          in src/msp, `config_.mode` and `RecoveryMode::` only
                       inside `Msp::Start` (and msp_config.h, which defines
                       them); elsewhere the code asks whether `log_` is set.

Exit status: 0 clean, 1 findings (one `file:line: [check] message` per line).
Run with --self-test to prove the hot-path-alloc and mode-branch rules still
fire on known-bad input (a broken rule would otherwise pass everything
forever).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

RAW_SYNC = re.compile(
    r"std::(mutex|shared_mutex|condition_variable(_any)?|scoped_lock)\b")
RAW_SYNC_INCLUDE = re.compile(
    r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>')
NAKED_NEW = re.compile(r"(^|[^_\w.])new\s+[A-Za-z_]")
NAKED_DELETE = re.compile(r"(^|[^_\w.])delete(\[\])?\s+[A-Za-z_*(]")
NONDET = re.compile(
    r"(^|[^_\w])(rand|srand)\s*\(|std::(random_device|mt19937)")
PARENT_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
OBS_FORBIDDEN_INCLUDE = re.compile(
    r'#\s*include\s*"(sim|msp|log|rpc|db|baseline|recovery|harness)/')
# Assignment (construction) of a kFlushRequest message; `==`/`!=`/`<=`/`>=`
# comparisons and case labels don't match.
FLUSH_SEND = re.compile(r"(?<![=!<>])=\s*MessageType::kFlushRequest")

GUARD_DECL = re.compile(
    r"\b(?:audit::(?:LockGuard|UniqueLock|SharedLock|SharedUniqueLock)|"
    r"std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)<[^>]*>)\s+"
    r"(\w+)\s*[({]")
# Calls that advance model time (simulated I/O / messaging): blocking while a
# lock is held serializes unrelated sessions behind one spindle seek.
# Metadata-only queries (Exists, FileSize, Register) are free and excluded.
BLOCKING_CALL = re.compile(
    r"\b(?:disk_?->\s*(?:ReadAt|WriteAt|Append|Truncate|Delete|PunchHole|"
    r"Barrier|Format)|(?:network_?|net_?)->\s*Send|log_->Flush\w*|"
    r"positions\.Flush\w*)\s*\(")
UNLOCK = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(")

# hot-path-alloc: a file opts in with this tag (in a comment); the checks
# run on comment-stripped lines so prose mentioning std::function is fine.
# mode-branch: reads of the recovery mode outside Msp::Start.
MODE_BRANCH = re.compile(r"\bconfig_\.mode\b|\bRecoveryMode::")
MSP_START_DEF = re.compile(r"\bMsp::Start\s*\(")

HOT_PATH_TAG = "lint:hot-path"
STD_FUNCTION = re.compile(r"\bstd::function\s*<")
ENCODE_BY_VALUE = re.compile(r"\.\s*Encode\s*\(\s*\)")


def strip_comments_strings(line, in_block):
    """Replace comment/string contents with spaces, preserving columns.

    Returns (code_line, still_in_block_comment)."""
    out = []
    i, n = 0, len(line)
    state = "block" if in_block else "code"
    quote = ""
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                out.append(" " * (n - i))
                break
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = "str"
                quote = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(" ")
        else:  # string literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != quote else c)
        i += 1
    return "".join(out), state == "block"


def lint_file(path, findings):
    rel = path.relative_to(REPO).as_posix()
    raw = path.read_text(errors="replace").splitlines()
    lint_source(rel, raw, findings)


def lint_source(rel, raw, findings):
    in_audit = rel.startswith("src/audit/")
    in_sim = rel.startswith("src/sim/")
    is_header = rel.endswith(".h")
    hot_path = any(HOT_PATH_TAG in l for l in raw)
    mode_checked = rel.startswith("src/msp/") and \
        rel != "src/msp/msp_config.h"
    in_start, start_depth = False, 0  # inside Msp::Start's body; its depth

    # Guard tracking: list of (name, brace_depth_at_declaration).
    guards = []
    depth = 0
    in_block = False
    saw_pragma_once = False
    saw_preproc = False

    for lineno, raw_line in enumerate(raw, 1):
        # Waivers apply to their own line or the two lines that follow, so a
        # comment line can cover a wrapped statement.
        nearby = "\n".join(raw[max(0, lineno - 3):lineno])
        allow = {m for m in re.findall(r"audit:allow\(([\w-]+)\)", nearby)}
        line, in_block = strip_comments_strings(raw_line, in_block)

        if is_header and not saw_pragma_once and not saw_preproc:
            if re.match(r"\s*#\s*pragma\s+once", line):
                saw_pragma_once = True
            elif re.match(r"\s*#", line):
                saw_preproc = True  # some other directive came first

        if not in_audit:
            if RAW_SYNC.search(line) or RAW_SYNC_INCLUDE.search(line):
                findings.append(
                    f"{rel}:{lineno}: [raw-sync] raw std sync primitive; "
                    "use the audit::Mutex wrappers (src/audit/mutex.h)")

        if "naked-new" not in allow:
            if NAKED_NEW.search(line) or NAKED_DELETE.search(line):
                findings.append(
                    f"{rel}:{lineno}: [naked-new] naked new/delete; use "
                    "make_unique/make_shared or audit:allow(naked-new)")

        if rel != "src/common/rng.h" and NONDET.search(line):
            findings.append(
                f"{rel}:{lineno}: [nondeterminism] unseeded randomness; "
                "use the simulation RNG (common/rng.h)")

        # Checked against the raw line: the include path lives inside a string
        # literal, which strip_comments_strings blanks out.
        if PARENT_INCLUDE.search(raw_line):
            findings.append(
                f"{rel}:{lineno}: [include-hygiene] parent-relative "
                "include; include paths are rooted at src/")

        if rel.startswith("src/obs/") and \
                OBS_FORBIDDEN_INCLUDE.search(raw_line):
            findings.append(
                f"{rel}:{lineno}: [obs-layering] src/obs must not include "
                "server-layer headers (obs is dependency-free)")

        if rel != "src/msp/flush_aggregator.cc" and FLUSH_SEND.search(line):
            findings.append(
                f"{rel}:{lineno}: [flush-send] kFlushRequest built outside "
                "the flush aggregator; route the flush through "
                "FlushAggregator::Submit so it can coalesce")

        if hot_path and "hot-path-alloc" not in allow:
            if STD_FUNCTION.search(line):
                findings.append(
                    f"{rel}:{lineno}: [hot-path-alloc] std::function in a "
                    "lint:hot-path file heap-allocates per capture; use "
                    "Task (common/task.h)")
            if ENCODE_BY_VALUE.search(line):
                findings.append(
                    f"{rel}:{lineno}: [hot-path-alloc] allocating Encode() "
                    "in a lint:hot-path file; use the size-precomputed "
                    "EncodeTo span path")

        if mode_checked:
            if not in_start and MSP_START_DEF.search(line) \
                    and not line.rstrip().endswith(";"):
                in_start, start_depth = True, depth
            if not in_start and MODE_BRANCH.search(line):
                findings.append(
                    f"{rel}:{lineno}: [mode-branch] recovery mode read "
                    "outside Msp::Start; ask whether the MSP logs (log_) "
                    "or use the SessionStore Start built")

        # --- blocking-under-lock token scan ---------------------------------
        if not in_sim:
            for m in GUARD_DECL.finditer(line):
                guards.append((m.group(1), depth))
            for m in UNLOCK.finditer(line):
                guards = [g for g in guards if g[0] != m.group(1)]
            if guards and BLOCKING_CALL.search(line) \
                    and "blocking-under-lock" not in allow:
                held = ", ".join(g[0] for g in guards)
                findings.append(
                    f"{rel}:{lineno}: [blocking-under-lock] simulated I/O "
                    f"call while holding lock guard(s): {held}")
            opens = line.count("{")
            closes = line.count("}")
            # Apply closes first for `}` lines, then opens; good enough for
            # the tree's one-statement-per-line style.
            depth = max(0, depth - closes)
            guards = [g for g in guards if g[1] <= depth]
            depth += opens
            if in_start and depth <= start_depth and closes:
                in_start = False
        else:
            depth = max(0, depth - line.count("}")) + line.count("{")

    if is_header and not saw_pragma_once:
        findings.append(f"{rel}:1: [pragma-once] header missing #pragma once")


MUTEX_MEMBER = re.compile(r"\baudit::(?:Mutex|SharedMutex)\s+\w+")
GUARDED_ANNOT = re.compile(r"\b(?:GUARDED_BY|PT_GUARDED_BY)\s*\(")
CLASS_OPEN = re.compile(r"\b(?:class|struct)\s+[A-Z]\w*[^;]*\{")
# Members that need no GUARDED_BY: synchronization objects themselves,
# atomics, threads (joined under an external protocol), const/static state,
# and obs metric handles (stable pointers to internally-atomic objects).
EXEMPT_MEMBER = re.compile(
    r"\b(?:std::atomic\b|std::thread\b|audit::|static\b|constexpr\b|"
    r"using\b|typedef\b|friend\b|enum\b|const\b|obs::\w+\s*\*)")


def lint_guarded_by(path, findings):
    """guarded-by: post-mutex mutable members in headers must be annotated.

    Line-oriented heuristic tuned to the tree's one-declaration-per-line
    style: tracks class scopes, joins multi-line member declarations at the
    class's member depth, and evaluates each completed statement."""
    rel = path.relative_to(REPO).as_posix()
    raw = path.read_text(errors="replace").splitlines()
    stripped = []
    in_block = False
    for line in raw:
        s, in_block = strip_comments_strings(line, in_block)
        stripped.append(s)

    depth = 0
    # Stack of class scopes: [member_depth, mutex_seen].
    classes = []
    stmt, stmt_start = "", None
    for lineno, line in enumerate(stripped, 1):
        at_member_depth = bool(classes) and depth == classes[-1][0]
        if at_member_depth and not re.match(
                r"\s*(?:public|private|protected)\s*:|\s*#|\s*$", line):
            if stmt_start is None:
                stmt_start = lineno
            stmt += " " + line.strip()
            if ";" in line:
                seen_mutex = classes[-1][1]
                if MUTEX_MEMBER.search(stmt):
                    classes[-1][1] = True
                elif (seen_mutex and "(" not in stmt
                      and not EXEMPT_MEMBER.search(stmt)
                      and re.search(r"\w+\s*(?:=[^;]*|\{[^;]*\})?\s*;", stmt)):
                    nearby = "\n".join(raw[max(0, stmt_start - 3):lineno])
                    if "audit:allow(guarded-by)" not in nearby:
                        findings.append(
                            f"{rel}:{stmt_start}: [guarded-by] mutable "
                            "member declared after this class's mutex "
                            "without GUARDED_BY/PT_GUARDED_BY (or "
                            "audit:allow(guarded-by) with a reason)")
                stmt, stmt_start = "", None
            elif "{" in line:
                # A multi-line inline function header, not a data member.
                stmt, stmt_start = "", None
        if CLASS_OPEN.search(line) and "enum" not in line:
            classes.append([depth + 1, False])
            stmt, stmt_start = "", None
        depth += line.count("{") - line.count("}")
        while classes and depth < classes[-1][0]:
            classes.pop()
            stmt, stmt_start = "", None


REQUIRES_ANNOT = re.compile(r"\bREQUIRES(?:_SHARED)?\s*\(")
NAME_BEFORE_PARENS = re.compile(r"(\w+)\s*\(")


def lint_requires_assertheld(header_texts, all_texts, findings):
    """requires-assertheld: REQUIRES methods call AssertHeld or end Locked."""
    for rel, text in header_texts.items():
        flat = " ".join(text.split())
        for m in REQUIRES_ANNOT.finditer(flat):
            names = NAME_BEFORE_PARENS.findall(flat[max(0, m.start() - 240):
                                                    m.start()])
            if not names:
                continue
            name = names[-1]
            if name.endswith("Locked") or name.startswith("Assert"):
                continue
            # Find the definition (out-of-line or inline) and look for the
            # runtime twin near the top of the body.
            ok = False
            for body_text in all_texts.values():
                for dm in re.finditer(
                        r"\b" + re.escape(name) + r"\s*\([^;{]*\)[^;{]*\{",
                        body_text):
                    body = body_text[dm.end():dm.end() + 600]
                    if "AssertHeld" in body or "AssertSharedHeld" in body:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                lineno = text[:text.find(name)].count("\n") + 1 \
                    if name in text else 1
                findings.append(
                    f"{rel}:{lineno}: [requires-assertheld] {name}() is "
                    "annotated REQUIRES but neither ends in 'Locked' nor "
                    "calls AssertHeld/AssertSharedHeld in its body")


def self_test():
    """Prove hot-path-alloc and mode-branch fire on known-bad input and stay
    quiet otherwise. Exercised by the lint_msplog_selftest CTest."""
    bad = [
        "// lint:hot-path",
        "#include <functional>",
        "std::function<void()> cb = [] {};",   # finding 1
        "Bytes b = rec.Encode();",             # finding 2
        "// audit:allow(hot-path-alloc): reviewed — cold error path",
        "std::function<void()> waived = [] {};",
        "w.EncodeTo(&buf);  // the good path never fires",
        "// a comment saying std::function or .Encode() never fires",
    ]
    findings = []
    lint_source("src/fake/hot.cc", bad, findings)
    hits = [f for f in findings if "[hot-path-alloc]" in f]
    if len(hits) != 2:
        sys.exit("lint_msplog: self-test FAILED: expected exactly 2 "
                 "hot-path-alloc findings on the bad fixture, got %d:\n%s"
                 % (len(hits), "\n".join(findings)))
    findings = []
    # Same source without the tag: the rule must not fire at all.
    lint_source("src/fake/cold.cc", bad[1:], findings)
    if any("[hot-path-alloc]" in f for f in findings):
        sys.exit("lint_msplog: self-test FAILED: hot-path-alloc fired on an "
                 "untagged file:\n" + "\n".join(findings))
    # mode-branch: the read inside Msp::Start is fine, the one in Serve
    # (line 6) is not; comments never fire.
    mode_bad = [
        "#pragma once", "Status Msp::Start() {",
        "  switch (config_.mode) { case RecoveryMode::kNoLog: break; }",
        "}", "void Msp::Serve() {",
        "  if (config_.mode == RecoveryMode::kLogBased) return;",
        "  // RecoveryMode::kNoLog in a comment never fires", "}",
    ]
    for rel, want in (("src/msp/fake.cc", [6]), ("src/msp/msp_config.h", []),
                      ("src/harness/fake.cc", [])):
        findings = []
        lint_source(rel, mode_bad, findings)
        got = [int(f.split(":")[1]) for f in findings if "[mode-branch]" in f]
        if got != want:
            sys.exit("lint_msplog: self-test FAILED: mode-branch on %s: "
                     "expected lines %s, got:\n%s"
                     % (rel, want, "\n".join(findings)))
    print("lint_msplog: self-test OK")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    findings = []
    files = sorted(
        p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))
    if not files:
        print("lint_msplog: no sources found under src/", file=sys.stderr)
        return 1
    for path in files:
        lint_file(path, findings)
    header_texts = {}
    all_texts = {}
    for path in files:
        rel = path.relative_to(REPO).as_posix()
        text = path.read_text(errors="replace")
        all_texts[rel] = text
        if path.suffix == ".h" and not rel.startswith("src/audit/"):
            header_texts[rel] = text
            lint_guarded_by(path, findings)
    lint_requires_assertheld(header_texts, all_texts, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_msplog: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint_msplog: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
