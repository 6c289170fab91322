#!/usr/bin/env python3
"""dpbr project lint: statically enforce the contracts the tests only
probe dynamically.

The repo's correctness story rests on prose contracts — bitwise
deterministic aggregation, grow-only buffers with no allocation
inside `ParallelFor` bodies, per-ISA SIMD translation units reached only
through the dispatch table, and `Status`/`Result` error propagation.
This checker turns them into machine-checked rules over the
CMake-exported `compile_commands.json`.

Check families (each finding is tagged `[family-check]`):

  nondeterminism   nondet-rand        rand()/srand()/std::random_device &c.
                   nondet-time        time()/clock()/std::chrono::*_clock::now
                   nondet-unordered   std::unordered_{map,set} in result-
                                      producing src/ code (iteration order
                                      is libstdc++-specific)
  hotpath          hotpath-alloc      new/malloc/vector growth inside a
                                      lambda passed to ParallelFor[Blocked]
                   hotpath-lock       mutex/lock acquisition inside such a
                                      lambda
                   hotpath-io         stdio/iostream/file io inside such a
                                      lambda
  simd             simd-mflags        -m<isa> compile flags on any TU other
                                      than the per-ISA simd_*.cc
                   simd-intrinsics    ISA intrinsics / vector types outside
                                      the per-ISA TUs
                   simd-internal      simd_internal.h (the raw per-ISA
                                      tables) included outside the
                                      dispatcher
                   simd-fpcontract    a per-ISA simd_*.cc compiled
                                      without -ffp-contract=off (its
                                      mul/add pairs may fuse into FMA)
  status           status-discard     a Status/Result-returning call used
                                      as a bare expression statement
  nn               nn-dispatch        ParallelFor[Blocked], ThreadPool or
                                      common/thread_pool.h in src/nn/
                                      (layers compute on the calling
                                      thread)

Backend: a built-in C++ lexer that understands comments, raw strings,
char literals and preprocessor lines, so the gate needs no LLVM
install or python bindings.

Suppression: append `// dpbr-lint: allow(check-a, check-b)` to the
offending line, or place the comment alone on the line directly above.
File-scope exemptions live in ALLOWLIST below, next to the check they
exempt.

Usage:
  python3 scripts/lint/dpbr_lint.py [-p BUILDDIR] [paths...]
  python3 scripts/lint/dpbr_lint.py --self-test
  python3 scripts/lint/dpbr_lint.py --list-checks

Exit status: 0 clean, 1 findings, 2 infrastructure error.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The per-ISA translation units: the only files allowed to carry -m<isa>
# compile flags or to use ISA intrinsics, and (with the dispatcher and
# its equivalence test) the only legal includers of simd_internal.h.
SIMD_ISA_TUS = {
    "src/common/simd_sse2.cc",
    "src/common/simd_avx2.cc",
    "src/common/simd_avx512.cc",
}
# simd_traits.h holds the width-templated intrinsic wrappers the per-ISA
# TUs instantiate; it necessarily spells intrinsics.
SIMD_INTRINSIC_FILES = SIMD_ISA_TUS | {"src/common/simd_traits.h"}
SIMD_INTERNAL_FILES = SIMD_ISA_TUS | {
    "src/common/simd.cc",
    "src/common/simd_internal.h",
    "tests/common/simd_test.cc",  # equivalence suite probes raw tables
}

# File-scope exemptions, check-pattern -> path globs (repo-relative).
# bench/, examples/ and tests/ are outside the linted set entirely (only
# src/ produces results that must be deterministic); entries here carve
# out src/ files whose *job* is the banned construct.
ALLOWLIST = {
    # Wall-clock timestamps in log lines and shutdown deadlines do not
    # feed any aggregation result.
    "nondet-time": ["src/common/logging.*", "src/common/shutdown.*"],
}

NONDET_RAND_IDENTS = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
    "random_device", "random_shuffle",
}
NONDET_TIME_CALL_IDENTS = {
    "time", "clock", "gettimeofday", "clock_gettime", "ftime",
}
NONDET_CLOCK_TYPES = {
    "system_clock", "steady_clock", "high_resolution_clock",
}
NONDET_UNORDERED = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

PARALLEL_DISPATCHERS = {"ParallelFor", "ParallelForBlocked"}
# Every nn pass runs inside the federated round's one dispatch, where a
# nested dispatch runs inline: src/nn/ must not reach for the pool.
NN_DIR = os.path.join("src", "nn") + os.sep
NN_DISPATCH_IDENTS = PARALLEL_DISPATCHERS | {"ThreadPool"}
NN_DISPATCH_HEADER = "common/thread_pool.h"
HOTPATH_ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "free",
    "push_back", "emplace_back", "resize", "reserve", "assign",
    "shrink_to_fit",
}
# Constructor-style allocations: `std::vector<T> v(n)`, `std::string
# s(n, c)`, and temporaries such as `std::vector<T>(n)`.
HOTPATH_SIZED_CONTAINERS = {"vector", "string"}
HOTPATH_OWNING_MAKERS = {"make_unique", "make_shared"}
# Calls of an nn::ModelFactory build a whole model (layers, parameters,
# caches); hot bodies borrow a model built before the dispatch.
HOTPATH_MODEL_FACTORY_CALLS = {
    "factory", "factory_", "model_factory", "model_factory_",
}
HOTPATH_LOCK_TYPES = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
}
HOTPATH_LOCK_METHODS = {"lock", "unlock", "try_lock"}
HOTPATH_IO_IDENTS = {
    "printf", "fprintf", "puts", "fputs", "putchar", "fopen", "fclose",
    "fwrite", "fread", "fflush", "fsync", "fdatasync",
    "cout", "cerr", "clog", "ofstream", "ifstream", "fstream",
}

INTRINSIC_PREFIXES = ("_mm_", "_mm256_", "_mm512_", "__m128", "__m256",
                      "__m512")
INTRINSIC_HEADERS = {
    "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
    "smmintrin.h", "avxintrin.h", "avx2intrin.h", "avx512fintrin.h",
    "nmmintrin.h", "tmmintrin.h", "pmmintrin.h", "wmmintrin.h",
}
# ISA-selecting flags; -ffp-contract is deliberately NOT here (the
# per-ISA TUs legitimately pin it, and it changes codegen, not the ISA;
# simd-fpcontract requires it on those TUs instead).
MFLAG_RE = re.compile(
    r"^-m(sse\w*|avx\w*|fma\w*|bmi\w*|f16c|aes|pclmul|popcnt|abm|"
    r"arch=.*|tune=.*)$")

ALL_CHECKS = [
    "nondet-rand", "nondet-time", "nondet-unordered",
    "hotpath-alloc", "hotpath-lock", "hotpath-io",
    "simd-mflags", "simd-intrinsics", "simd-internal", "simd-fpcontract",
    "status-discard", "nn-dispatch",
]
# Checks that read a TU's compile command rather than its source: their
# findings carry line 0.
COMPILE_FLAG_CHECKS = {"simd-mflags", "simd-fpcontract"}

# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


class Tok:
    """One lexical token: kind in {ident, punct, lit, comment}."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Tok({self.kind},{self.text!r},{self.line})"


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?[0-9](?:[0-9a-zA-Z_.']|[eEpP][+-])*")
# Longest-match punctuators that matter for statement parsing.
_PUNCTS = ("->*", "<<=", ">>=", "...", "::", "->", "<<", ">>", "<=",
           ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
           "&=", "|=", "^=", "++", "--")


def tokenize_fallback(text):
    """Built-in C++ lexer. Comments become `comment` tokens (they carry
    the suppression annotations); string/char literals become `lit`
    tokens with their spelling preserved (include paths need it)."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            toks.append(Tok("comment", text[i:j], line))
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            body = text[i:j + 2]
            toks.append(Tok("comment", body, line))
            line += body.count("\n")
            i = j + 2
            continue
        if c == '"' or (c == "R" and text.startswith('R"', i)):
            if c == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    delim = ")" + m.group(1) + '"'
                    j = text.find(delim, i + m.end())
                    j = n - len(delim) if j == -1 else j
                    body = text[i:j + len(delim)]
                    toks.append(Tok("lit", body, line))
                    line += body.count("\n")
                    i = j + len(delim)
                    continue
                # A plain identifier starting with R.
            if c == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                toks.append(Tok("lit", text[i:j + 1], line))
                i = j + 1
                continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            # Digit separators (1'000) never reach here: the number
            # lexer consumes them inside _NUM_RE.
            toks.append(Tok("lit", text[i:j + 1], line))
            i = j + 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(Tok("ident", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            toks.append(Tok("lit", m.group(0), line))
            i = m.end()
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            line += 1
            i += 2
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks


def tokenize_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return tokenize_fallback(f.read())


# ---------------------------------------------------------------------------
# Findings and suppression
# ---------------------------------------------------------------------------


class Finding:
    __slots__ = ("path", "line", "check", "msg")

    def __init__(self, path, line, check, msg):
        self.path = path
        self.line = line
        self.check = check
        self.msg = msg


_ALLOW_RE = re.compile(r"dpbr-lint:\s*allow\(([^)]*)\)")


def collect_suppressions(toks):
    """Maps line -> set of allowed checks. An annotation suppresses its
    own line and the line below (for own-line comments)."""
    allowed = {}
    for t in toks:
        if t.kind != "comment":
            continue
        m = _ALLOW_RE.search(t.text)
        if not m:
            continue
        checks = {c.strip() for c in m.group(1).split(",") if c.strip()}
        last = t.line + t.text.count("\n")
        for line in (t.line, last, last + 1):
            allowed.setdefault(line, set()).update(checks)
    return allowed


def file_allowed(check, rel):
    return any(fnmatch.fnmatch(rel, pat)
               for pat in ALLOWLIST.get(check, []))


# ---------------------------------------------------------------------------
# Token stream helpers
# ---------------------------------------------------------------------------


def code_tokens(toks):
    return [t for t in toks if t.kind != "comment"]


def match_paren(toks, i):
    """Index of the `)`/`}`/`]` matching the opener at i, or len(toks)."""
    opener = toks[i].text
    closer = {"(": ")", "{": "}", "[": "]"}[opener]
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def included_headers(toks):
    """(line, header) pairs for #include directives, both "" and <>."""
    out = []
    ct = toks
    for i, t in enumerate(ct):
        if t.text != "#" or i + 1 >= len(ct):
            continue
        if ct[i + 1].text != "include" or ct[i + 1].line != t.line:
            continue
        rest = [u for u in ct[i + 2:i + 12] if u.line == t.line]
        if not rest:
            continue
        if rest[0].kind == "lit":
            out.append((t.line, rest[0].text.strip('"')))
        elif rest[0].text == "<":
            name = "".join(u.text for u in rest[1:]
                           if u.text != ">" and u.line == t.line)
            end = [u.text for u in rest].index(">") if ">" in [
                u.text for u in rest] else len(rest)
            name = "".join(u.text for u in rest[1:end])
            out.append((t.line, name))
    return out


# ---------------------------------------------------------------------------
# Check family: nondeterminism
# ---------------------------------------------------------------------------


def check_nondeterminism(rel, toks, findings):
    ct = code_tokens(toks)
    # The usage is the finding; firing on the #include line too would
    # double-report every hit (and headers also arrive transitively).
    include_lines = {line for line, _ in included_headers(ct)}
    for i, t in enumerate(ct):
        if t.kind != "ident" or t.line in include_lines:
            continue
        nxt = ct[i + 1].text if i + 1 < len(ct) else ""
        if t.text in NONDET_RAND_IDENTS:
            findings.append(Finding(
                rel, t.line, "nondet-rand",
                f"'{t.text}' is a nondeterminism source; draw from a "
                "seeded SplitRng stream instead"))
        elif t.text in NONDET_TIME_CALL_IDENTS and nxt == "(":
            findings.append(Finding(
                rel, t.line, "nondet-time",
                f"'{t.text}()' reads the wall clock; results must not "
                "depend on when they run"))
        elif t.text in NONDET_CLOCK_TYPES:
            findings.append(Finding(
                rel, t.line, "nondet-time",
                f"'std::chrono::{t.text}' in result-producing code; "
                "clocks may only feed logging/shutdown (allowlisted "
                "files)"))
        elif t.text in NONDET_UNORDERED:
            findings.append(Finding(
                rel, t.line, "nondet-unordered",
                f"'std::{t.text}' iteration order is implementation-"
                "defined; use std::map/std::set or a sorted vector in "
                "result-producing code"))


# ---------------------------------------------------------------------------
# Check family: hot path (ParallelFor lambda bodies)
# ---------------------------------------------------------------------------


def _lambda_bodies_in_call(ct, open_paren, close_paren):
    """Yields (body_start, body_end) for every lambda literal directly
    inside the argument list [open_paren+1, close_paren)."""
    j = open_paren + 1
    while j < close_paren:
        t = ct[j]
        if t.text == "[":
            cap_end = match_paren(ct, j)
            # Skip parameter list / specifiers up to the body brace.
            k = cap_end + 1
            while k < close_paren and ct[k].text != "{":
                if ct[k].text == "(":
                    k = match_paren(ct, k) + 1
                else:
                    k += 1
            if k < close_paren and ct[k].text == "{":
                body_end = match_paren(ct, k)
                yield k, body_end
                j = body_end + 1
                continue
            j = cap_end + 1
            continue
        j += 1


def check_hotpath(rel, toks, findings):
    ct = code_tokens(toks)
    for i, t in enumerate(ct):
        if (t.kind != "ident" or t.text not in PARALLEL_DISPATCHERS
                or i + 1 >= len(ct) or ct[i + 1].text != "("):
            continue
        close = match_paren(ct, i + 1)
        for b0, b1 in _lambda_bodies_in_call(ct, i + 1, close):
            _scan_hot_body(rel, ct, b0 + 1, b1, findings)


def _skip_template_args(ct, i, hi):
    """ct[i] is `<`: index just past its matching `>` (or hi)."""
    depth = 0
    j = i
    while j < hi:
        t = ct[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        elif t in ("(", "{", "["):
            j = match_paren(ct, j)
        if depth <= 0:
            return j + 1
        j += 1
    return hi


def _constructs_sized_container(ct, i, hi):
    """True when `std::vector<...>` / `std::string` at ct[i] is declared
    or built as a temporary with a non-empty constructor argument list,
    e.g. `std::vector<float> grads(n * dim)` or `std::string(n, 'x')`."""
    if i < 2 or ct[i - 1].text != "::" or ct[i - 2].text != "std":
        return False
    j = i + 1
    if ct[i].text == "vector":
        if j >= hi or ct[j].text != "<":
            return False
        j = _skip_template_args(ct, j, hi)
    if j < hi and ct[j].kind == "ident":
        j += 1  # the declared name
    if j < hi and ct[j].text in ("(", "{"):
        return match_paren(ct, j) > j + 1
    return False


def _scan_hot_body(rel, ct, lo, hi, findings):
    for i in range(lo, hi):
        t = ct[i]
        if t.kind != "ident":
            continue
        prev = ct[i - 1].text if i > 0 else ""
        nxt = ct[i + 1].text if i + 1 < len(ct) else ""
        if t.text == "new" and prev not in (".", "->", "::"):
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                "'new' inside a ParallelFor body; allocate a grow-only "
                "buffer before dispatch"))
        elif (t.text in HOTPATH_SIZED_CONTAINERS
              and _constructs_sized_container(ct, i, hi)):
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                f"sized 'std::{t.text}' construction inside a "
                "ParallelFor body; size the buffer before the dispatch "
                "(grow-only buffer rule, docs/static_analysis.md)"))
        elif t.text in HOTPATH_OWNING_MAKERS and nxt in ("<", "("):
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                f"'{t.text}' inside a ParallelFor body; build owned "
                "objects before the dispatch"))
        elif ((t.text in HOTPATH_MODEL_FACTORY_CALLS and nxt == "(")
              or t.text == "ModelFactory"):
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                f"'{t.text}' (model factory) inside a ParallelFor "
                "body; build models before the dispatch and borrow "
                "one per ThisThreadSlot()"))
        elif t.text in HOTPATH_ALLOC_CALLS and nxt == "(":
            kind = ("heap allocation" if t.text in
                    ("malloc", "calloc", "realloc", "free")
                    else "container growth")
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                f"'{t.text}' ({kind}) inside a ParallelFor body; "
                "size buffers before dispatch (grow-only buffer "
                "rule, docs/static_analysis.md)"))
        elif t.text == "function" and prev == "::" and nxt == "<":
            findings.append(Finding(
                rel, t.line, "hotpath-alloc",
                "'std::function' inside a ParallelFor body; type "
                "erasure heap-allocates per call site — borrow the "
                "callable with FunctionRef (src/common/function_ref.h)"))
        elif t.text in HOTPATH_LOCK_TYPES:
            findings.append(Finding(
                rel, t.line, "hotpath-lock",
                f"'{t.text}' inside a ParallelFor body; bodies must "
                "be lock-free (shape-only splits own disjoint data)"))
        elif (t.text in HOTPATH_LOCK_METHODS and nxt == "("
              and prev in (".", "->")):
            findings.append(Finding(
                rel, t.line, "hotpath-lock",
                f"'.{t.text}()' inside a ParallelFor body; bodies "
                "must be lock-free"))
        elif t.text in HOTPATH_IO_IDENTS:
            findings.append(Finding(
                rel, t.line, "hotpath-io",
                f"'{t.text}' (I/O) inside a ParallelFor body; log "
                "and persist outside the dispatch"))


# ---------------------------------------------------------------------------
# Check family: SIMD TU hygiene
# ---------------------------------------------------------------------------


def check_simd_flags(rel, compile_args, findings):
    if rel in SIMD_ISA_TUS:
        # The per-ISA TUs spell every multiply and add separately; only
        # -ffp-contract=off stops the compiler fusing them into an FMA
        # that rounds once where the scalar reference rounds twice. A TU
        # without a compile-db entry (no flags known) is not judged.
        contract = [a for a in compile_args
                    if a.startswith("-ffp-contract=")]
        if compile_args and (not contract
                             or contract[-1] != "-ffp-contract=off"):
            findings.append(Finding(
                rel, 0, "simd-fpcontract",
                "per-ISA SIMD TU built without -ffp-contract=off; the "
                "compiler may fuse its mul/add pairs and break bitwise "
                "equality with the scalar reference"))
        return
    for arg in compile_args:
        if MFLAG_RE.match(arg):
            findings.append(Finding(
                rel, 0, "simd-mflags",
                f"ISA flag '{arg}' on a TU outside the per-ISA set "
                "{simd_sse2,avx2,avx512}.cc; codegen must stay "
                "ISA-portable so the scalar reference is reachable"))


def check_simd_source(rel, toks, findings):
    ct = code_tokens(toks)
    if rel not in SIMD_INTERNAL_FILES:
        for line, header in included_headers(ct):
            if header.endswith("simd_internal.h"):
                findings.append(Finding(
                    rel, line, "simd-internal",
                    "simd_internal.h exposes the raw per-ISA tables; "
                    "go through simd::Kernels() dispatch instead"))
    if rel not in SIMD_INTRINSIC_FILES:
        for line, header in included_headers(ct):
            if os.path.basename(header) in INTRINSIC_HEADERS:
                findings.append(Finding(
                    rel, line, "simd-intrinsics",
                    f"<{header}> outside the per-ISA TUs; intrinsics "
                    "live behind the SimdKernels dispatch table"))
        for t in ct:
            if t.kind == "ident" and t.text.startswith(INTRINSIC_PREFIXES):
                findings.append(Finding(
                    rel, t.line, "simd-intrinsics",
                    f"intrinsic '{t.text}' outside the per-ISA TUs; "
                    "add a SimdKernels entry point instead"))


# ---------------------------------------------------------------------------
# Check family: nn (layers compute on the calling thread)
# ---------------------------------------------------------------------------


def check_nn_dispatch(rel, toks, findings):
    if not rel.startswith(NN_DIR):
        return
    ct = code_tokens(toks)
    for line, header in included_headers(ct):
        if header == NN_DISPATCH_HEADER:
            findings.append(Finding(
                rel, line, "nn-dispatch",
                f"{header} included in src/nn/; layers compute on the "
                "calling thread and the round's dispatch is the only "
                "fan-out"))
    for t in ct:
        if t.kind == "ident" and t.text in NN_DISPATCH_IDENTS:
            findings.append(Finding(
                rel, t.line, "nn-dispatch",
                f"'{t.text}' in src/nn/; layers compute on the calling "
                "thread and the round's dispatch is the only fan-out"))


# ---------------------------------------------------------------------------
# Check family: Status discipline
# ---------------------------------------------------------------------------

# Tokens that, appearing immediately before a call chain, mean the call
# result is consumed (assigned, returned, tested, passed, cast...).
_CONSUMED_BEFORE = {
    "=", "return", "(", ",", "!", "?", ":", "&&", "||", "==", "!=",
    "co_return", "<<", ">>", "+", "-", "*", "/", "%", "&", "|", "^",
    "+=", "-=", "*=", "/=",
}


def collect_status_functions(paths):
    """Scans headers/sources for functions declared to return Status or
    Result<T>; returns the set of their names. A name also declared with
    a different return type anywhere in the corpus is dropped — without
    type information a call through the ambiguous name cannot be
    attributed, and a heuristic linter must not cry wolf (the
    [[nodiscard]] attribute on Status/Result is the authoritative,
    type-aware enforcement; this check is the no-compiler belt)."""
    names = set()
    ambiguous = set()
    for path in paths:
        toks = code_tokens(tokenize_file(path))
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == "ident" and t.text in ("Status", "Result"):
                j = i + 1
                if j < n and toks[j].text == "<":
                    # Skip the template argument list (no match_paren:
                    # '<' nests but never crosses a declaration).
                    depth = 0
                    while j < n:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif toks[j].text in (";", "{"):
                            break
                        j += 1
                    j += 1
                if (j < n and toks[j].kind == "ident"
                        and j + 1 < n and toks[j + 1].text == "("
                        and toks[j].text not in ("OK", "operator")):
                    names.add(toks[j].text)
                i = j + 1
                continue
            # Declaration with a non-Status return type: `type Name(`.
            if (t.kind == "ident" and i + 2 < n
                    and toks[i + 1].kind == "ident"
                    and toks[i + 2].text == "("
                    and t.text not in ("return", "new", "case", "else",
                                       "co_return", "co_await")):
                ambiguous.add(toks[i + 1].text)
            i += 1
    return names - ambiguous



def check_status_discipline(rel, toks, status_fns, findings):
    ct = code_tokens(toks)
    n = len(ct)
    i = 0
    while i < n:
        # Statement starts: after ; { } or at token 0.
        if i > 0 and ct[i - 1].text not in (";", "{", "}"):
            i += 1
            continue
        # Walk a name chain: ident (:: . -> ident)* '('
        j = i
        last_name = None
        while j < n:
            if ct[j].kind == "ident":
                last_name = ct[j].text
                j += 1
                if j < n and ct[j].text in ("::", ".", "->"):
                    j += 1
                    continue
                break
            break
        if (last_name in status_fns and j < n and ct[j].text == "("
                and ct[i].text not in ("return", "if", "while", "for",
                                       "switch", "case", "delete")):
            close = match_paren(ct, j)
            if close + 1 < n and ct[close + 1].text == ";":
                findings.append(Finding(
                    rel, ct[i].line, "status-discard",
                    f"result of Status/Result-returning '{last_name}' "
                    "is discarded; propagate with DPBR_RETURN_NOT_OK, "
                    "handle it, or cast to (void) with a reason"))
                i = close + 1
                continue
        i += 1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_compile_db(build_dir):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        return None
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    db = {}
    for e in entries:
        path = os.path.normpath(
            os.path.join(e.get("directory", ""), e["file"]))
        if "arguments" in e:
            args = e["arguments"]
        else:
            # Simple shell-split is fine for CMake-generated commands.
            args = e.get("command", "").split()
        db[path] = args
    return db


def repo_rel(path):
    return os.path.relpath(os.path.normpath(path), REPO_ROOT)


def lint_paths(build_dir):
    """(linted source files, header files, compile db) for src/."""
    db = load_compile_db(build_dir) or {}
    sources = sorted(p for p in db
                     if repo_rel(p).startswith("src" + os.sep))
    headers = []
    for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in sorted(names):
            if name.endswith(".h"):
                headers.append(os.path.join(dirpath, name))
    if not sources:
        # No compile db (e.g. fresh checkout): lint every .cc under src/
        # without per-TU flags; the compile-flag checks are skipped.
        for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
            for name in sorted(names):
                if name.endswith(".cc"):
                    sources.append(os.path.join(dirpath, name))
    return sources, headers, db


def collect_findings(rel, toks, compile_args, status_fns):
    """Every check over one file's tokens, minus suppressed findings."""
    findings = []
    check_simd_flags(rel, compile_args, findings)
    check_simd_source(rel, toks, findings)
    check_nondeterminism(rel, toks, findings)
    check_hotpath(rel, toks, findings)
    check_status_discipline(rel, toks, status_fns, findings)
    check_nn_dispatch(rel, toks, findings)
    allowed = collect_suppressions(toks)
    return [f for f in findings
            if f.check not in allowed.get(f.line, ())
            and not file_allowed(f.check, rel)]


def run_checks(path, compile_args, status_fns):
    """All applicable checks for one file; returns surviving findings."""
    return collect_findings(repo_rel(path), tokenize_file(path),
                            compile_args, status_fns)


def lint_tree(build_dir):
    sources, headers, db = lint_paths(build_dir)
    status_fns = collect_status_functions(headers)
    findings = []
    for path in headers + sources:
        findings.extend(run_checks(path, db.get(path, []), status_fns))
    return findings


# ---------------------------------------------------------------------------
# Self-test over tests/lint/ fixtures
# ---------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"expect-lint:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
_FLAGS_RE = re.compile(r"lint-compile-flags:\s*(.+)")
_AS_RE = re.compile(r"lint-as:\s*(\S+)")


def self_test(fixture_dir):
    """Runs every check over the fixture corpus and demands an exact
    match between produced findings and `// expect-lint:` annotations.
    Fixture headers may carry `// lint-compile-flags: -mavx2 ...` (a
    synthetic compile-db entry) and `// lint-as: src/foo.cc` (the
    repo-relative identity the fixture is linted under)."""
    fixtures = []
    for dirpath, _, names in os.walk(fixture_dir):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                fixtures.append(os.path.join(dirpath, name))
    if not fixtures:
        print(f"self-test: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2

    # Status-returning names come from the fixture corpus itself, so the
    # status-discard fixture is hermetic.
    status_fns = collect_status_functions(fixtures)
    failures = []
    checks_fired = set()
    for path in fixtures:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        toks = tokenize_fallback(text)
        compile_args = []
        lint_as = None
        for t in toks:
            if t.kind != "comment":
                continue
            fm = _FLAGS_RE.search(t.text)
            if fm:
                compile_args = fm.group(1).split()
            am = _AS_RE.search(t.text)
            if am:
                lint_as = am.group(1)
        rel = lint_as or repo_rel(path)

        expected = set()
        for t in toks:
            if t.kind != "comment":
                continue
            m = _EXPECT_RE.search(t.text)
            if m:
                for c in m.group(1).split(","):
                    expected.add((t.line, c.strip()))

        findings = collect_findings(rel, toks, compile_args, status_fns)

        got = {(f.line, f.check) for f in findings}
        # Compile-flag findings carry line 0 (they come from the compile
        # command, not a source line); expectations name them via a
        # comment anywhere -> normalize both sides.
        for check in COMPILE_FLAG_CHECKS:
            exp_flag = {e for e in expected if e[1] == check}
            got_flag = {g for g in got if g[1] == check}
            if exp_flag and got_flag:
                expected -= exp_flag
                got -= got_flag
                checks_fired.add(check)
        checks_fired.update(c for _, c in got)
        base = os.path.relpath(path, fixture_dir)
        for line, check in sorted(expected - got):
            failures.append(f"{base}:{line}: expected [{check}] "
                            "but the linter did not fire")
        for line, check in sorted(got - expected):
            failures.append(f"{base}:{line}: unexpected [{check}] "
                            "finding")

    for check in ALL_CHECKS:
        if check not in checks_fired:
            failures.append(
                f"check [{check}] never fired on any fixture; add a "
                "known-bad fixture proving it works")

    if failures:
        for f in failures:
            print(f"self-test: {f}")
        print(f"\ndpbr_lint self-test: {len(failures)} failure(s) over "
              f"{len(fixtures)} fixture(s)")
        return 1
    print(f"dpbr_lint self-test: {len(fixtures)} fixture(s), all "
          f"{len(ALL_CHECKS)} checks fired and matched expectations")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-p", "--build-dir", default=os.path.join(
        REPO_ROOT, "build"), help="directory holding "
        "compile_commands.json (default: ./build)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every check fires on its tests/lint/ "
                    "fixture and nowhere else")
    ap.add_argument("--fixture-dir", default=os.path.join(
        REPO_ROOT, "tests", "lint", "fixtures"))
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="restrict linting to these files")
    args = ap.parse_args()

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0
    if args.self_test:
        return self_test(args.fixture_dir)

    if args.paths:
        _, headers, db = lint_paths(args.build_dir)
        status_fns = collect_status_functions(headers)
        findings = []
        for p in args.paths:
            ap_ = os.path.abspath(p)
            findings.extend(run_checks(ap_, db.get(ap_, []), status_fns))
    else:
        findings = lint_tree(args.build_dir)

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    for f in findings:
        loc = f"{f.path}:{f.line}" if f.line else f.path
        print(f"{loc}: [{f.check}] {f.msg}")
    if findings:
        print(f"\ndpbr_lint: {len(findings)} finding(s)")
        return 1
    print("dpbr_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
