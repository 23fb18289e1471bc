#!/usr/bin/env python3
"""Decoder-discipline lint for the hybridtor tree.

The hand-rolled decoders (MRT, snapshot, HTTP) and the thread pool rest on a
small set of invariants that generic tooling cannot check.  This linter
enforces them over ``src/`` and ``tools/``:

  raw-cast          ``reinterpret_cast`` is only allowed inside util/bytes —
                    everywhere else, bytes from an input buffer must go
                    through the bounds-checked ByteReader accessors.
  raw-memcpy        ``memcpy``/``memmove`` outside util/bytes: same rationale;
                    a size that did not pass a bounds check must not drive a
                    raw copy.
  wire-count-alloc  An allocation (``reserve``/``resize``/vector-size ctor)
                    sized directly by a ByteReader integer read (``r.u16()``
                    etc.) on the same statement.  Counts from the wire must
                    land in a named variable and be bounded against the
                    bytes actually present *before* any allocation (see
                    the count bounds in snapshot/layout.cpp's validate_v2
                    for the idiom).
  unchecked-stoi    ``std::stoi``/``atoi``/``strtol``/``sscanf`` family:
                    these accept leading junk, ignore trailing junk, or have
                    UB on overflow.  Use util/strings' parse_u64/parse_asn.
  naked-thread      ``std::thread`` outside util/thread_pool: ad-hoc threads
                    bypass the pool's shutdown ordering and shard
                    determinism.  (``std::this_thread`` is fine.)
  raw-mmap          ``mmap``/``munmap``/``madvise`` (and friends) outside
                    util/mmap_file and snapshot/layout*: mappings must go
                    through the RAII MmapFile wrapper so lifetime and unmap
                    ordering stay in one place, and raw views over mapped
                    bytes stay confined to the v2 layout module where every
                    access is offset-validated first.
  adhoc-atomic-counter
                    a non-bool ``std::atomic<...>`` outside src/obs and
                    util/thread_pool.  Telemetry counters belong in
                    obs::MetricsRegistry (sharded, named, scraped by both
                    metrics endpoints) — a raw atomic is invisible to
                    /metrics and regrows the pre-registry drift between
                    counted and reported values.  Atomic *flags*
                    (``std::atomic<bool>``) are lifecycle state, not
                    telemetry, and stay fine; a non-counter integral atomic
                    (e.g. a uniquifier that must survive registry resets)
                    documents itself with an allow comment.
  whole-file-rdbuf  ``out << in.rdbuf()``, the whole-file read idiom.  It
                    never sets ``in``'s error bits: a read error, or a
                    directory (which a stream opens on Linux and reads as
                    end-of-file), passes as an empty file.  Read files
                    through util/bytes' load_bytes, which checks each case.
  pragma-once       every header starts its include guard with
                    ``#pragma once``.
  namespace         every file under src/ opens a ``namespace htor`` (or a
                    nested ``htor::x``) and closes it with the
                    ``}  // namespace`` trailer comment.

Silencing a finding
-------------------
A violation that is genuinely fine (e.g. the sockaddr casts the BSD socket
API forces on the daemon) is silenced with an allow comment carrying the
rule id and a non-empty reason, on the same line or the line above::

    // lint: allow(raw-cast) sockaddr_in -> sockaddr is the sockets ABI
    ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));

An allow comment with no reason is itself a finding (``allow-no-reason``),
so every suppression documents why it is safe.

Usage::

    tools/lint.py --root <repo root>     # lint the tree; exit 1 on findings
    tools/lint.py --self-test            # prove each rule catches a seeded
                                         # violation; exit 1 on any miss
"""

import argparse
import pathlib
import re
import sys
import tempfile

# Files where a rule does not apply: the one module allowed to do raw byte
# work, the one module allowed to own threads, and the two modules allowed
# to touch memory mappings (the RAII wrapper and the offset-validated v2
# layout views).
BYTES_HOME = re.compile(r"(^|/)src/util/bytes\.(hpp|cpp)$")
THREAD_HOME = re.compile(r"(^|/)src/util/thread_pool\.(hpp|cpp)$")
MMAP_HOME = re.compile(r"(^|/)src/(util/mmap_file|snapshot/layout[^/]*)\.(hpp|cpp)$")
# Where raw integral atomics are the implementation, not ad-hoc telemetry:
# the metrics registry's own cells and the thread pool's executed counter
# (exposed to the registry via a polled callback).
OBS_HOME = re.compile(r"(^|/)src/(obs/[^/]+|util/thread_pool)\.(hpp|cpp)$")
ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([\w-]+)\)\s*(.*)$")
LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_code(line):
    """Remove string literals and trailing // comments so rule regexes never
    fire on prose (error messages mentioning 'atoi', commented-out code)."""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


# Per-line rules: (rule id, compiled regex over stripped code, message,
# predicate over the repo-relative posix path for "does this rule apply").
def _not_bytes_home(path):
    return not BYTES_HOME.search(path)


def _not_thread_home(path):
    return not THREAD_HOME.search(path)


def _not_mmap_home(path):
    return not MMAP_HOME.search(path)


def _not_obs_home(path):
    return not OBS_HOME.search(path)


LINE_RULES = [
    (
        "raw-cast",
        re.compile(r"\breinterpret_cast\s*<"),
        "reinterpret_cast outside util/bytes; decode through ByteReader "
        "or justify with an allow comment",
        _not_bytes_home,
    ),
    (
        "raw-memcpy",
        re.compile(r"\b(?:std::)?mem(?:cpy|move)\s*\("),
        "raw memcpy/memmove outside util/bytes; sizes must come from a "
        "bounds-checked reader",
        _not_bytes_home,
    ),
    (
        "wire-count-alloc",
        re.compile(
            r"(?:\.(?:reserve|resize)\s*\(|\bstd::vector\s*<[^;>]*>\s*\w*\s*\()"
            r"[^;)]*\b\w+\.u(?:8|16|32|64)\s*\(\s*\)"
        ),
        "allocation sized directly by a wire integer; name the count and "
        "bound it against the bytes present first (see validate_v2's count bounds)",
        lambda path: True,
    ),
    (
        "unchecked-stoi",
        re.compile(
            r"\b(?:std::)?(?:stoi|stol|stoll|stoul|stoull|atoi|atol|atoll|"
            r"strtol|strtoll|strtoul|strtoull|sscanf)\s*\("
        ),
        "locale/overflow-unsafe numeric parse; use util/strings "
        "parse_u64/parse_asn",
        lambda path: True,
    ),
    (
        "naked-thread",
        re.compile(r"\bstd::thread\b(?!::)"),
        "std::thread outside util/thread_pool; submit work to the pool or "
        "justify with an allow comment",
        _not_thread_home,
    ),
    (
        "raw-mmap",
        re.compile(r"\b(?:mmap|munmap|mremap|madvise|mprotect)\s*\("),
        "raw memory-mapping call outside util/mmap_file and "
        "snapshot/layout*; go through the MmapFile RAII wrapper or justify "
        "with an allow comment",
        _not_mmap_home,
    ),
    (
        "adhoc-atomic-counter",
        # Any std::atomic<...> whose argument is not bool: counters belong
        # in obs::MetricsRegistry, and the remaining legitimate uses (flag
        # enums, uniquifiers) are rare enough to carry an allow comment.
        re.compile(r"\bstd::atomic\s*<\s*(?!bool\s*>)"),
        "non-bool std::atomic outside src/obs and util/thread_pool; count "
        "through obs::MetricsRegistry so /metrics sees it, or justify with "
        "an allow comment",
        _not_obs_home,
    ),
    (
        "whole-file-rdbuf",
        re.compile(r"<<\s*[\w.:\->()\[\]]*?\brdbuf\s*\(\s*\)"),
        "whole-file read through << rdbuf() hides read errors and reads a "
        "directory as empty; use load_bytes (util/bytes)",
        lambda path: True,
    ),
]


def lint_file(path, rel, text):
    findings = []
    lines = text.splitlines()

    # Collect allow comments: rule id -> set of line numbers they cover.
    # An allow covers its own line, any continuation comment lines below it,
    # and the first code line after the comment block.
    allowed = {}
    for i, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            findings.append(
                Finding(rel, i, "allow-no-reason",
                        f"allow({rule}) without a reason; say why it is safe")
            )
        covered = {i}
        j = i + 1
        while j <= len(lines) and lines[j - 1].lstrip().startswith("//"):
            covered.add(j)
            j += 1
        covered.add(j)
        allowed.setdefault(rule, set()).update(covered)

    for i, line in enumerate(lines, start=1):
        code = strip_code(line)
        for rule, regex, message, applies in LINE_RULES:
            if not applies(rel):
                continue
            if not regex.search(code):
                continue
            if i in allowed.get(rule, ()):
                continue
            findings.append(Finding(rel, i, rule, message))

    in_src = rel.startswith("src/")
    if in_src and rel.endswith(".hpp") and "#pragma once" not in text:
        findings.append(Finding(rel, 1, "pragma-once", "header lacks #pragma once"))
    if in_src:
        if not re.search(r"\bnamespace\s+htor\b", text):
            findings.append(
                Finding(rel, 1, "namespace", "file does not open namespace htor")
            )
        elif not re.search(r"\}\s*//\s*namespace", text):
            findings.append(
                Finding(rel, len(lines), "namespace",
                        "closing brace lacks the }  // namespace trailer")
            )
    return findings


def lint_tree(root):
    root = pathlib.Path(root)
    findings = []
    paths = []
    for sub in ("src", "tools"):
        base = root / sub
        if base.is_dir():
            paths += sorted(base.rglob("*.hpp")) + sorted(base.rglob("*.cpp"))
    for path in paths:
        rel = path.relative_to(root).as_posix()
        findings += lint_file(path, rel, path.read_text(encoding="utf-8"))
    return findings


# ------------------------------------------------------------- self-test

# One seeded violation per rule, plus positives that must stay clean.  Each
# entry: (name, relative path, source text, set of rule ids that MUST fire).
SELF_TEST_CASES = [
    (
        "raw cast from an input buffer",
        "src/mrt/bad_cast.cpp",
        "#pragma once\nnamespace htor {\n"
        "const int* peek(const unsigned char* p) { return reinterpret_cast<const int*>(p); }\n"
        "}  // namespace htor\n",
        {"raw-cast"},
    ),
    (
        "unchecked memcpy",
        "src/mrt/bad_copy.cpp",
        "namespace htor {\n"
        "void copy(char* dst, const char* src, unsigned long n) { memcpy(dst, src, n); }\n"
        "}  // namespace htor\n",
        {"raw-memcpy"},
    ),
    (
        "allocation sized straight off the wire",
        "src/snapshot/bad_alloc.cpp",
        "namespace htor {\n"
        "void decode(ByteReader& r, std::vector<int>& v) { v.reserve(r.u64()); }\n"
        "}  // namespace htor\n",
        {"wire-count-alloc"},
    ),
    (
        "std::stoi on untrusted text",
        "src/rpsl/bad_parse.cpp",
        "namespace htor {\n"
        "int parse(const std::string& s) { return std::stoi(s); }\n"
        "}  // namespace htor\n",
        {"unchecked-stoi"},
    ),
    (
        "naked std::thread",
        "src/core/bad_thread.cpp",
        "namespace htor {\n"
        "void spawn() { std::thread t([] {}); t.join(); }\n"
        "}  // namespace htor\n",
        {"naked-thread"},
    ),
    (
        "mmap outside the wrapper",
        "src/server/bad_map.cpp",
        "namespace htor {\n"
        "void* map_it(unsigned long n, int fd) {\n"
        "  return mmap(nullptr, n, 1, 2, fd, 0);\n"
        "}\n"
        "}  // namespace htor\n",
        {"raw-mmap"},
    ),
    (
        "ad-hoc atomic counter outside the registry",
        "src/server/bad_counter.cpp",
        "namespace htor {\n"
        "struct S { std::atomic<std::uint64_t> requests_{0}; };\n"
        "}  // namespace htor\n",
        {"adhoc-atomic-counter"},
    ),
    (
        "whole-file read through rdbuf",
        "tools/bad_slurp.cpp",
        "namespace htor {\n"
        "std::string slurp(std::ifstream& in) {\n"
        "  std::ostringstream out;\n"
        "  out << in.rdbuf();\n"
        "  return out.str();\n"
        "}\n"
        "}  // namespace htor\n",
        {"whole-file-rdbuf"},
    ),
    (
        "header without pragma once",
        "src/util/bad_header.hpp",
        "namespace htor {\nint x();\n}  // namespace htor\n",
        {"pragma-once"},
    ),
    (
        "file outside namespace htor",
        "src/util/bad_namespace.cpp",
        "#pragma once\nint loose_function() { return 1; }\n",
        {"namespace"},
    ),
    (
        "allow comment without a reason",
        "src/server/bad_allow.cpp",
        "namespace htor {\n"
        "// lint: allow(raw-cast)\n"
        "void* p = reinterpret_cast<void*>(0);\n"
        "}  // namespace htor\n",
        {"allow-no-reason"},
    ),
    # Negatives: these must NOT fire.
    (
        "allow comment with a reason silences the finding",
        "src/server/good_allow.cpp",
        "namespace htor {\n"
        "// lint: allow(raw-cast) sockaddr_in -> sockaddr is the sockets ABI\n"
        "void use(const void* a) { (void)reinterpret_cast<const char*>(a); }\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "rule words inside strings and comments stay quiet",
        "src/util/good_prose.cpp",
        "namespace htor {\n"
        'const char* kMsg = "never call atoi or memcpy here";\n'
        "// a comment may mention std::thread and reinterpret_cast freely\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "mmap inside the RAII wrapper is its job",
        "src/util/mmap_file.cpp",
        "namespace htor {\n"
        "void* map_it(unsigned long n, int fd) {\n"
        "  return mmap(nullptr, n, 1, 2, fd, 0);\n"
        "}\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "atomic flags are lifecycle state, not telemetry",
        "src/server/good_flag.cpp",
        "namespace htor {\n"
        "struct S { std::atomic<bool> stop_{false}; };\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "the registry's own cells are the one home for raw atomics",
        "src/obs/good_cells.cpp",
        "namespace htor {\n"
        "struct Cell { std::atomic<std::uint64_t> value{0}; };\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "setting a stream's buffer through rdbuf() is no read",
        "src/mrt/good_rdbuf.cpp",
        "namespace htor {\n"
        "void buffer(std::ifstream& in, std::vector<char>& io) {\n"
        "  in.rdbuf()->pubsetbuf(io.data(), 4096);\n"
        "}\n"
        "}  // namespace htor\n",
        set(),
    ),
    (
        "bounded count through a named variable is fine",
        "src/snapshot/good_alloc.cpp",
        "namespace htor {\n"
        "void decode(ByteReader& r, std::vector<int>& v) {\n"
        "  const std::uint64_t count = r.u64();\n"
        "  if (count > r.remaining() / 9) throw DecodeError(\"overrun\");\n"
        "  v.reserve(count);\n"
        "}\n"
        "}  // namespace htor\n",
        set(),
    ),
]


def self_test():
    failures = 0
    with tempfile.TemporaryDirectory(prefix="htor_lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for name, rel, text, expected in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            fired = {f.rule for f in lint_file(path, rel, text)}
            path.unlink()
            missing = expected - fired
            unexpected = fired - expected if not expected else set()
            if missing or unexpected:
                failures += 1
                print(f"self-test FAIL: {name}: expected {sorted(expected) or 'none'}, "
                      f"got {sorted(fired) or 'none'}")
            else:
                print(f"self-test ok:   {name}")
    if failures:
        print(f"lint self-test: {failures} case(s) failed")
        return 1
    print(f"lint self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="seed a violation of each rule and assert detection")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
