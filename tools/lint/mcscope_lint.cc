/**
 * @file
 * mcscope-lint: the project-invariant static analyzer.
 *
 * The reproduction's headline numbers are only trustworthy because the
 * engine is bit-deterministic and its steady-state loop is
 * allocation-free.  Those properties are easy to rot by accident -- a
 * stray rand() in a cost model, an unordered_map iteration on a digest
 * path, a push_back inside the hot loop -- so this tool makes them
 * machine-checked.  It is deliberately a lexical analyzer, not a
 * compiler plugin: it tokenizes the tree (comments, string literals,
 * and raw strings stripped) and enforces a small catalog of project
 * rules:
 *
 *   DET-1   no wall-clock or libc randomness (rand, srand, *rand48,
 *           std::random_device, time(NULL)) in src/sim, src/core, or
 *           src/kernels -- simulations must be bit-deterministic.
 *   DET-2   no iteration over std::unordered_map / std::unordered_set
 *           in ordered-output units (journal, runner, scenario, plan,
 *           json): iteration order is implementation-defined and would
 *           silently break content digests and byte-identical resume.
 *   HOT-1   no heap activity between // MCSCOPE_HOT_BEGIN and
 *           // MCSCOPE_HOT_END markers: no new/delete, no malloc
 *           family, no std::string/std::vector/... construction, and
 *           no push_back/insert/resize on non-SmallVec containers.
 *           The markers bracket the Engine::run steady-state loop; the
 *           runtime counterpart is sim/alloc_guard.
 *   HOT-2   designated steady-state units (src/sim/engine.cc) must
 *           contain at least one MCSCOPE_HOT_BEGIN ... MCSCOPE_HOT_END
 *           region -- deleting the markers would silently disable
 *           every HOT-1 check on the engine's actual hot loop.
 *   FD-1    every open/openat/creat/mkstemp call site carries
 *           O_CLOEXEC (mkstemp cannot, so it is always flagged toward
 *           mkostemp); socket/accept4 call sites carry SOCK_CLOEXEC
 *           and bare accept is always flagged toward accept4; and
 *           fork/exec* appear only in src/util/subprocess.cc -- child
 *           processes must not inherit journal, lock, cache, or
 *           listening-socket descriptors.
 *   PARSE-1 strtol/strtoul/strtod family call sites check errno or the
 *           end pointer; silently accepting trailing garbage or
 *           overflow has bitten the CLI before.
 *
 * Escapes: a finding is suppressed by `MCSCOPE_LINT_ALLOW(<rule>)` in
 * a comment on the offending line or on the line directly above it.
 * Intentionally-accepted legacy findings can also be listed in a
 * baseline file (`--baseline`), one `path:line:rule` per line; the
 * shipped baseline is empty and should stay that way.
 *
 * Usage:
 *   mcscope-lint [--baseline FILE] [--list-rules] PATH...
 *
 * PATHs are files or directories (directories are walked recursively
 * for .cc/.hh/.cpp/.hpp, skipping build/ and .git/).  Exit status: 0
 * clean, 1 findings, 2 usage or I/O error.
 *
 * The tool is self-contained (standard library only) so it can be
 * built and run before any of the project libraries compile.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Findings and rule metadata.

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct RuleDoc
{
    const char *rule;
    const char *summary;
};

constexpr RuleDoc kRuleCatalog[] = {
    {"DET-1", "no libc randomness or wall-clock seeds in "
              "src/sim, src/core, src/kernels"},
    {"DET-2", "no unordered_map/unordered_set iteration in "
              "ordered-output units (journal, runner, scenario, "
              "plan, json, coherence)"},
    {"HOT-1", "no heap allocation between MCSCOPE_HOT_BEGIN/END "
              "markers"},
    {"HOT-2", "designated steady-state units must contain hot "
              "markers (src/sim/engine.cc)"},
    {"FD-1", "open/openat/creat need O_CLOEXEC and socket/accept4 "
             "need SOCK_CLOEXEC; mkstemp and bare accept are "
             "forbidden; fork/exec only in src/util/subprocess.cc"},
    {"PARSE-1", "strto* call sites must check errno or the end "
                "pointer"},
};

/** Identifiers whose call is banned by DET-1. */
const std::set<std::string> kDet1Calls = {
    "rand",    "srand",   "srandom", "random",  "rand_r",
    "drand48", "erand48", "lrand48", "mrand48", "jrand48",
};

/** Directory fragments DET-1 applies to. */
const char *const kDet1Paths[] = {"src/sim/", "src/core/",
                                  "src/kernels/"};

/** Path fragments naming the ordered-output units for DET-2. */
const char *const kDet2Paths[] = {
    "src/core/journal",     "src/core/runner", "src/core/scenario",
    "src/core/plan",        "src/util/json",
    // Probe/invalidation flows feed Work lists and hence audit
    // digests; their emission order must be deterministic.
    "src/machine/coherence",
    // Registry listings feed sweep expansions, digests, and CLI
    // output; machine iteration order must not depend on hashing.
    "src/machine/registry",
    "src/machine/serialize",
};

/** Heap-allocating type names banned in hot regions (HOT-1). */
const std::set<std::string> kHotHeapTypes = {
    "string",        "wstring",       "ostringstream",
    "istringstream", "stringstream",  "vector",
    "deque",         "list",          "map",
    "multimap",      "set",           "multiset",
    "unordered_map", "unordered_set", "function",
};

/** Allocation entry points banned in hot regions (HOT-1). */
const std::set<std::string> kHotAllocCalls = {
    "malloc",      "calloc",         "realloc",     "free",
    "strdup",      "aligned_alloc",  "make_unique", "make_shared",
    "to_string",   "posix_memalign",
};

/** Container mutators that may allocate (HOT-1, non-SmallVec only). */
const std::set<std::string> kHotGrowCalls = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace",   "insert",       "resize",     "reserve",
    "append",    "assign",
};

/** Container types whose growth is exempt from HOT-1. */
const std::set<std::string> kSmallVecTypes = {"SmallVec", "PathVec",
                                              "OwnerVec"};

/**
 * Files that MUST carry at least one hot region (HOT-2).  These hold
 * the engine's steady-state event loop; without markers, HOT-1 has
 * nothing to check there and the zero-allocation contract is only
 * enforced at runtime in debug builds.  Matched as path suffixes.
 */
const char *const kHotRequiredFiles[] = {
    "src/sim/engine.cc",
};

/** strto* family checked by PARSE-1 (all take the end pointer 2nd). */
const std::set<std::string> kParseCalls = {
    "strtol",  "strtoul",  "strtoll",   "strtoull", "strtod",
    "strtof",  "strtold",  "strtoimax", "strtoumax",
};

/** Calls FD-1 requires O_CLOEXEC on. */
const std::set<std::string> kFdOpenCalls = {"open", "openat", "creat",
                                            "mkostemp"};

/**
 * Calls FD-1 requires SOCK_CLOEXEC on (the serve daemon's listener
 * and per-peer sockets must not leak into forked workers any more
 * than the journal descriptor may).
 */
const std::set<std::string> kFdSocketCalls = {"socket", "accept4"};

/** Process-spawning calls FD-1 confines to src/util/subprocess.cc. */
const std::set<std::string> kFdSpawnCalls = {
    "fork",   "vfork",  "execv",       "execve",       "execvp",
    "execl",  "execlp", "execle",      "execvpe",      "posix_spawn",
    "posix_spawnp",
};

// ---------------------------------------------------------------------
// Source model: blanked code + per-line comment text.

/**
 * One scanned file: `code` is the source with comments and string /
 * character literals replaced by spaces (newlines preserved, so
 * offsets map to the original lines), and `commentText[i]` holds the
 * concatenated comment content of 1-based line i+1 (markers are only
 * honored inside real comments, never inside string literals).
 */
struct SourceModel
{
    std::string code;
    std::vector<std::string> commentText; ///< index 0 = line 1
    int lineCount = 0;
};

/** True when `c` may start or continue an identifier. */
bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

SourceModel
blankSource(const std::string &text)
{
    SourceModel m;
    m.code.reserve(text.size());
    int line = 1;
    auto commentAt = [&](int l) -> std::string & {
        if (static_cast<int>(m.commentText.size()) < l)
            m.commentText.resize(static_cast<size_t>(l));
        return m.commentText[static_cast<size_t>(l) - 1];
    };

    size_t i = 0;
    const size_t n = text.size();
    while (i < n) {
        char c = text[i];
        if (c == '\n') {
            m.code.push_back('\n');
            ++line;
            ++i;
            continue;
        }
        // Line comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            while (i < n && text[i] != '\n') {
                commentAt(line).push_back(text[i]);
                m.code.push_back(' ');
                ++i;
            }
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            m.code.append("  ");
            i += 2;
            while (i < n) {
                if (text[i] == '*' && i + 1 < n && text[i + 1] == '/') {
                    m.code.append("  ");
                    i += 2;
                    break;
                }
                if (text[i] == '\n') {
                    m.code.push_back('\n');
                    ++line;
                } else {
                    commentAt(line).push_back(text[i]);
                    m.code.push_back(' ');
                }
                ++i;
            }
            continue;
        }
        // Raw string literal: R"delim( ... )delim".
        if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
            (i == 0 || !identChar(text[i - 1]))) {
            size_t d0 = i + 2;
            size_t dp = d0;
            while (dp < n && text[dp] != '(' && text[dp] != '\n' &&
                   dp - d0 < 16)
                ++dp;
            if (dp < n && text[dp] == '(') {
                std::string close =
                    ")" + text.substr(d0, dp - d0) + "\"";
                m.code.append(dp + 1 - i, ' ');
                i = dp + 1;
                while (i < n) {
                    if (text.compare(i, close.size(), close) == 0) {
                        m.code.append(close.size(), ' ');
                        i += close.size();
                        break;
                    }
                    if (text[i] == '\n') {
                        m.code.push_back('\n');
                        ++line;
                    } else {
                        m.code.push_back(' ');
                    }
                    ++i;
                }
                continue;
            }
        }
        // String literal.
        if (c == '"') {
            m.code.push_back(' ');
            ++i;
            while (i < n && text[i] != '"') {
                if (text[i] == '\\' && i + 1 < n) {
                    m.code.append(text[i + 1] == '\n' ? "\0" : "  ", 2);
                    if (text[i + 1] == '\n') {
                        m.code.pop_back();
                        m.code.pop_back();
                        m.code.append(" \n");
                        ++line;
                    }
                    i += 2;
                    continue;
                }
                if (text[i] == '\n') { // unterminated; re-sync
                    m.code.push_back('\n');
                    ++line;
                    ++i;
                    break;
                }
                m.code.push_back(' ');
                ++i;
            }
            if (i < n && text[i] == '"') {
                m.code.push_back(' ');
                ++i;
            }
            continue;
        }
        // Character literal -- but not a digit separator (1'000).
        if (c == '\'' && (i == 0 || !identChar(text[i - 1]))) {
            m.code.push_back(' ');
            ++i;
            while (i < n && text[i] != '\'' && text[i] != '\n') {
                if (text[i] == '\\' && i + 1 < n) {
                    m.code.append("  ");
                    i += 2;
                    continue;
                }
                m.code.push_back(' ');
                ++i;
            }
            if (i < n && text[i] == '\'') {
                m.code.push_back(' ');
                ++i;
            }
            continue;
        }
        m.code.push_back(c);
        ++i;
    }
    m.lineCount = line;
    if (static_cast<int>(m.commentText.size()) < line)
        m.commentText.resize(static_cast<size_t>(line));
    return m;
}

// ---------------------------------------------------------------------
// Tokenizer over the blanked code.

struct Tok
{
    std::string text;
    int line = 0;
    bool ident = false;
};

std::vector<Tok>
tokenize(const std::string &code)
{
    std::vector<Tok> toks;
    int line = 1;
    size_t i = 0;
    const size_t n = code.size();
    while (i < n) {
        char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        if (identChar(c) &&
            std::isdigit(static_cast<unsigned char>(c)) == 0) {
            size_t j = i;
            while (j < n && identChar(code[j]))
                ++j;
            toks.push_back({code.substr(i, j - i), line, true});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            size_t j = i;
            while (j < n && (identChar(code[j]) || code[j] == '.'))
                ++j;
            toks.push_back({code.substr(i, j - i), line, false});
            i = j;
            continue;
        }
        // Multi-char punctuation the rules care about.
        if (c == ':' && i + 1 < n && code[i + 1] == ':') {
            toks.push_back({"::", line, false});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && code[i + 1] == '>') {
            toks.push_back({"->", line, false});
            i += 2;
            continue;
        }
        toks.push_back({std::string(1, c), line, false});
        ++i;
    }
    return toks;
}

/** Index of the matching ')' for the '(' at `open`, or npos. */
size_t
matchParen(const std::vector<Tok> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Skip a balanced template-argument list starting at `i` == '<'. */
size_t
skipAngles(const std::vector<Tok> &toks, size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].text == "<")
            ++depth;
        else if (toks[i].text == ">" && --depth == 0)
            return i + 1;
        else if (toks[i].text == ";" || toks[i].text == "{")
            break; // not a template argument list after all
    }
    return i;
}

bool
isCall(const std::vector<Tok> &toks, size_t i)
{
    return i + 1 < toks.size() && toks[i + 1].text == "(";
}

bool
isMemberAccess(const std::vector<Tok> &toks, size_t i)
{
    return i > 0 &&
           (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

// ---------------------------------------------------------------------
// Per-file analysis.

struct FileReport
{
    std::vector<Finding> findings;
};

/** Rules allowed on each 1-based line via MCSCOPE_LINT_ALLOW(...). */
struct AllowMap
{
    std::map<int, std::set<std::string>> byLine;

    bool
    allows(int line, const std::string &rule) const
    {
        for (int l : {line, line - 1}) {
            auto it = byLine.find(l);
            if (it != byLine.end() &&
                (it->second.count(rule) != 0 ||
                 it->second.count("*") != 0))
                return true;
        }
        return false;
    }
};

AllowMap
collectAllows(const SourceModel &m)
{
    AllowMap allow;
    for (int l = 1; l <= m.lineCount; ++l) {
        const std::string &c = m.commentText[static_cast<size_t>(l) - 1];
        size_t pos = 0;
        while ((pos = c.find("MCSCOPE_LINT_ALLOW(", pos)) !=
               std::string::npos) {
            size_t open = pos + 19;
            size_t close = c.find(')', open);
            if (close == std::string::npos)
                break;
            std::string rule = c.substr(open, close - open);
            // Trim spaces inside the marker.
            rule.erase(std::remove(rule.begin(), rule.end(), ' '),
                       rule.end());
            if (!rule.empty())
                allow.byLine[l].insert(rule);
            pos = close;
        }
    }
    return allow;
}

/** [begin, end] line ranges bracketed by hot markers. */
std::vector<std::pair<int, int>>
collectHotRegions(const std::string &path, const SourceModel &m,
                  std::vector<Finding> &findings)
{
    std::vector<std::pair<int, int>> regions;
    int open_line = -1;
    for (int l = 1; l <= m.lineCount; ++l) {
        const std::string &c = m.commentText[static_cast<size_t>(l) - 1];
        const bool begin =
            c.find("MCSCOPE_HOT_BEGIN") != std::string::npos;
        const bool end = c.find("MCSCOPE_HOT_END") != std::string::npos;
        if (begin && end)
            continue; // documentation mentioning both markers
        if (begin) {
            if (open_line >= 0) {
                findings.push_back(
                    {path, l, "HOT-1",
                     "nested MCSCOPE_HOT_BEGIN (previous region "
                     "opened on line " +
                         std::to_string(open_line) + ")"});
            }
            open_line = l;
        } else if (end) {
            if (open_line < 0) {
                findings.push_back(
                    {path, l, "HOT-1",
                     "MCSCOPE_HOT_END without a matching "
                     "MCSCOPE_HOT_BEGIN"});
            } else {
                regions.emplace_back(open_line, l);
                open_line = -1;
            }
        }
    }
    if (open_line >= 0) {
        findings.push_back({path, open_line, "HOT-1",
                            "MCSCOPE_HOT_BEGIN never closed by "
                            "MCSCOPE_HOT_END"});
    }
    return regions;
}

/** HOT-2: designated steady-state units must carry hot markers. */
void
checkHot2(const std::string &path,
          const std::vector<std::pair<int, int>> &regions,
          std::vector<Finding> &out)
{
    if (!regions.empty())
        return;
    for (const char *frag : kHotRequiredFiles) {
        const size_t flen = std::string(frag).size();
        if (path.size() >= flen &&
            path.compare(path.size() - flen, flen, frag) == 0) {
            out.push_back(
                {path, 1, "HOT-2",
                 "steady-state unit has no MCSCOPE_HOT_BEGIN/END "
                 "region; the engine hot loop must stay under HOT-1 "
                 "coverage"});
            return;
        }
    }
}

bool
inRegions(const std::vector<std::pair<int, int>> &regions, int line)
{
    for (const auto &[b, e] : regions) {
        if (line > b && line < e)
            return true;
    }
    return false;
}

bool
pathContainsAny(const std::string &path, const char *const *frags,
                size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        if (path.find(frags[i]) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Names declared in this file with a type from `types` (heuristic:
 * `Type<...> name` or `Type name`), used to scope DET-2 to unordered
 * containers and to exempt SmallVec growth from HOT-1.
 */
std::set<std::string>
collectDeclaredNames(const std::vector<Tok> &toks,
                     const std::set<std::string> &types)
{
    std::set<std::string> names;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident || types.count(toks[i].text) == 0)
            continue;
        size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<")
            j = skipAngles(toks, j);
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].ident &&
            !(j + 1 < toks.size() && toks[j + 1].text == "("))
            names.insert(toks[j].text);
    }
    return names;
}

/** Whole-word occurrences of `word` in `code` between two lines. */
int
countWordInLines(const std::vector<Tok> &toks, const std::string &word,
                 int first, int last)
{
    int count = 0;
    for (const Tok &t : toks) {
        if (t.line < first || t.line > last)
            continue;
        if (t.ident && t.text == word)
            ++count;
    }
    return count;
}

void
checkDet1(const std::string &path, const std::vector<Tok> &toks,
          std::vector<Finding> &out)
{
    if (!pathContainsAny(path, kDet1Paths, std::size(kDet1Paths)))
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (!t.ident || isMemberAccess(toks, i))
            continue;
        if (t.text == "random_device") {
            out.push_back({path, t.line, "DET-1",
                           "std::random_device is non-deterministic; "
                           "use util/rng.hh seeded from the scenario"});
            continue;
        }
        if (!isCall(toks, i))
            continue;
        if (kDet1Calls.count(t.text) != 0) {
            out.push_back({path, t.line, "DET-1",
                           "call to '" + t.text +
                               "' breaks bit-determinism; use "
                               "util/rng.hh seeded from the scenario"});
            continue;
        }
        if (t.text == "time") {
            size_t close = matchParen(toks, i + 1);
            if (close == i + 3 &&
                (toks[i + 2].text == "NULL" ||
                 toks[i + 2].text == "nullptr" ||
                 toks[i + 2].text == "0")) {
                out.push_back(
                    {path, t.line, "DET-1",
                     "time(" + toks[i + 2].text +
                         ") seeds wall-clock state into "
                         "deterministic engine code"});
            }
        }
    }
}

void
checkDet2(const std::string &path, const std::vector<Tok> &toks,
          std::vector<Finding> &out)
{
    if (!pathContainsAny(path, kDet2Paths, std::size(kDet2Paths)))
        return;
    const std::set<std::string> unorderedNames = collectDeclaredNames(
        toks, {"unordered_map", "unordered_set", "unordered_multimap",
               "unordered_multiset"});

    auto flag = [&](int line, const std::string &what) {
        out.push_back(
            {path, line, "DET-2",
             what + " iterates an unordered container on an "
                    "ordered-output path; iteration order is "
                    "implementation-defined and breaks digests / "
                    "byte-identical resume -- use std::map or sort "
                    "first"});
    };

    for (size_t i = 0; i < toks.size(); ++i) {
        // Range-for whose range expression names an unordered
        // container declared in this file.
        if (toks[i].ident && toks[i].text == "for" &&
            isCall(toks, i)) {
            size_t close = matchParen(toks, i + 1);
            if (close == std::string::npos)
                continue;
            // Find the top-level ':' of a range-for.
            size_t colon = std::string::npos;
            int depth = 0;
            for (size_t j = i + 2; j < close; ++j) {
                if (toks[j].text == "(" || toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ")" || toks[j].text == ">")
                    --depth;
                else if (toks[j].text == ":" && depth == 0) {
                    colon = j;
                    break;
                }
            }
            if (colon == std::string::npos)
                continue;
            for (size_t j = colon + 1; j < close; ++j) {
                if (toks[j].ident &&
                    (unorderedNames.count(toks[j].text) != 0 ||
                     toks[j].text.rfind("unordered_", 0) == 0)) {
                    flag(toks[i].line, "range-for");
                    break;
                }
            }
            continue;
        }
        // name.begin() / name.cbegin() / name.rbegin() on an
        // unordered container.
        if (toks[i].ident &&
            (toks[i].text == "begin" || toks[i].text == "cbegin" ||
             toks[i].text == "rbegin") &&
            isMemberAccess(toks, i) && isCall(toks, i) && i >= 2 &&
            toks[i - 2].ident &&
            unorderedNames.count(toks[i - 2].text) != 0) {
            flag(toks[i].line, "." + toks[i].text + "()");
        }
    }
}

void
checkHot1(const std::string &path, const std::vector<Tok> &toks,
          const std::vector<std::pair<int, int>> &regions,
          std::vector<Finding> &out)
{
    if (regions.empty())
        return;
    const std::set<std::string> smallvecNames =
        collectDeclaredNames(toks, kSmallVecTypes);

    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (!inRegions(regions, t.line) || !t.ident)
            continue;
        if (t.text == "new" &&
            !(i > 0 && toks[i - 1].text == "operator")) {
            out.push_back({path, t.line, "HOT-1",
                           "operator new inside the hot region"});
            continue;
        }
        if (t.text == "delete" &&
            !(i > 0 && (toks[i - 1].text == "operator" ||
                        toks[i - 1].text == "="))) {
            out.push_back({path, t.line, "HOT-1",
                           "operator delete inside the hot region"});
            continue;
        }
        if (isCall(toks, i) && !isMemberAccess(toks, i) &&
            kHotAllocCalls.count(t.text) != 0) {
            out.push_back({path, t.line, "HOT-1",
                           "'" + t.text +
                               "' allocates inside the hot region"});
            continue;
        }
        if (isMemberAccess(toks, i) && isCall(toks, i) &&
            kHotGrowCalls.count(t.text) != 0) {
            const bool smallvec =
                i >= 2 && toks[i - 2].ident &&
                smallvecNames.count(toks[i - 2].text) != 0;
            if (!smallvec) {
                out.push_back(
                    {path, t.line, "HOT-1",
                     "." + t.text +
                         "() may allocate inside the hot region "
                         "(only SmallVec containers are exempt)"});
            }
            continue;
        }
        if (kHotHeapTypes.count(t.text) != 0 &&
            !isMemberAccess(toks, i)) {
            size_t j = i + 1;
            if (j < toks.size() && toks[j].text == "<")
                j = skipAngles(toks, j);
            if (j < toks.size() &&
                (toks[j].ident || toks[j].text == "(" ||
                 toks[j].text == "{")) {
                out.push_back(
                    {path, t.line, "HOT-1",
                     "construction of std::" + t.text +
                         " inside the hot region (hoist it out of "
                         "the steady-state loop)"});
            }
        }
    }
}

void
checkFd1(const std::string &path, const std::vector<Tok> &toks,
         std::vector<Finding> &out)
{
    const bool spawn_ok =
        path.find("src/util/subprocess.cc") != std::string::npos;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (!t.ident || !isCall(toks, i) || isMemberAccess(toks, i))
            continue;
        if (t.text == "mkstemp") {
            out.push_back(
                {path, t.line, "FD-1",
                 "mkstemp cannot set O_CLOEXEC; use "
                 "mkostemp(tmpl, O_CLOEXEC) so the descriptor does "
                 "not leak into worker processes"});
            continue;
        }
        if (kFdOpenCalls.count(t.text) != 0) {
            size_t close = matchParen(toks, i + 1);
            bool cloexec = false;
            if (close != std::string::npos) {
                for (size_t j = i + 2; j < close; ++j) {
                    if (toks[j].ident && toks[j].text == "O_CLOEXEC") {
                        cloexec = true;
                        break;
                    }
                }
            }
            if (!cloexec) {
                out.push_back(
                    {path, t.line, "FD-1",
                     "'" + t.text +
                         "' without O_CLOEXEC leaks the descriptor "
                         "into fork/exec'd workers"});
            }
            continue;
        }
        if (t.text == "accept") {
            out.push_back(
                {path, t.line, "FD-1",
                 "accept cannot set SOCK_CLOEXEC atomically; use "
                 "accept4(fd, addr, len, SOCK_CLOEXEC) so the peer "
                 "socket does not leak into worker processes"});
            continue;
        }
        if (kFdSocketCalls.count(t.text) != 0) {
            size_t close = matchParen(toks, i + 1);
            bool cloexec = false;
            if (close != std::string::npos) {
                for (size_t j = i + 2; j < close; ++j) {
                    if (toks[j].ident &&
                        toks[j].text == "SOCK_CLOEXEC") {
                        cloexec = true;
                        break;
                    }
                }
            }
            if (!cloexec) {
                out.push_back(
                    {path, t.line, "FD-1",
                     "'" + t.text +
                         "' without SOCK_CLOEXEC leaks the socket "
                         "into fork/exec'd workers"});
            }
            continue;
        }
        if (kFdSpawnCalls.count(t.text) != 0 && !spawn_ok) {
            out.push_back(
                {path, t.line, "FD-1",
                 "'" + t.text +
                     "' outside src/util/subprocess.cc; all process "
                     "spawning goes through the Subprocess RAII "
                     "wrapper"});
        }
    }
}

void
checkParse1(const std::string &path, const std::vector<Tok> &toks,
            std::vector<Finding> &out)
{
    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (!t.ident || kParseCalls.count(t.text) == 0 ||
            !isCall(toks, i) || isMemberAccess(toks, i))
            continue;
        size_t close = matchParen(toks, i + 1);
        if (close == std::string::npos)
            continue;
        // Locate the second top-level argument (the end pointer).
        int depth = 0;
        size_t arg = 0;
        size_t arg2_first = std::string::npos;
        size_t arg2_last = std::string::npos;
        for (size_t j = i + 2; j < close; ++j) {
            if (toks[j].text == "(")
                ++depth;
            else if (toks[j].text == ")")
                --depth;
            else if (toks[j].text == "," && depth == 0) {
                ++arg;
                continue;
            }
            if (arg == 1) {
                if (arg2_first == std::string::npos)
                    arg2_first = j;
                arg2_last = j;
            }
        }
        const int line = t.line;
        const bool errno_near =
            countWordInLines(toks, "errno", line - 3, line + 8) > 0;
        if (arg2_first == std::string::npos) {
            if (!errno_near) {
                out.push_back({path, line, "PARSE-1",
                               "'" + t.text +
                                   "' call has no visible end-pointer "
                                   "argument or errno check"});
            }
            continue;
        }
        // nullptr / NULL / 0 end pointer: only errno can catch
        // trailing garbage or overflow.
        const bool null_end =
            arg2_first == arg2_last &&
            (toks[arg2_first].text == "nullptr" ||
             toks[arg2_first].text == "NULL" ||
             toks[arg2_first].text == "0");
        if (null_end) {
            if (!errno_near) {
                out.push_back(
                    {path, line, "PARSE-1",
                     "'" + t.text +
                         "' with a null end pointer and no errno "
                         "check accepts trailing garbage and "
                         "overflow silently"});
            }
            continue;
        }
        // Named end pointer: it (or errno) must be consulted nearby.
        std::string end_var;
        for (size_t j = arg2_last + 1; j-- > arg2_first;) {
            if (toks[j].ident) {
                end_var = toks[j].text;
                break;
            }
        }
        if (end_var.empty())
            continue;
        const int uses =
            countWordInLines(toks, end_var, line, line + 8);
        // One use is the call itself (a same-line declaration adds
        // one more without constituting a check).
        if (!errno_near && uses < 2) {
            out.push_back(
                {path, line, "PARSE-1",
                 "end pointer '" + end_var +
                     "' is never checked after the '" + t.text +
                     "' call (and errno is not consulted)"});
        }
    }
}

FileReport
analyzeFile(const std::string &path, const std::string &text)
{
    FileReport report;
    const SourceModel model = blankSource(text);
    const AllowMap allow = collectAllows(model);
    const std::vector<Tok> toks = tokenize(model.code);

    std::vector<Finding> raw;
    const std::vector<std::pair<int, int>> hot =
        collectHotRegions(path, model, raw);

    checkDet1(path, toks, raw);
    checkDet2(path, toks, raw);
    checkHot1(path, toks, hot, raw);
    checkHot2(path, hot, raw);
    checkFd1(path, toks, raw);
    checkParse1(path, toks, raw);

    for (Finding &f : raw) {
        if (!allow.allows(f.line, f.rule))
            report.findings.push_back(std::move(f));
    }
    return report;
}

// ---------------------------------------------------------------------
// Driver.

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

bool
skippableDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name == "build" || name == ".git" || name == "CMakeFiles" ||
           name.rfind("build-", 0) == 0;
}

std::string
normalizePath(std::string p)
{
    while (p.rfind("./", 0) == 0)
        p.erase(0, 2);
    return p;
}

int
collectFiles(const std::string &root, std::vector<std::string> &files)
{
    std::error_code ec;
    const fs::path rp(root);
    if (fs::is_regular_file(rp, ec)) {
        files.push_back(normalizePath(root));
        return 0;
    }
    if (!fs::is_directory(rp, ec)) {
        std::cerr << "mcscope-lint: cannot read '" << root << "'\n";
        return 2;
    }
    fs::recursive_directory_iterator it(
        rp, fs::directory_options::skip_permission_denied, ec);
    if (ec) {
        std::cerr << "mcscope-lint: cannot walk '" << root
                  << "': " << ec.message() << "\n";
        return 2;
    }
    for (auto end = fs::recursive_directory_iterator();
         it != end; it.increment(ec)) {
        if (ec)
            break;
        if (it->is_directory(ec) && skippableDir(it->path())) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file(ec) && lintableExtension(it->path()))
            files.push_back(
                normalizePath(it->path().generic_string()));
    }
    return 0;
}

struct Baseline
{
    std::set<std::string> entries; ///< "path:line:rule"
    std::set<std::string> used;
};

int
loadBaseline(const std::string &path, Baseline &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "mcscope-lint: cannot read baseline '" << path
                  << "'\n";
        return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
        const size_t h = line.find('#');
        if (h != std::string::npos)
            line.erase(h);
        // Trim.
        while (!line.empty() &&
               std::isspace(static_cast<unsigned char>(line.back())))
            line.pop_back();
        size_t b = 0;
        while (b < line.size() &&
               std::isspace(static_cast<unsigned char>(line[b])))
            ++b;
        line.erase(0, b);
        if (!line.empty())
            out.entries.insert(line);
    }
    return 0;
}

void
printRules()
{
    std::cout << "mcscope-lint rule catalog:\n";
    for (const RuleDoc &r : kRuleCatalog)
        std::cout << "  " << r.rule << "  " << r.summary << "\n";
    std::cout << "\nSuppress a single finding with a comment on the "
                 "offending line (or the line above):\n"
                 "  // MCSCOPE_LINT_ALLOW(<rule>): <reason>\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            printRules();
            return 0;
        }
        if (arg == "--baseline") {
            if (i + 1 >= argc) {
                std::cerr << "mcscope-lint: --baseline needs a file\n";
                return 2;
            }
            baseline_path = argv[++i];
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            std::cout << "usage: mcscope-lint [--baseline FILE] "
                         "[--list-rules] PATH...\n";
            return 0;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::cerr << "mcscope-lint: unknown flag '" << arg
                      << "'\n";
            return 2;
        }
        roots.push_back(arg);
    }
    if (roots.empty()) {
        std::cerr << "usage: mcscope-lint [--baseline FILE] "
                     "[--list-rules] PATH...\n";
        return 2;
    }

    Baseline baseline;
    if (!baseline_path.empty()) {
        if (int rc = loadBaseline(baseline_path, baseline))
            return rc;
    }

    std::vector<std::string> files;
    for (const std::string &root : roots) {
        if (int rc = collectFiles(root, files))
            return rc;
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            std::cerr << "mcscope-lint: cannot read '" << file
                      << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        FileReport report = analyzeFile(file, text.str());
        for (Finding &f : report.findings) {
            const std::string key = f.file + ":" +
                                    std::to_string(f.line) + ":" +
                                    f.rule;
            if (baseline.entries.count(key) != 0) {
                baseline.used.insert(key);
                continue;
            }
            findings.push_back(std::move(f));
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    for (const Finding &f : findings) {
        std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message << "\n";
    }

    for (const std::string &entry : baseline.entries) {
        if (baseline.used.count(entry) == 0) {
            std::cerr << "mcscope-lint: stale baseline entry '"
                      << entry << "' (fixed or moved; prune it)\n";
        }
    }

    if (!findings.empty()) {
        std::cout << "mcscope-lint: " << findings.size()
                  << " finding(s) in " << files.size() << " file(s)\n";
        return 1;
    }
    std::cout << "mcscope-lint: clean (" << files.size()
              << " files)\n";
    return 0;
}
