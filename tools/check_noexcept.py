#!/usr/bin/env python3
"""Fail on any noexcept function body that contains an MSIM_CHECK.

Usage:
    check_noexcept.py [DIR ...]

A failed MSIM_CHECK throws msim::CheckError.  Thrown out of a noexcept
function, it calls std::terminate instead, which in msim_serve ends the
whole daemon rather than failing one job.  This scan finds every function
or lambda marked noexcept (or noexcept(expr) other than noexcept(false))
in the .cpp/.hpp files under each DIR (default: src/ next to this script),
and exits 1 listing those whose body spells MSIM_CHECK.  It reads bodies
only: a noexcept caller of a checking function is not flagged.
"""

import os
import re
import sys

NOEXCEPT_RE = re.compile(r"\bnoexcept\b")
IDENT_RE = re.compile(r"[A-Za-z_][\w:]*")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, keeping every newline."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif text.startswith('R"', i) and not (i and (text[i - 1].isalnum() or
                                                      text[i - 1] == "_")):
            # Raw string literal R"delim(...)delim", which may span lines.
            paren = text.find("(", i)
            closing = ")" + text[i + 2:paren] + '"'
            end = text.find(closing, paren)
            j = n if paren < 0 or end < 0 else end + len(closing)
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def skip_ws(code, i):
    while i < len(code) and code[i].isspace():
        i += 1
    return i


def skip_group(code, i):
    """From an opening bracket at i, returns the index past its match."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    stack = [pairs[code[i]]]
    i += 1
    while i < len(code) and stack:
        c = code[i]
        if c in pairs:
            stack.append(pairs[c])
        elif c == stack[-1]:
            stack.pop()
        i += 1
    return i


def body_start(code, i):
    """Index of the body's '{' after a noexcept specifier ending at i, or
    None when the specifier belongs to a declaration or a type."""
    while True:
        i = skip_ws(code, i)
        if i >= len(code):
            return None
        if code[i] == "{":
            return i
        if code.startswith("->", i):  # trailing return type
            while i < len(code) and code[i] not in "{;":
                i += 1
            continue
        if code[i] == ":" and not code.startswith("::", i):
            # Constructor initializer list: name(args) or name{args}, ...
            i += 1
            while True:
                i = skip_ws(code, i)
                m = IDENT_RE.match(code, i)
                if not m:
                    return None
                i = skip_ws(code, m.end())
                if i >= len(code) or code[i] not in "({":
                    return None
                i = skip_ws(code, skip_group(code, i))
                if i < len(code) and code[i] == ",":
                    i += 1
                    continue
                return i if i < len(code) and code[i] == "{" else None
        m = IDENT_RE.match(code, i)
        if m and m.group(0) in ("override", "final"):
            i = m.end()
            continue
        return None


def violations(path):
    with open(path, encoding="utf-8") as f:
        code = strip_comments_and_strings(f.read())
    for m in NOEXCEPT_RE.finditer(code):
        i = skip_ws(code, m.end())
        if i < len(code) and code[i] == "(":
            end = skip_group(code, i)
            if code[i + 1:end - 1].strip() == "false":
                continue
            i = end
        start = body_start(code, i)
        if start is None:
            continue
        body = code[start:skip_group(code, start)]
        if "MSIM_CHECK" in body:
            line = code.count("\n", 0, m.start()) + 1
            yield line


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    roots = argv[1:] or [os.path.join(here, "..", "src")]
    found = 0
    for root in roots:
        for dirpath, _, filenames in sorted(os.walk(root)):
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp")):
                    continue
                path = os.path.join(dirpath, name)
                for line in violations(path):
                    print(f"{os.path.relpath(path)}:{line}: noexcept function "
                          "body holds an MSIM_CHECK (a failed check would "
                          "call std::terminate)")
                    found += 1
    if found:
        print(f"{found} noexcept function(s) hold an MSIM_CHECK")
        return 1
    print("no noexcept function holds an MSIM_CHECK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
