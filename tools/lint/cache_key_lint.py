#!/usr/bin/env python3
"""Knob-table coverage lint.

Every SystemConfig field is declared once, as a row of the knob table
in src/sim/overrides.cc, written `CDCS_FIELD(<path>)`. The table
drives `--set` parsing, the CDCS_* environment, the result-cache key
and the docs, and each row says whether the field is keyed (or why
not). A field without a row would silently fall out of all of them,
most dangerously out of the cache key, where two configs that
simulate differently would share a cell. C++ cannot enumerate a
struct's members, so this lint does: every data member of
SystemConfig (src/sim/system_config.hh), with members of nested
config structs (NocConfig, PartitionedNucaConfig, ...) expanded to
dotted paths, must have a row. That each keyed row really reaches the
key is a gtest (KnobTableTest in tests/sim/overrides_test.cc).

Stdlib-only; runs as a ctest case (see CMakeLists.txt) and in CI.
Exit status: 0 clean, 1 findings, 2 usage/parse error.
"""

import argparse
import os
import re
import sys

SYSTEM_CONFIG = os.path.join("src", "sim", "system_config.hh")
KNOB_TABLE = os.path.join("src", "sim", "overrides.cc")

BUILTIN_TYPES = {
    "bool", "int", "double", "float", "char", "Cycles",
    "string", "uint8_t", "uint32_t", "uint64_t", "int32_t", "int64_t",
    "size_t",
}

MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?([A-Za-z_][\w:<>,\s]*?)\s+"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;\s*(?:///<.*)?$")
ROW_RE = re.compile(r"\bCDCS_FIELD\(\s*([\w.]+)\s*\)")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_body(text, name):
    """Extract the brace-balanced body of `struct <name> { ... };`."""
    m = re.search(r"\bstruct\s+%s\b[^{;]*\{" % re.escape(name), text)
    if m is None:
        return None
    depth, i = 1, m.end()
    while i < len(text) and depth > 0:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[m.end():i - 1]


def struct_fields(body):
    """(type, name) for each depth-1 data member of a struct body."""
    fields = []
    depth = 0
    for line in body.splitlines():
        if depth == 0 and "(" not in line:
            m = MEMBER_RE.match(line)
            if m and m.group(1).strip() not in ("return", "using",
                                                "typedef"):
                fields.append((m.group(1).strip(), m.group(2)))
        depth = max(depth + line.count("{") - line.count("}"), 0)
    return fields


def config_paths(repo, errors):
    """Dotted paths of every SystemConfig member, nested expanded."""
    body = struct_body(strip_comments(read(
        os.path.join(repo, SYSTEM_CONFIG))), "SystemConfig")
    if body is None:
        errors.append(f"struct SystemConfig not found in {SYSTEM_CONFIG}")
        return []
    headers = []
    for root, _dirs, names in os.walk(os.path.join(repo, "src")):
        headers += [strip_comments(read(os.path.join(root, n)))
                    for n in sorted(names) if n.endswith(".hh")]
    paths = []
    for type_text, name in struct_fields(body):
        bare = type_text.split("<")[0].split("::")[-1].strip()
        nested = None
        if bare not in BUILTIN_TYPES and bare[0].isupper():
            nested = next((b for b in (struct_body(h, bare)
                                       for h in headers)
                           if b is not None), None)
        if nested is None:
            # Scalars, strings and enums (e.g. MoveScheme) are leaves.
            paths.append(name)
            continue
        subs = struct_fields(nested)
        if not subs:
            errors.append(f"nested struct {bare} for field '{name}' "
                          "has no parseable members")
        paths += [f"{name}.{sub}" for _t, sub in subs]
    if not paths:
        errors.append("no SystemConfig members parsed")
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", required=True, help="repository root")
    args = parser.parse_args()

    errors = []
    try:
        paths = config_paths(args.repo, errors)
        rows = ROW_RE.findall(strip_comments(read(
            os.path.join(args.repo, KNOB_TABLE))))
    except OSError as err:
        errors.append(str(err))
    if not errors and not rows:
        errors.append(f"no CDCS_FIELD rows parsed from {KNOB_TABLE}")
    if errors:
        for e in errors:
            print(f"cache_key_lint: parse error: {e}", file=sys.stderr)
        return 2

    findings = [f"SystemConfig field '{p}' has no CDCS_FIELD({p}) row "
                f"in {KNOB_TABLE}" for p in paths if p not in rows]
    for f in findings:
        print(f"cache_key_lint: {f}")
    if findings:
        print(f"cache_key_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"cache_key_lint: all {len(paths)} SystemConfig fields have "
          "a knob-table row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
