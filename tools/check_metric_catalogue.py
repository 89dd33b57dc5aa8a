#!/usr/bin/env python3
"""Checks the "Metric names" table of docs/observability.md against src/.

Every name that a SUPMR_COUNTER_ADD, SUPMR_GAUGE_SET or SUPMR_HIST_OBSERVE
call under src/ passes as its first argument must have a row in the table,
also when the name literal sits on the line after the macro. Every name
the table lists must still be emitted somewhere. A call whose first
argument is not a string literal fails too, since its name cannot be
checked. Prints each mismatch and exits 1; prints the count and exits 0
when the two agree.

Usage: tools/check_metric_catalogue.py [REPO_ROOT]
"""
import pathlib
import re
import sys

MACRO = re.compile(r"\bSUPMR_(?:COUNTER_ADD|GAUGE_SET|HIST_OBSERVE)\(\s*")
LITERAL = re.compile(r'"([^"]+)"')
FULL_LINE_COMMENT = re.compile(r"^[ \t]*//.*$", re.MULTILINE)
DEFINE = re.compile(r"^[ \t]*#[ \t]*define\b.*$", re.MULTILINE)


def emitted_names(src):
    names, errors = {}, []
    for path in sorted(src.rglob("*.[ch]pp")):
        text = DEFINE.sub("", FULL_LINE_COMMENT.sub("", path.read_text()))
        for call in MACRO.finditer(text):
            line = text.count("\n", 0, call.start()) + 1
            name = LITERAL.match(text, call.end())
            if name is None:
                errors.append(f"{path}:{line}: metric name is not a literal")
                continue
            names.setdefault(name.group(1), f"{path}:{line}")
    return names, errors


def documented_names(doc):
    text = doc.read_text()
    section = text.split("\n## Metric names\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    return names


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    doc = root / "docs" / "observability.md"
    emitted, errors = emitted_names(root / "src")
    documented = documented_names(doc)
    for name in sorted(set(emitted) - documented):
        errors.append(f"{emitted[name]}: {name} has no row in {doc}")
    for name in sorted(documented - set(emitted)):
        errors.append(f"{doc}: {name} has a row but nothing under src/ "
                      "emits it")
    for error in errors:
        print(f"metric catalogue: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"metric catalogue: {len(emitted)} emitted names, each with a row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
