#!/usr/bin/env python3
"""Line-coverage summary from gcov JSON, scoped to source prefixes.

Minimal stand-in for gcovr on hosts that only ship gcc's gcov: walks a
--coverage build tree for .gcda note files, asks `gcov --json-format
--stdout` for per-line execution counts, and aggregates line coverage per
source file across every translation unit that instantiated it (so
header-only code like src/merge/*.hpp is attributed to the header, not the
including .cpp).

Usage:
  tools/coverage_summary.py BUILD_DIR --filter src/merge --filter src/containers \
      [--fail-under PCT] [--gcov GCOV]

A line is "covered" if any TU executed it at least once; "executable" if any
TU reports it as instrumented. Exit status is non-zero when the aggregate
over all filtered files falls below --fail-under.
"""

import argparse
import json
import os
import subprocess
import sys


def gcov_json_docs(gcda, gcov, repo_root):
    """Run gcov on one .gcda and yield parsed JSON documents."""
    try:
        proc = subprocess.run(
            [gcov, "--json-format", "--stdout", os.path.basename(gcda)],
            cwd=os.path.dirname(gcda),
            capture_output=True,
            text=True,
            timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"coverage: gcov failed on {gcda}: {err}", file=sys.stderr)
        return
    # One JSON document per line of stdout (gcov emits one per input file).
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue


def normalize(path, repo_root):
    """Repo-relative path for a gcov 'file' entry, or None if external or
    no longer in the tree (stale object data for a deleted source)."""
    if not os.path.isabs(path):
        path = os.path.join(repo_root, path)
    path = os.path.normpath(path)
    root = repo_root.rstrip(os.sep) + os.sep
    if not path.startswith(root) or not os.path.exists(path):
        return None
    return path[len(root):]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("build_dir", help="--coverage build tree to scan")
    ap.add_argument("--filter", action="append", default=[],
                    help="repo-relative path prefix to include (repeatable)")
    ap.add_argument("--fail-under", type=float, default=None,
                    help="fail if aggregate line coverage %% is below this")
    ap.add_argument("--gcov", default=os.environ.get("GCOV", "gcov"),
                    help="gcov executable (default: $GCOV or 'gcov')")
    args = ap.parse_args()

    build_dir = os.path.abspath(args.build_dir)
    repo_root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    filters = [f.rstrip("/") + "/" for f in args.filter] or [""]

    gcdas = []
    for dirpath, _dirnames, filenames in os.walk(build_dir):
        gcdas.extend(os.path.join(dirpath, f)
                     for f in filenames if f.endswith(".gcda"))
    if not gcdas:
        print(f"coverage: no .gcda files under {build_dir} "
              "(build with --coverage and run the tests first)",
              file=sys.stderr)
        return 2

    # file -> line -> max count across TUs
    lines_by_file = {}
    for gcda in sorted(gcdas):
        for doc in gcov_json_docs(gcda, args.gcov, repo_root):
            for entry in doc.get("files", []):
                rel = normalize(entry.get("file", ""), repo_root)
                if rel is None or not any(rel.startswith(f) for f in filters):
                    continue
                per_line = lines_by_file.setdefault(rel, {})
                for ln in entry.get("lines", []):
                    num = ln.get("line_number")
                    cnt = ln.get("count", 0)
                    if num is None:
                        continue
                    per_line[num] = max(per_line.get(num, 0), cnt)

    if not lines_by_file:
        print("coverage: no instrumented lines matched "
              f"filters {args.filter}", file=sys.stderr)
        return 2

    total_exec = total_cov = 0
    width = max(len(f) for f in lines_by_file)
    for rel in sorted(lines_by_file):
        per_line = lines_by_file[rel]
        execable = len(per_line)
        covered = sum(1 for c in per_line.values() if c > 0)
        total_exec += execable
        total_cov += covered
        pct = 100.0 * covered / execable if execable else 100.0
        print(f"{rel:<{width}}  {covered:>5}/{execable:<5}  {pct:6.1f}%")

    aggregate = 100.0 * total_cov / total_exec if total_exec else 100.0
    print(f"{'TOTAL':<{width}}  {total_cov:>5}/{total_exec:<5}  "
          f"{aggregate:6.1f}%")

    if args.fail_under is not None and aggregate < args.fail_under:
        print(f"coverage: {aggregate:.1f}% is below the "
              f"--fail-under floor of {args.fail_under:.1f}%",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
