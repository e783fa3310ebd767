#!/usr/bin/env python3
"""Fixture tests for tools/lint/cache_key_lint.py.

Negative coverage: a mini repo tree whose knob table misses a plain
field and a nested-struct field (with commented-out rows that must
not count) must report both. Positive coverage: a clean fixture tree
and the real repository must both pass.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "..", "cache_key_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
REPO = os.path.normpath(os.path.join(HERE, "..", "..", ".."))


def run_lint(repo):
    return subprocess.run(
        [sys.executable, LINT, "--repo", repo],
        capture_output=True, text=True, check=False)


class CacheKeyLintTest(unittest.TestCase):

    def test_missing_rows_all_reported(self):
        res = run_lint(os.path.join(FIXTURES, "cache_key_bad"))
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        out = res.stdout
        self.assertIn("field 'fooKnob' has no", out)
        self.assertIn("field 'noc.flitBits' has no", out)
        # No false positives on covered fields, nested or enum.
        self.assertNotIn("'meshWidth'", out)
        self.assertNotIn("'noc.routerCycles'", out)
        self.assertNotIn("'moves'", out)

    def test_clean_fixture_passes(self):
        res = run_lint(os.path.join(FIXTURES, "cache_key_good"))
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_missing_sources_are_a_parse_error(self):
        res = run_lint(os.path.join(FIXTURES, "determinism_bad"))
        self.assertEqual(res.returncode, 2, res.stdout + res.stderr)

    def test_real_repository_is_clean(self):
        res = run_lint(REPO)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)


if __name__ == "__main__":
    unittest.main()
