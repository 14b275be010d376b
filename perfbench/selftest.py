"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(cls.make_ops(7), cls.make_ops(7))
                self.assertNotEqual(cls.make_ops(7), cls.make_ops(8))

    def test_sweep_degrees_cover_every_band_per_block(self):
        ops = workloads.OracleSweep.make_ops(3)
        for fam in ("ch", "wilson"):
            degrees = [op["n"] for op in ops if op["family"] == fam]
            for start in range(0, len(degrees), 64):
                self.assertEqual(sorted(degrees[start:start + 64]), list(range(1, 65)))
            for start in range(0, len(degrees), 8):
                bands = sorted((n - 1) // 8 for n in degrees[start:start + 8])
                self.assertEqual(bands, list(range(8)))
            params = [op["params"] for op in ops if op["family"] == fam]
            self.assertEqual(len(set(params)), len(params))


class FailureAccounting(unittest.TestCase):
    def test_wilson_50_fails_its_check_as_a_known_defect_without_crashing(self):
        op = {"family": "wilson", "n": 50, "params": (1.0, 1.5, 0.7 + 0.3j, 0.7 - 0.3j)}
        tracebacks: list = []
        wl = workloads.OracleSweep()
        wl.block = 1
        records = worker.op_loop(wl, [op], 0.0, tracing.NullTracer(), tracebacks)
        self.assertEqual(len(records), 1)
        latency, err, label, n = records[0]
        self.assertIn(err, ("exc:ComplexRoots", "tol:root_mismatch"))
        self.assertEqual(tracebacks, [])
        with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as fh:
            rules = json.load(fh)["rules"]["oracle-sweep"]
        by_type, unexpected = run.classify(records, rules)
        self.assertEqual(by_type, {"wilson": {"n49-56": {err: 1}}})
        self.assertEqual(unexpected, [])

    def test_unlisted_failure_is_unexpected(self):
        records = [[0.1, "tol:bethe", "ch", 12], [0.1, None, "ch", 13]]
        by_type, unexpected = run.classify(records, [])
        self.assertEqual(by_type, {"ch": {"n9-16": {"tol:bethe": 1}}})
        self.assertEqual(unexpected, [{"label": "ch", "n": 12, "class": "tol:bethe"}])


class SelfTime(unittest.TestCase):
    def test_hand_built_span_tree(self):
        S = tracing.Span
        spans = [
            S("op", 0.0, 10.0, None, 0),            # children cover 1-4 and 3-6 and 8-9
            S("flow.integrate", 1.0, 4.0, 0, 0),    # child covers 2-3
            S("potentials.gradient", 2.0, 3.0, 1, 0),
            S("oracle.companion", 3.0, 6.0, 0, 0),  # overlaps its sibling
            S("oracle.bethe", 8.0, 9.0, 0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 1.0, 3.0, 1.0])
        self.assertEqual(tracing.layer_self_time(spans),
                         {"op": 4.0, "flow": 2.0, "potentials": 1.0, "oracle": 4.0})


class Tracing(unittest.TestCase):
    def _loop(self, tr):
        wl = workloads.OracleSweep()
        wl.block = 1
        ops = [{"family": "ch", "n": 4, "params": (1.0, 2.0)}]
        return worker.op_loop(wl, ops, 0.0, tr, [])

    def test_untraced_run_records_no_spans(self):
        tr = tracing.NullTracer()
        records = self._loop(tr)
        self.assertIsNone(records[0][1])
        self.assertEqual(len(tr.spans), 0)
        self.assertEqual(tr.counts, {})

    def test_traced_run_records_nested_spans(self):
        tr = tracing.Tracer()
        self._loop(tr)
        names = [s.name for s in tr.spans]
        self.assertEqual(names[0], "op")
        self.assertIn("oracle.companion", names)
        self.assertTrue(all(s.end >= s.start for s in tr.spans))
        op_children = [s for s in tr.spans if s.parent == 0]
        self.assertTrue(op_children and all(s.op == 0 for s in op_children))


if __name__ == "__main__":
    unittest.main()
