"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover perfbench
"""

import json
import os
import unittest

import run
import tracer
import workloads


def skeleton(command):
    """A command with its seeded values replaced by their shape."""
    if command[0] == "bracket":
        sides = []
        for side in command[-2:]:
            words = [c.split("*", 1)[1] for c in side.split(" ") if "*" in c]
            bead = "e" if any(a.startswith("--rule") for a in command) else "x"
            sides.append((len(words), sorted({w.count(bead) for w in words})))
        return (command[0], tuple(command[1:-2]), tuple(sides))
    if command[0] == "classify":
        return (command[0], (len(command),))
    return (command[0], tuple(a.split("=")[0] for a in command[1:]))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_lists(self):
        for make in workloads.WORKLOADS.values():
            self.assertEqual(json.dumps(make(12345)), json.dumps(make(12345)))

    def test_seeds_change_values_not_work(self):
        shapes = [sorted(map(skeleton, workloads.session_commands(seed))) for seed in (1, 2, 3)]
        self.assertEqual(shapes[0], shapes[1])
        self.assertEqual(shapes[0], shapes[2])
        self.assertNotEqual(workloads.session_commands(1), workloads.session_commands(2))
        big = [s for s in shapes[0] if s[:2] == ("bracket", ("--format", "json", "--"))]
        self.assertEqual(
            [side for _, _, sides in big for side in sides],
            [(10, [3]), (10, [7]), (20, [4]), (20, [6]), (30, [5]), (30, [5])],
        )


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        ticks = iter(range(100))
        recorder = tracer.Recorder(clock=lambda: next(ticks))
        b = recorder.wrap("b", lambda: None)
        a = recorder.wrap("a", lambda: b())
        c = recorder.wrap("c", lambda: None)
        root = recorder.wrap("root", lambda: (a(), c(), a()))
        root()
        # root 0..11; a 1..4 holds b 2..3; c 5..6; a 7..10 holds b 8..9
        self.assertEqual(list(recorder.start), [0, 1, 2, 5, 7, 8])
        self.assertEqual(list(recorder.end), [11, 4, 3, 6, 10, 9])
        totals = tracer.layer_totals(
            recorder.names, recorder.kind, recorder.parent, recorder.start, recorder.end
        )
        self.assertEqual(totals, {"b": [2, 2.0], "a": [2, 4.0], "c": [1, 1.0], "root": [1, 4.0]})
        self.assertEqual(sum(own for _, own in totals.values()), 11)

    def test_overlapping_children_count_once(self):
        # parent 0..10 with children 2..5 and 4..6 (covering 2..6) and 9..12
        # (clipped to 9..10); the second child holds a grandchild 4.5..5
        parent = [-1, 0, 0, 2, 0]
        start = [0.0, 2.0, 4.0, 4.5, 9.0]
        end = [10.0, 5.0, 6.0, 5.0, 12.0]
        self.assertEqual(tracer.self_times(parent, start, end), [5.0, 3.0, 1.5, 0.5, 3.0])


class CheckTest(unittest.TestCase):
    def test_wrong_golden_output_is_counted(self):
        command = ["table2", "--format", "json"]
        golden = {workloads.command_key(command): "0" * 64}
        with open(run.SPEC) as fh:
            spec = json.load(fh)
        chosen, attempted, failed, info = run.run_workload([command], 0, 0, golden, spec)
        self.assertEqual(attempted, run.MIN_PASSES)
        self.assertEqual(failed, attempted)
        self.assertEqual(info["error_rate"], 1.0)
        self.assertEqual(set(chosen), {m["name"] for m in spec["end_to_end"]})

    def test_times_are_scaled_to_the_reference_speed(self):
        # probes at twice the reference time: the CPU ran at half speed;
        # of the 3.5 s the child waited 0.1 s for the CPU and the host took
        # the CPU away for 0.4 s
        ref = run.PROBE_REF_S
        reply = {
            "wall_s": 3.5, "wait_s": 0.1, "steal_s": 0.4, "exec_s": 2.0,
            "cpu_s": 2.0, "maxrss_kb": 1, "probe_s": [ref, 2 * ref, 3 * ref],
        }
        sample = run.Sample(["table2"], reply, b"", [])
        self.assertAlmostEqual(sample.wall_s, 1.5)
        self.assertAlmostEqual(sample.cpu_s, 1.0)
        self.assertEqual(sample.raw_wall_s, 3.5)
        # steal counted twice cannot take the time below the time on the CPU
        reply.update(wait_s=1.0, steal_s=1.0)
        self.assertAlmostEqual(run.running_s(reply), 2.0)

    def test_bracket_degree_invariant(self):
        command = ["bracket", "--format", "json", "--", "1*x1x1*x2", "2*x2*x1"]
        good = {"bracket": {"terms": [["1", "x1x2x2*"], ["-2", "x2*x1x1"]]}}
        bad = {"bracket": {"terms": [["1", "x1x2x2*"], ["-2", "x1"]]}}
        self.assertEqual(workloads.check(command, 0, json.dumps(good).encode(), {}), [])
        self.assertEqual(len(workloads.check(command, 0, json.dumps(bad).encode(), {})), 1)

    def test_every_layer_metric_has_a_source(self):
        with open(run.SPEC) as fh:
            spec = json.load(fh)
        layers = {name for name, *_ in tracer.TARGETS} | {tracer.ROOT_SPAN}
        harness = {"cli.stdout_bytes", "setup.import_s", "trace.overhead_ratio", "trace.remainder_s"}
        for metric in spec["per_layer"]:
            name = metric["name"]
            self.assertTrue(name in harness or name.rsplit(".", 1)[0] in layers, name)


if __name__ == "__main__":
    os.chdir(os.path.dirname(run.HERE))
    unittest.main()
