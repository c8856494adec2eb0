import io
import json

import pytest

from treepebble import parse_tree
from treepebble.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def star(tmp_path):
    tree = tmp_path / "star.tree"
    tree.write_text("a b\nb c\nb d\n")
    weights = tmp_path / "demand.map"
    weights.write_text("a 1\nc 1\n")
    return str(tree), str(weights)


@pytest.fixture
def path3(tmp_path):
    tree = tmp_path / "p3.tree"
    tree.write_text("a b\nb c\n")
    return str(tree)


class TestPartitionCommand:
    def test_text(self, path3):
        code, out, err = invoke("partition", "--tree", path3, "--root", "c")
        assert code == 0
        assert out == "# partition root=c\nsizes 2\npath a b c\n"

    def test_json(self, path3):
        code, out, _ = invoke("partition", "--tree", path3, "--root", "c", "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "partition",
            "root": "c",
            "sizes": [2],
            "paths": [["a", "b", "c"]],
        }


class TestTpebbleCommand:
    def test_rooted(self, path3):
        code, out, _ = invoke("tpebble", "--tree", path3, "--root", "c", "-t", "2")
        assert code == 0
        assert "value 8" in out

    def test_global(self, path3):
        code, out, _ = invoke("tpebble", "--tree", path3)
        assert code == 0
        assert "value 4" in out
        assert "argmax a" in out


class TestCoverCommand:
    def test_table(self, star):
        tree, weights = star
        code, out, _ = invoke("cover", "--tree", tree, "--weights", weights)
        assert code == 0
        assert out == "# cover gamma=8 argmax=d\na 6\nb 5\nc 6\nd 8\n"

    def test_degenerate_demand(self, star, tmp_path):
        tree, _ = star
        empty = tmp_path / "none.map"
        empty.write_text("")
        code, out, _ = invoke("cover", "--tree", tree, "--weights", str(empty))
        assert code == 0
        assert "gamma=0" in out
        assert "degenerate" in out


class TestSolvableCommand:
    def test_unsolvable_exit_one(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        weights = tmp_path / "w.map"
        weights.write_text("b 1\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 1\n")
        code, out, _ = invoke(
            "solvable", "--tree", str(tree), "--weights", str(weights), "--dist", str(dist)
        )
        assert code == 1
        assert out.startswith("UNSOLVABLE\n")
        assert "a -1" in out and "b -1" in out

    def test_solvable_exit_zero(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        weights = tmp_path / "w.map"
        weights.write_text("b 1\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 2\n")
        code, out, _ = invoke(
            "solvable", "--tree", str(tree), "--weights", str(weights), "--dist", str(dist)
        )
        assert code == 0
        assert out.startswith("SOLVABLE ")


class TestWitnessSimulateRoundTrip:
    def test_round_trip(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\nb c\n")
        weights = tmp_path / "w.map"
        weights.write_text("c 1\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 4\n")
        code, moves_text, _ = invoke(
            "witness", "--tree", str(tree), "--weights", str(weights), "--dist", str(dist)
        )
        assert code == 0
        moves = tmp_path / "m.moves"
        moves.write_text(moves_text)
        code, out, _ = invoke(
            "simulate", "--tree", str(tree), "--dist", str(dist), "--moves", str(moves)
        )
        assert code == 0
        assert "c 1" in out

    def test_witness_on_unsolvable_errors(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        weights = tmp_path / "w.map"
        weights.write_text("b 1\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 1\n")
        code, _, err = invoke(
            "witness", "--tree", str(tree), "--weights", str(weights), "--dist", str(dist)
        )
        assert code == 1
        assert "error: UNSOLVABLE" in err

    def test_illegal_replay_reports_index(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 1\n")
        moves = tmp_path / "m.moves"
        moves.write_text("a b\n")
        code, out, _ = invoke(
            "simulate", "--tree", str(tree), "--dist", str(dist), "--moves", str(moves)
        )
        assert code == 1
        assert out.startswith("ILLEGAL 0 ")


class TestExtremalCommand:
    def test_star(self, star):
        tree, weights = star
        code, out, _ = invoke("extremal", "--tree", tree, "--weights", weights)
        assert code == 0
        assert "# extremal gamma=8 size=7 root=d" in out
        assert "d 7" in out


class TestVerifyCommand:
    def test_pass_exit_zero(self, star):
        tree, weights = star
        code, out, _ = invoke("verify", "--tree", tree, "--weights", weights)
        assert code == 0
        assert "status PASS" in out
        assert "oracle_gamma 8" in out

    def test_json(self, star):
        tree, weights = star
        code, out, _ = invoke("verify", "--tree", tree, "--weights", weights, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "PASS"
        assert payload["witness"] == {"d": 7}


class TestGenTreeCommand:
    def test_output_parses_back(self):
        code, out, _ = invoke("gen-tree", "-n", "9", "--seed", "4")
        assert code == 0
        t = parse_tree(out)
        assert t.n == 9

    def test_single_vertex(self):
        code, out, _ = invoke("gen-tree", "-n", "1", "--seed", "0")
        assert code == 0
        assert parse_tree(out).names == ("v1",)


class TestErrorChannel:
    def test_unknown_flag_is_usage_error(self, path3):
        code, _, err = invoke("partition", "--tree", path3, "--root", "a", "--bogus")
        assert code == 2
        assert err.startswith("error: USAGE:")

    def test_missing_command_is_usage_error(self):
        code, _, err = invoke()
        assert code == 2

    def test_cycle_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("a b\nb c\nc a\n")
        code, _, err = invoke("partition", "--tree", str(bad), "--root", "a")
        assert code == 2
        assert err.startswith("error: FORMAT:")

    def test_unknown_vertex_in_weights(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        weights = tmp_path / "w.map"
        weights.write_text("zz 1\n")
        code, _, err = invoke("cover", "--tree", str(tree), "--weights", str(weights))
        assert code == 2
        assert err.startswith("error: UNKNOWN_VERTEX:")

    def test_overflow_exit_three(self, tmp_path):
        names = [f"n{i:03d}" for i in range(65)]
        doc = "\n".join(f"{names[i]} {names[i+1]}" for i in range(64))
        deep = tmp_path / "deep.tree"
        deep.write_text(doc + "\n")
        code, _, err = invoke("tpebble", "--tree", str(deep), "--root", names[0])
        assert code == 3
        assert err.startswith("error: OVERFLOW:")

    def test_count_above_int64_exit_three(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        dist = tmp_path / "d.map"
        dist.write_text(f"b {2**70}\n")
        moves = tmp_path / "m.moves"
        moves.write_text("")
        code, out, err = invoke(
            "simulate", "--tree", str(tree), "--dist", str(dist), "--moves", str(moves)
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: OVERFLOW: line 1: count for vertex 'b'")

    def test_malformed_move_file_is_format_error(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        dist = tmp_path / "d.map"
        dist.write_text("a 2\n")
        moves = tmp_path / "m.moves"
        moves.write_text("# moves\na b\na\n")
        code, out, err = invoke(
            "simulate", "--tree", str(tree), "--dist", str(dist), "--moves", str(moves)
        )
        assert (code, out) == (2, "")
        assert err == "error: FORMAT: line 3: expected 'from to'\n"

    def test_oracle_budget_exit_four(self, tmp_path):
        code, out, _ = invoke("gen-tree", "-n", "9", "--seed", "1")
        big = tmp_path / "big.tree"
        big.write_text(out)
        weights = tmp_path / "w.map"
        weights.write_text("v1 1\n")
        code, _, err = invoke("verify", "--tree", str(big), "--weights", str(weights))
        assert code == 4
        assert err.startswith("error: BUDGET:")

    def test_missing_file_is_io_error(self):
        code, _, err = invoke("partition", "--tree", "/nonexistent.tree", "--root", "a")
        assert code == 2
        assert err.startswith("error: IO:")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, star, tmp_path):
        tree, weights = star
        dist = tmp_path / "d.map"
        dist.write_text("b 8\n")
        moves = tmp_path / "m.moves"
        code, moves_text, _ = invoke(
            "witness", "--tree", tree, "--weights", weights, "--dist", str(dist)
        )
        assert code == 0
        moves.write_text(moves_text)
        batches = [
            ("partition", "--tree", tree, "--root", "a"),
            ("tpebble", "--tree", tree),
            ("tpebble", "--tree", tree, "--root", "d", "-t", "3"),
            ("cover", "--tree", tree, "--weights", weights),
            ("solvable", "--tree", tree, "--weights", weights, "--dist", str(dist)),
            ("witness", "--tree", tree, "--weights", weights, "--dist", str(dist)),
            ("simulate", "--tree", tree, "--dist", str(dist), "--moves", str(moves)),
            ("extremal", "--tree", tree, "--weights", weights),
            ("verify", "--tree", tree, "--weights", weights),
            ("gen-tree", "-n", "7", "--seed", "3"),
        ]
        for argv in batches:
            assert invoke(*argv) == invoke(*argv)
            assert invoke(*argv, "--json") == invoke(*argv, "--json")
