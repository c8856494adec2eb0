import io
import json
from pathlib import Path

import pytest

from treepebble import cli, parse_tree
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

    def test_deep_path_has_no_score_to_overflow(self, tmp_path):
        # t-pebbling this path overflows 2^63; its partition alone does not
        names = [f"n{i:03d}" for i in range(66)]
        deep = tmp_path / "deep.tree"
        deep.write_text("".join(f"{names[i]} {names[i + 1]}\n" for i in range(65)))
        code, out, err = invoke("partition", "--tree", str(deep), "--root", names[0])
        assert (code, err) == (0, "")
        assert out == "# partition root=n000\nsizes 65\npath " + " ".join(reversed(names)) + "\n"


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

    @pytest.mark.parametrize(
        "pile,demand,final",
        [
            (2**63 - 1, 1, "a 1\nb 4611686018427387903\n"),
            (2**62, 2**61, "a 0\nb 2305843009213693952\n"),
        ],
        ids=["2^63-1 for 1", "2^62 for 2^61"],
    )
    def test_one_batch_moves_a_pile_past_2_62(self, tmp_path, pile, demand, final):
        # one line per batch: a list of single moves this long once ran out of memory
        tree = tmp_path / "t.tree"
        tree.write_text("a b\n")
        weights = tmp_path / "w.map"
        weights.write_text(f"b {demand}\n")
        dist = tmp_path / "d.map"
        dist.write_text(f"a {pile}\n")
        code, moves_text, err = invoke(
            "witness", "--root", "b", "--tree", str(tree), "--weights", str(weights), "--dist", str(dist)
        )
        k = pile // 2
        assert (code, moves_text, err) == (0, f"# witness root=b moves={k}\na b {k}\n", "")
        moves = tmp_path / "m.moves"
        moves.write_text(moves_text)
        replay = invoke("simulate", "--tree", str(tree), "--dist", str(dist), "--moves", str(moves))
        assert replay == (0, f"# final size={pile - k}\n{final}", "")

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


    def test_empty_demand_bytes(self, star, tmp_path):
        tree, _ = star
        none = tmp_path / "none.map"
        none.write_text("")
        assert invoke("verify", "--tree", tree, "--weights", str(none)) == (
            0,
            "status PASS\nformula_gamma 0\noracle_gamma 0\nconfirmation full\n"
            "distributions_checked 0\ntree a b;b c;b d\nomega none\nwitness none\n",
            "",
        )
        assert invoke("verify", "--tree", tree, "--weights", str(none), "--json") == (
            0,
            '{"command": "verify", "confirmation": "full", "distributions_checked": 0, '
            '"formula_gamma": 0, "omega": {}, "oracle_gamma": 0, "status": "PASS", '
            '"tree": "a b;b c;b d", "witness": null}\n',
            "",
        )

    def test_empty_witness_bytes(self, tmp_path):
        # one vertex, demand 1: the largest unsolvable distribution is the empty one
        (tmp_path / "one.tree").write_text("a\n")
        (tmp_path / "one.map").write_text("a 1\n")
        argv = ("verify", "--tree", str(tmp_path / "one.tree"), "--weights", str(tmp_path / "one.map"))
        assert invoke(*argv) == (
            0,
            "status PASS\nformula_gamma 1\noracle_gamma 1\nconfirmation full\n"
            "distributions_checked 3\ntree a\nomega a 1\nwitness empty\n",
            "",
        )
        assert invoke(*argv, "--json") == (
            0,
            '{"command": "verify", "confirmation": "full", "distributions_checked": 3, '
            '"formula_gamma": 1, "omega": {"a": 1}, "oracle_gamma": 1, "status": "PASS", '
            '"tree": "a", "witness": {}}\n',
            "",
        )


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


@pytest.mark.parametrize(
    "argv,usage,option",
    [
        (["--help"], "usage: treepebble ", "verify"),
        (["cover", "--help"], "usage: treepebble cover ", "--weights"),
        (["witness", "--help"], "usage: treepebble witness ", "vertex-valued pebble file"),
    ],
    ids=["top-level", "subcommand", "shared flag"],
)
def test_help_goes_to_the_given_stream(argv, usage, option, capsys):
    code, out, err = invoke(*argv)
    assert code == 0
    assert out.startswith(usage) and option in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


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


@pytest.mark.parametrize(
    "argv,warns",
    [
        (("cover", "--weights", "W"), False),
        (("extremal", "--weights", "W"), False),
        (("tpebble",), True),
        (("tpebble", "--root", "d"), False),
        (("solvable", "--weights", "W", "--dist", "D"), False),
    ],
    ids=["cover", "extremal", "tpebble", "tpebble-root", "solvable"],
)
def test_quadratic_warning(star, tmp_path, monkeypatch, argv, warns):
    # the star has 4 vertices: only global tpebble, which repeats a pass per root, warns above 3
    tree, weights = star
    dist = tmp_path / "d.map"
    dist.write_text("b 8\n")
    files = {"W": weights, "D": str(dist)}
    argv = (argv[0], "--tree", tree) + tuple(files.get(a, a) for a in argv[1:])
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "QUADRATIC_WARN_SIZE", 3)
    warning = f"warning: {argv[0]} repeats a linear pass for every root; 4 vertices will be slow\n"
    assert invoke(*argv) == (code, out, warning if warns else "")


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


# Exact bytes on the star fixture for every command, text and JSON, and for
# each error class; files are named relative to the fixture's directory.
GOLDEN_FILES = {
    "dist.map": "b 8\n",
    "short.map": "d 1\n",
    "none.map": "",
    "legal.moves": "b a\nb c\n",
    "illegal.moves": "b a\nd b\n",
    "unknown.map": "zz 1\n",
    "huge.map": "a 9223372036854775808\n",
    "cycle.tree": "a b\nb c\nc a\n",
    "loop.tree": "a b\nb b\n",
    "dup.tree": "a b\nb c\nc b\n",
    "empty.tree": "# no vertices\n",
    "single.tree": "a\n",
    "full.map": "a 9223372036854775807\nb 9223372036854775807\n",
    "ab.moves": "a b\n",
    "zeros.map": "b " + "0" * 5000 + "8\n",
    "zeros-huge.map": "a " + "0" * 5000 + "9223372036854775808\n",
    "comment.tree": "a #b\n",
    "bare.map": "b\n",
}

GOLDEN = [
    ('partition --tree star.tree --root a', 0,
     '# partition root=a\nsizes 2 1\npath c b a\npath d b\n',
     ''),
    ('partition --tree star.tree --root a --json', 0,
     '{"command": "partition", "paths": [["c", "b", "a"], ["d", "b"]], "root": "a", "sizes": [2, 1]}\n',
     ''),
    ('tpebble --tree star.tree', 0,
     '# tpebble t=1\nvalue 5\nargmax a\n',
     ''),
    ('tpebble --tree star.tree --json', 0,
     '{"argmax": "a", "command": "tpebble", "t": 1, "value": 5}\n',
     ''),
    ('tpebble --tree star.tree --root d -t 3', 0,
     '# tpebble root=d t=3\nvalue 13\nsizes 2 1\n',
     ''),
    ('tpebble --tree star.tree --root d -t 3 --json', 0,
     '{"command": "tpebble", "root": "d", "sizes": [2, 1], "t": 3, "value": 13}\n',
     ''),
    ('cover --tree star.tree --weights demand.map', 0,
     '# cover gamma=8 argmax=d\na 6\nb 5\nc 6\nd 8\n',
     ''),
    ('cover --tree star.tree --weights demand.map --json', 0,
     '{"argmax": "d", "command": "cover", "degenerate": false, "gamma": 8, "s": {"a": 6, "b": 5, "c": 6, "d": 8}}\n',
     ''),
    ('cover --tree star.tree --weights none.map', 0,
     '# cover gamma=0 argmax=none (degenerate demand: empty support)\n',
     ''),
    ('cover --tree star.tree --weights none.map --json', 0,
     '{"argmax": null, "command": "cover", "degenerate": true, "gamma": 0, "s": {}}\n',
     ''),
    ('solvable --tree star.tree --weights demand.map --dist dist.map', 0,
     'SOLVABLE a\n',
     ''),
    ('solvable --tree star.tree --weights demand.map --dist dist.map --json', 0,
     '{"command": "solvable", "hat": {"a": 2, "b": 4, "c": 2, "d": 2}, "solvable": true, "witness_root": "a"}\n',
     ''),
    ('solvable --tree star.tree --weights demand.map --dist short.map', 1,
     'UNSOLVABLE\n# hat value per root\na -5\nb -4\nc -5\nd -7\n',
     ''),
    ('solvable --tree star.tree --weights demand.map --dist short.map --json', 1,
     '{"command": "solvable", "hat": {"a": -5, "b": -4, "c": -5, "d": -7}, "solvable": false, "witness_root": null}\n',
     ''),
    ('witness --tree star.tree --weights demand.map --dist dist.map', 0,
     '# witness root=a moves=4\nb a 3\nb c\n',
     ''),
    ('witness --tree star.tree --weights demand.map --dist dist.map --json', 0,
     '{"command": "witness", "moves": [["b", "a", 3], ["b", "c", 1]], "root": "a"}\n',
     ''),
    ('witness --tree star.tree --weights demand.map --dist dist.map --root a', 0,
     '# witness root=a moves=4\nb a 3\nb c\n',
     ''),
    ('witness --tree star.tree --weights demand.map --dist dist.map --root a --json', 0,
     '{"command": "witness", "moves": [["b", "a", 3], ["b", "c", 1]], "root": "a"}\n',
     ''),
    ('simulate --tree star.tree --dist dist.map --moves legal.moves', 0,
     '# final size=6\na 1\nb 4\nc 1\nd 0\n',
     ''),
    ('simulate --tree star.tree --dist dist.map --moves legal.moves --json', 0,
     '{"command": "simulate", "final": {"a": 1, "b": 4, "c": 1}, "size": 6}\n',
     ''),
    ('simulate --tree star.tree --dist dist.map --moves illegal.moves', 1,
     "ILLEGAL 1 source 'd' has 0 pebbles\n",
     ''),
    ('simulate --tree star.tree --dist dist.map --moves illegal.moves --json', 1,
     '{"command": "simulate", "illegal_index": 1, "reason": "source \'d\' has 0 pebbles"}\n',
     ''),
    ('extremal --tree star.tree --weights demand.map', 0,
     '# extremal gamma=8 size=7 root=d\na 0\nb 0\nc 0\nd 7\n',
     ''),
    ('extremal --tree star.tree --weights demand.map --json', 0,
     '{"command": "extremal", "distribution": {"d": 7}, "gamma": 8, "root": "d", "size": 7}\n',
     ''),
    ('verify --tree star.tree --weights demand.map', 0,
     'status PASS\nformula_gamma 8\noracle_gamma 8\nconfirmation full\ndistributions_checked 282\ntree a b;b c;b d\nomega a 1;c 1\nwitness d 7\n',
     ''),
    ('verify --tree star.tree --weights demand.map --json', 0,
     '{"command": "verify", "confirmation": "full", "distributions_checked": 282, "formula_gamma": 8, "omega": {"a": 1, "c": 1}, "oracle_gamma": 8, "status": "PASS", "tree": "a b;b c;b d", "witness": {"d": 7}}\n',
     ''),
    ('gen-tree -n 7 --seed 3', 0,
     'v1 v2\nv2 v3\nv2 v5\nv3 v7\nv4 v5\nv5 v6\n',
     ''),
    ('gen-tree -n 7 --seed 3 --json', 0,
     '{"command": "gen-tree", "edges": [["v1", "v2"], ["v2", "v3"], ["v2", "v5"], ["v3", "v7"], ["v4", "v5"], ["v5", "v6"]], "n": 7, "seed": 3, "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7"]}\n',
     ''),
    ('partition --tree single.tree --root a', 0,
     '# partition root=a\nsizes\n',
     ''),
    ('partition --tree single.tree --root a --json', 0,
     '{"command": "partition", "paths": [], "root": "a", "sizes": []}\n',
     ''),
    ('tpebble --tree single.tree --root a -t 2', 0,
     '# tpebble root=a t=2\nvalue 2\nsizes\n',
     ''),
    ('tpebble --tree single.tree --root a -t 2 --json', 0,
     '{"command": "tpebble", "root": "a", "sizes": [], "t": 2, "value": 2}\n',
     ''),
    ('partition --tree cycle.tree --root a', 2,
     '',
     'error: FORMAT: cycle detected: edge count exceeds vertex count - 1\n'),
    ('cover --tree loop.tree --weights demand.map', 2,
     '',
     "error: FORMAT: self-loop at vertex 'b'\n"),
    ('cover --tree dup.tree --weights demand.map', 2,
     '',
     'error: FORMAT: duplicate edge b c\n'),
    ('cover --tree empty.tree --weights demand.map', 2,
     '',
     'error: FORMAT: empty input: a tree needs at least one vertex\n'),
    ('partition --tree star.tree --root zz', 2,
     '',
     "error: UNKNOWN_VERTEX: unknown vertex 'zz'\n"),
    ('cover --tree star.tree --weights unknown.map', 2,
     '',
     "error: UNKNOWN_VERTEX: unknown vertex 'zz'\n"),
    ('simulate --tree star.tree --dist huge.map --moves legal.moves', 3,
     '',
     "error: OVERFLOW: line 1: count for vertex 'a' exceeds the signed 64-bit range\n"),
    ('witness --tree star.tree --weights demand.map --dist short.map', 1,
     '',
     'error: UNSOLVABLE: distribution cannot meet the demand from any root\n'),
    ('extremal --tree star.tree --weights none.map', 2,
     '',
     'error: VALUE: demand has empty support, no extremal distribution exists\n'),
    ('cover --weights demand.map', 2,
     '',
     'error: USAGE: the following arguments are required: --tree\n'),
    ('cover --weights demand.map --json', 2,
     '',
     'error: USAGE: the following arguments are required: --tree\n'),
    ('tpebble --tree star.tree -t x', 2,
     '',
     "error: USAGE: argument -t: invalid int value: 'x'\n"),
    ('tpebble --tree star.tree --root a -t 0', 2,
     '',
     'error: VALUE: pebble target k must be at least 1\n'),
    ('verify --tree star.tree --weights demand.map --max-pebbles 3', 4,
     '',
     'error: BUDGET: size scan passed max_pebbles=3\n'),
    ('verify --tree star.tree --weights demand.map --max-pebbles -1', 4,
     '',
     'error: BUDGET: size scan passed max_pebbles=-1\n'),
    ('verify --tree star.tree --weights demand.map --max-pebbles 0', 4,
     '',
     'error: BUDGET: size scan passed max_pebbles=0\n'),
    ('verify --tree star.tree --weights demand.map --max-pebbles 7', 4,
     '',
     'error: BUDGET: size scan passed max_pebbles=7\n'),
    ('verify --tree star.tree --weights demand.map --max-pebbles 8', 0,
     'status PASS\nformula_gamma 8\noracle_gamma 8\nconfirmation full\ndistributions_checked 282\ntree a b;b c;b d\nomega a 1;c 1\nwitness d 7\n',
     ''),
    ('verify --tree star.tree --weights demand.map --max-pebbles 1000000000000000000', 0,
     'status PASS\nformula_gamma 8\noracle_gamma 8\nconfirmation full\ndistributions_checked 282\ntree a b;b c;b d\nomega a 1;c 1\nwitness d 7\n',
     ''),
    ('simulate --tree star.tree --dist full.map --moves ab.moves', 3,
     '',
     "error: OVERFLOW: move 0 would put more than 9223372036854775807 pebbles on 'b'\n"),
    ('tpebble --tree single.tree --root a -t 100000000000000000000', 3,
     '',
     'error: OVERFLOW: partition score 100000000000000000000 is outside the signed 64-bit range\n'),
    ('tpebble --tree single.tree -t 100000000000000000000', 3,
     '',
     'error: OVERFLOW: partition score 100000000000000000000 is outside the signed 64-bit range\n'),
    ('simulate --tree star.tree --dist zeros.map --moves legal.moves', 0,
     '# final size=6\na 1\nb 4\nc 1\nd 0\n',
     ''),
    ('simulate --tree star.tree --dist zeros-huge.map --moves legal.moves', 3,
     '',
     "error: OVERFLOW: line 1: count for vertex 'a' exceeds the signed 64-bit range\n"),
    ('cover --tree comment.tree --weights demand.map', 2,
     '',
     "error: FORMAT: vertex name '#b' starts with '#' (reserved for comments)\n"),
    ('cover --tree star.tree --weights bare.map', 2,
     '',
     "error: FORMAT: line 1: expected 'vertex count'\n"),
    ('gen-tree -n 0', 2,
     '',
     'error: VALUE: a tree needs at least one vertex\n'),
]


@pytest.mark.parametrize("argv,code,out,err", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_bytes(star, argv, code, out, err):
    folder = Path(star[0]).parent
    for name, text in GOLDEN_FILES.items():
        (folder / name).write_text(text)
    tokens = [str(folder / t) if (folder / t).exists() else t for t in argv.split()]
    assert invoke(*tokens) == (code, out, err)


def test_golden_bytes_in_reverse_in_one_process(star):
    # the parser is built once per process; no call may leave state for the next
    folder = Path(star[0]).parent
    for name, text in GOLDEN_FILES.items():
        (folder / name).write_text(text)
    for argv, code, out, err in reversed(GOLDEN):
        tokens = [str(folder / t) if (folder / t).exists() else t for t in argv.split()]
        assert invoke(*tokens) == (code, out, err), argv
