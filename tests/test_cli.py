import json
import subprocess
import sys

import pytest

from domcover.cli import _BATCH, _flatten, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_gamma_text(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--family", "path", "--params", "n=7")
        assert code == 0
        assert out == "gamma: 3\n"
        assert err.startswith("elapsed_ms:")

    def test_cover_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "--family", "path", "--params", "n=7", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "cover"
        assert doc["input"] == {"family": "path", "params": {"n": 7}, "seed": None}
        assert doc["results"] == {"mode": "plain", "size": 3, "cover_min": 4, "cover_max": 6}

    def test_witness_flag_gates_witness_fields(self, capsys):
        _, out, _ = run_cli(capsys, "cover", "--family", "cycle", "--params", "n=6", "--json")
        assert "witness" not in out
        _, out, _ = run_cli(
            capsys, "cover", "--family", "cycle", "--params", "n=6", "--json", "--witness"
        )
        doc = json.loads(out)
        assert doc["results"]["witness_min"] == [0, 3]

    def test_tree_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--family", "path", "--params", "n=6", "--objective", "min"
        )
        assert code == 0
        assert "size: 2" in out and "cover: 4" in out

    def test_block_solver(self, capsys):
        code, out, _ = run_cli(
            capsys, "block", "--family", "corona", "--params", "p=4",
            "--objective", "max", "--json",
        )
        assert json.loads(out)["results"] == {"objective": "max", "size": 4, "cover": 16}
        assert code == 0

    def test_total(self, capsys):
        code, out, _ = run_cli(capsys, "total", "--family", "path", "--params", "n=6", "--json")
        assert json.loads(out)["results"]["size"] == 4
        assert code == 0

    def test_enum(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--family", "cycle", "--params", "n=6", "--json")
        doc = json.loads(out)
        assert doc["results"] == {
            "gamma": 2,
            "count": 3,
            "gamma_sets": [[0, 3], [1, 4], [2, 5]],
        }
        assert code == 0

    def test_product_and_validate(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "product",
            "--familyG", "path", "--paramsG", "n=3",
            "--familyH", "complete", "--paramsH", "n=2", "--json",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["value"] == 5 and res["case"] == "gammaH_1" and res["gamma"] == 1
        two_k1 = tmp_path / "2k1.txt"
        two_k1.write_text("2 0\n")
        code, out, _ = run_cli(
            capsys, "product",
            "--familyG", "path", "--paramsG", "n=3",
            "--inputH", str(two_k1), "--objective", "max", "--json",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert (res["value"], res["case"], res["gamma"]) == (8, "mixed_case", 2)
        assert "alpha" not in res and "beta" not in res
        code, out, _ = run_cli(
            capsys, "validate-product",
            "--familyG", "path", "--paramsG", "n=3",
            "--familyH", "complete", "--paramsH", "n=2", "--json",
        )
        assert code == 0
        assert json.loads(out)["results"]["agree"] is True

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "corona", "--params", "p=3", "--json")
        doc = json.loads(out)
        assert doc["results"]["gamma"] == 3
        names = {c["name"] for c in doc["results"]["checks"]}
        assert "cover_at_most_half_order_squared" in names
        assert code == 0


class TestJsonOutput:
    # --json writes the encoder's chunks in batches; the bytes must be those
    # of print(json.dumps(doc, sort_keys=True, indent=2))
    @pytest.mark.parametrize(
        "argv",
        [
            ("tree", "--family", "path", "--params", "n=7"),
            ("tree", "--family", "path", "--params", "n=7", "--witness"),
            ("tree", "--family", "path", "--params", "n=1", "--witness"),
            ("block", "--family", "corona", "--params", "p=4"),
            ("block", "--family", "corona", "--params", "p=4", "--objective", "max", "--witness"),
            ("block", "--family", "path", "--params", "n=1", "--witness"),
            ("enum", "--family", "cycle", "--params", "n=6"),
            ("bounds", "--family", "path", "--params", "n=6"),
            (
                "validate-product",
                "--familyG", "path", "--paramsG", "n=3",
                "--familyH", "complete", "--paramsH", "n=2",
            ),
        ],
    )
    def test_json_is_one_sorted_indented_document(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_json_across_batches(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--family", "path", "--params", "n=30000", "--json", "--witness"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["witness"]) == 10000
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
        assert sum(1 for _ in chunks) > 4096
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        # not `out == want`: pytest would diff two 200 KB strings on a failure
        first = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), None)
        assert first is None and len(out) == len(want), f"first difference at {first}"


class TestTextOutput:
    def test_witness_line_across_batches(self, capsys):
        argv = ("tree", "--family", "path", "--params", "n=30000", "--witness")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        witness = json.loads(run_cli(capsys, *argv, "--json")[1])["results"]["witness"]
        assert len(witness) > 2 * _BATCH
        (line,) = [x for x in out.splitlines() if x.startswith("witness:")]
        # not `line == want`: pytest would diff two 50 KB strings on a failure
        same = line == "witness: " + " ".join(map(str, witness))
        assert same

    def test_lines_of_nested_results(self):
        out = []
        _flatten({"b": {"c": [1, True, None]}, "a": [], "d": 3}, "", out.append)
        # a list line keeps its space after the colon when the list is empty
        assert "".join(out) == "a: \nb.c: 1 true null\nd: 3\n"


class TestFilesAndRoundTrip:
    def test_gen_output_parses_back(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--family", "barbell", "--params", "n=4")
        assert code == 0
        f = tmp_path / "g.txt"
        f.write_text(out)
        code, out2, _ = run_cli(capsys, "cover", "--input", str(f), "--json")
        assert code == 0
        assert json.loads(out2)["results"] == {
            "mode": "plain", "size": 2, "cover_min": 6, "cover_max": 8,
        }

    def test_seeded_family_round_trip_matches_direct(self, capsys, tmp_path):
        args = ("--family", "random_tree", "--params", "n=9", "--seed", "4")
        _, text, _ = run_cli(capsys, "gen", *args)
        f = tmp_path / "t.txt"
        f.write_text(text)
        _, direct, _ = run_cli(capsys, "gamma", *args)
        _, via_file, _ = run_cli(capsys, "gamma", "--input", str(f))
        assert direct == via_file

    def test_parse_error_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 1\n0 5\n")
        code, out, err = run_cli(capsys, "gamma", "--input", str(f))
        assert code == 2 and out == ""
        assert "line 2" in err


class TestUnreadableInput:
    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"2 1\n0 1\n\xff\n")
        code, out, err = run_cli(capsys, "gamma", "--input", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff")

    def test_header_beyond_the_list_limit_exits_3(self, capsys, tmp_path):
        f = tmp_path / "huge.txt"
        f.write_text("99999999999999999999 0\n")
        code, out, err = run_cli(capsys, "gamma", "--input", str(f))
        assert code == 3 and out == ""
        assert "n=99999999999999999999" in err

    def test_header_beyond_memory_exits_3(self, src_env, tmp_path):
        # 10^13 rows cannot be allocated; the child caps its own address
        # space so that the failed allocation cannot touch real memory.
        f = tmp_path / "huge.txt"
        f.write_text("10000000000000 0\n")
        child = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from domcover.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", child, "gamma", "--input", str(f)],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert run.returncode == 3 and run.stdout == ""
        assert "n=10000000000000" in run.stderr


class TestErrorExits:
    def test_domain_errors_exit_2(self, capsys):
        assert run_cli(capsys, "gamma", "--family", "nope", "--params", "n=3")[0] == 2
        assert run_cli(capsys, "gamma", "--input", "/no/such/file")[0] == 2
        assert run_cli(capsys, "tree", "--family", "cycle", "--params", "n=5")[0] == 2
        assert run_cli(capsys, "gamma", "--family", "random_tree", "--params", "n=5")[0] == 2

    def test_capacity_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "cover", "--family", "path", "--params", "n=40")
        assert code == 3 and "capacity" in err

    def test_usage_exit_64(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 64
        assert run_cli(capsys, "gamma", "--nope")[0] == 64
        assert run_cli(capsys, "gamma")[0] == 64
        assert run_cli(capsys, "gamma", "--family", "path", "--params", "n")[0] == 64
        code, _, err = run_cli(
            capsys, "gamma", "--family", "path", "--params", "n=3", "--input", "x"
        )
        assert code == 64 and "exactly one" in err

    def test_unknown_flag_prints_usage(self, capsys):
        _, _, err = run_cli(capsys, "cover", "--family", "path", "--params", "n=3", "--frob")
        assert "usage" in err.lower()


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        args = (
            "cover", "--family", "random_gnp",
            "--params", "n=10", "num=1", "den=4", "--seed", "11",
            "--json", "--witness",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_subprocess_entry_point_bytes(self, src_env):
        cmd = [
            sys.executable, "-m", "domcover.cli",
            "cover", "--family", "random_tree", "--params", "n=12",
            "--seed", "3", "--json", "--witness",
        ]
        a = subprocess.run(cmd, capture_output=True, check=True, env=src_env)
        b = subprocess.run(cmd, capture_output=True, check=True, env=src_env)
        assert a.stdout == b.stdout
        assert a.stdout.endswith(b"}\n")
        json.loads(a.stdout)
