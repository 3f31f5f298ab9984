import json
import os
import re
import subprocess
import sys
from pathlib import Path

from autorbit import cli, make_group
from autorbit.errors import FactorizationFailure

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_golden(name):
    return (GOLDEN / name).read_text()


def test_quotient_worked_example_both_methods(capsys):
    for method in ("fast", "snf"):
        code, out, _ = run_cli(
            capsys, "quotient", "-g", "2,4,8,8", "-x", "2,1,2,4", "--method", method
        )
        assert code == 0
        assert out == read_golden("quotient_2488.txt")
        assert "C2 x C8 x C8" in out


def test_quotient_cyclic_trivial_element(capsys):
    code, out, _ = run_cli(capsys, "quotient", "-g", "7", "-x", "0")
    assert code == 0
    assert out.splitlines() == ["elementary: C7", "invariant: C7"]


def test_quotient_cross_method_equality(capsys):
    _, fast_out, _ = run_cli(capsys, "quotient", "-g", "6,4", "-x", "3,2", "--method", "fast")
    _, snf_out, _ = run_cli(capsys, "quotient", "-g", "6,4", "-x", "3,2", "--method", "snf")
    assert fast_out == snf_out


def test_autoeq_equivalent_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3")
    assert code == 0
    assert out.splitlines()[-1] == "equivalent"


def test_autoeq_inequivalent_exits_one(capsys):
    code, out, _ = run_cli(capsys, "autoeq", "-g", "2,4", "-x", "1,0", "-y", "0,2")
    assert code == 1
    assert out == read_golden("autoeq_2x4.txt")
    assert out.splitlines()[-1] == "not equivalent"


def test_autoeq_uniform_family(capsys):
    code, out, _ = run_cli(capsys, "autoeq", "-g", "4,4,4", "-x", "1,1,1", "-y", "3,3,3")
    assert code == 0
    assert out.splitlines()[-1] == "equivalent"


def test_autoeq_oracle_flag(capsys):
    code, out, _ = run_cli(
        capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3", "--oracle"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "autoeq", "-g", "2,4", "-x", "1,0", "-y", "0,2", "--oracle"
    )
    assert code == 1


def test_autoeq_json_golden(capsys):
    code, out, _ = run_cli(
        capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3", "--format", "json"
    )
    assert code == 0
    assert out == read_golden("autoeq_4x4.json")
    assert json.loads(out)["equivalent"] is True


def test_fast_autoeq_decides_from_the_keys_it_prints(monkeypatch, capsys):
    calls = {"quotient_key": 0, "are_automorphic": 0}

    def counting(name):
        real = getattr(cli, name)

        def stub(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return stub

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    code, out, _ = run_cli(capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3")
    assert code == 0
    assert out.splitlines()[-1] == "equivalent"
    assert calls == {"quotient_key": 2, "are_automorphic": 0}


def test_oracle_route_never_calls_the_fast_path(monkeypatch, capsys):
    autoeq = ("autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3", "--format", "json")
    orbits = ("orbits", "-g", "2,4", "--format", "json")

    def labels(out):
        return sorted((json.dumps(o["quotient"]), o["size"]) for o in json.loads(out)["orbits"])

    _, fast_autoeq, _ = run_cli(capsys, *autoeq)
    _, fast_orbits, _ = run_cli(capsys, *orbits)

    def fast_path(*args, **kwargs):
        raise AssertionError("the --oracle route called the fast path")

    monkeypatch.setattr(cli, "quotient_key", fast_path)
    monkeypatch.setattr(cli, "are_automorphic", fast_path)
    code, out, _ = run_cli(capsys, *autoeq, "--oracle")
    assert code == 0
    assert out == fast_autoeq
    code, out, _ = run_cli(capsys, *orbits, "--oracle")
    assert code == 0
    assert labels(out) == labels(fast_orbits)


def test_orbits_text_golden(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "2,4")
    assert code == 0
    assert out == read_golden("orbits_2x4.txt")
    lines = out.splitlines()
    assert lines[-2] == "orbits: 4"
    assert lines[-1] == "size total: 8"


def test_orbits_cyclic_four_sizes(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "4")
    assert code == 0
    sizes = [int(line.split()[-2]) for line in out.splitlines()[3:6]]
    assert sizes == [2, 1, 1]


def test_orbits_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "1")
    assert code == 0
    assert "orbits: 1" in out


def test_orbits_json_golden_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "2,4", "--format", "json")
    assert code == 0
    assert out == read_golden("orbits_2x4.json")
    payload = json.loads(out)
    # unbounded integers ride as decimal strings
    assert payload["order"] == "8"
    assert all(isinstance(s["size"], str) for s in payload["orbits"])
    # round-trip: the printed group re-parses to an equal group
    group_spec = ",".join(payload["group"])
    assert make_group(cli.parse_int_list(group_spec)).moduli == (2, 4)
    total = sum(int(s["size"]) for s in payload["orbits"])
    assert total == int(payload["size_total"])


def test_orbits_answers_from_the_census(capsys):
    # C4^512 has 3^512 reduced forms but only 3 orbits; --cap counts orbits
    group = ",".join(["4"] * 512)
    code, out, _ = run_cli(capsys, "orbits", "-g", group)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "orbits: 3"
    assert lines[-1] == f"size total: {4**512}"
    assert run_cli(capsys, "orbits", "-g", group, "--cap", "3")[0] == 0
    assert run_cli(capsys, "orbits", "-g", group, "--cap", "2")[0] == 5


def test_orbits_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "2,4", "--oracle")
    assert code == 0
    assert "orbits: 4" in out and "size total: 8" in out


def test_orbits_oracle_matches_fast_on_c2_cubed_c4(capsys):
    # 21,504 automorphisms, the largest search of order 32 within the cap
    argv = ("orbits", "-g", "2,2,2,4", "--format", "json")
    code, fast, _ = run_cli(capsys, *argv)
    assert code == 0
    code, brute, _ = run_cli(capsys, *argv, "--oracle")
    assert code == 0

    def orbits(out):
        payload = json.loads(out)
        rows = sorted((json.dumps(o["quotient"]), o["size"]) for o in payload["orbits"])
        return payload["orbit_count"], payload["size_total"], rows

    assert orbits(brute) == orbits(fast)


def test_orbits_oracle_text_matches_fast_on_c2_cubed_c4(capsys):
    argv = ("orbits", "-g", "2,2,2,4")
    code, fast, _ = run_cli(capsys, *argv)
    assert code == 0
    code, brute, _ = run_cli(capsys, *argv, "--oracle")
    assert code == 0

    def table(out):
        # header, footer, and the (quotient, size) columns of the rows; the
        # routes may pick different representatives
        lines = out.splitlines()
        rows = sorted(line.rsplit(maxsplit=1)[0] for line in lines[3:-2])
        return lines[:3], lines[-2:], rows

    assert table(brute) == table(fast)
    assert table(fast)[1] == ["orbits: 4", "size total: 32"]


def test_quotient_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "-g", "6,4", "-x", "3,2", "--format", "json"
    )
    assert code == 0
    assert out == read_golden("quotient_6x4.json")
    payload = json.loads(out)
    element_spec = ",".join(payload["element"])
    G = make_group(cli.parse_int_list(",".join(payload["group"])))
    assert G.element(cli.parse_int_list(element_spec)).coords == (3, 2)


def test_quotient_json_big_integers_are_strings(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "-g", f"{2**20},{5**20}", "-x", "0,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"]["order"] == str(10**20)
    assert payload["quotient"]["invariant"] == [str(10**20)]
    assert all(isinstance(v, str) for v in payload["quotient"]["invariant"])


def test_factor_text_golden(capsys):
    code, out, _ = run_cli(capsys, "factor", "100000000000000000000")
    assert code == 0
    assert out == read_golden("factor_1e20.txt")
    assert out.strip() == "100000000000000000000 = 2^20 * 5^20"


def test_factor_one(capsys):
    code, out, _ = run_cli(capsys, "factor", "1")
    assert code == 0
    assert out.strip() == "1 = 1"


def test_factor_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "360", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": "360", "factors": {"2": 3, "3": 2, "5": 1}}


def test_exit_code_parse_error(capsys):
    # argparse converts -g, -x and -y under the interpreter's digit limit
    # (4300 by default): a bad token, an empty list or an over-long integer
    # is a usage error that names the option
    too_long = "1" * 4301
    for argv, option in (
        (("quotient", "-g", "2,x", "-x", "1,1"), "-g/--group"),
        (("quotient", "-g", "2,4", "-x", "1,a"), "-x/--element"),
        (("autoeq", "-g", "2,4", "-x", "1,0", "-y", ""), "-y"),
        (("quotient", "-g", "2,4", "-x", f"1,{too_long}"), "-x/--element"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and f"argument {option}: " in err
    assert run_cli(capsys, "quotient", "-g", "0,4", "-x", "1,1") == (
        2,
        "",
        "error: cyclic order must be >= 1, got 0\n",
    )
    # autoeq takes no --method: --oracle is its only other route
    assert run_cli(capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,3", "--method", "snf")[0] == 2
    assert run_cli(capsys, "factor", "banana")[0] == 2
    assert run_cli(capsys, "factor", "0")[0] == 2
    assert run_cli(capsys, "nonsense-command")[0] == 2
    # factor's n is checked by argparse, as --cap is: a usage error that names it
    for n in ("0", "banana"):
        code, out, err = run_cli(capsys, "factor", n)
        assert (code, out) == (2, "") and "argument n" in err


def test_results_print_every_digit(capsys):
    # |C2^2200| = 2^2200 has 663 digits, past a limit of 640 on int-to-str
    # conversion; each command builds its payload in both formats, so all six
    # runs used to end in a ValueError traceback
    group = ",".join(["2"] * 2200)
    zero = ",".join(["0"] * 2200)
    argvs = {
        "autoeq": ["autoeq", "-g", group, "-x", zero, "-y", zero],
        "quotient": ["quotient", "-g", group, "-x", zero],
        "orbits": ["orbits", "-g", group],
    }
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        runs = {
            (name, fmt): run_cli(capsys, *argv, "--format", fmt)
            for name, argv in argvs.items()
            for fmt in ("text", "json")
        }
        assert sys.get_int_max_str_digits() == 640  # main restores the limit
    finally:
        sys.set_int_max_str_digits(limit)
    assert {code for code, _, _ in runs.values()} == {0}
    digits = str(2**2200)
    assert json.loads(runs["autoeq", "json"][1])["x_quotient"]["order"] == digits
    assert json.loads(runs["quotient", "json"][1])["quotient"]["order"] == digits
    assert json.loads(runs["orbits", "json"][1])["order"] == digits
    assert f"order: {digits}\n" in runs["orbits", "text"][1]
    assert f"size total: {digits}\n" in runs["orbits", "text"][1]
    # an input integer still obeys the limit: a parse error, exit 2
    too_long = "1" * (sys.get_int_max_str_digits() + 1)
    assert run_cli(capsys, "quotient", "-g", f"2,{too_long}", "-x", "0,0")[:2] == (2, "")


def test_main_restores_the_digit_limit_on_error_exits(capsys):
    argvs = (
        (("quotient", "-g", "2,4", "-x", "1,2,3"), 3),
        (("orbits", "-g", "2,4", "--cap", "2"), 5),
        (("orbits", "-g", "2,4", "--cap", "0"), 2),
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv, expected in argvs:
            code = run_cli(capsys, *argv)[0]
            assert (code, sys.get_int_max_str_digits()) == (expected, 640), argv
    finally:
        sys.set_int_max_str_digits(limit)


def exit_code_list(text):
    """{code: meaning} from the first 'Exit codes: 0 ..., 1 ..., 5 ....'
    sentence of a text, Markdown backticks removed."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S).group(1)
    items = " ".join(sentence.replace("`", "").split()).split(", ")
    return {int(code): meaning for code, _, meaning in (i.partition(" ") for i in items)}


def test_documented_exit_codes_match_the_cli():
    codes = {v for name, v in vars(cli).items() if name.startswith("EXIT_")}
    documented = exit_code_list(cli.__doc__)
    assert set(documented) == codes
    assert exit_code_list(README.read_text()) == documented
    assert set(cli.ERROR_EXIT_CODES.values()) <= codes


def test_exit_code_arity_mismatch(capsys):
    assert run_cli(capsys, "quotient", "-g", "2,4", "-x", "1,2,3")[0] == 3
    assert run_cli(capsys, "autoeq", "-g", "2,4", "-x", "1", "-y", "0,0")[0] == 3


def test_exit_code_capacity(capsys):
    assert run_cli(capsys, "orbits", "-g", "2,4", "--cap", "2")[0] == 5
    assert run_cli(capsys, "autoeq", "-g", "2,2,2,2,2,2,2,2", "-x", "1,1,1,1,1,1,1,1",
                   "-y", "1,1,1,1,1,1,1,0", "--oracle", "--cap", "1000")[0] == 5


def test_oracle_autoeq_over_cap_builds_no_key(monkeypatch, capsys):
    # C256 x C256 fits the key cap (|G| <= 10^7) but not the Aut(G) search's
    # (|G|^rank <= 10^7); the keys used to be built first, 0.99 s of work
    calls = []
    real = cli.oracle.brute_quotient_key

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.oracle, "brute_quotient_key", counting)
    code, out, err = run_cli(capsys, "autoeq", "-g", "256,256", "-x", "1,0", "-y", "0,1", "--oracle")
    assert (code, out, calls) == (5, "", [])
    assert "automorphism search space" in err


def test_cap_must_be_positive(capsys):
    # `orbits --cap -1` used to report "9+ reduced forms exceed cap -1", exit 5
    for cap in ("0", "-1"):
        code, out, err = run_cli(capsys, "orbits", "-g", "4,4", "--cap", cap)
        assert (code, out) == (2, "") and "--cap" in err
        code, out, err = run_cli(
            capsys, "autoeq", "-g", "4,4", "-x", "1,0", "-y", "0,1", "--oracle", "--cap", cap
        )
        assert (code, out) == (2, "") and "--cap" in err
    assert run_cli(capsys, "orbits", "-g", "4,4", "--cap", "9")[0] == 0


def test_exit_code_factorization_failure(monkeypatch, capsys):
    def explode(n):
        raise FactorizationFailure("budget exhausted")

    monkeypatch.setattr(cli, "factorize", explode)
    assert run_cli(capsys, "factor", "97")[0] == 4


def test_bench_subcommand_is_gone(capsys):
    # timing lives in perfbench/, so the CLI neither offers nor imports a
    # harness; nor does its import load dataclasses and the introspection
    # modules that come with it, which every CLI process would pay for;
    # importing autorbit.bench loads neither dataclasses nor inspect either
    assert run_cli(capsys, "bench")[0] == 2
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, autorbit.cli; "
            "print(sorted({'autorbit.bench', 'statistics', 'dataclasses', 'inspect'} & set(sys.modules))); "
            "import autorbit.bench; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "autorbit", "quotient", "-g", "2,4,8,8", "-x", "2,1,2,4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0
    assert "C2 x C8 x C8" in proc.stdout
