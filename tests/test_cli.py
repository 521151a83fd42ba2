import io
import json
import math
import re
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.cli import MAX_LOCAL_DATA_BYTES, main
from motivic_power.hilbert import LocalHilbertData
from motivic_power.localdata import MOTIVIC_RING
from motivic_power.power import EulerProduct
from motivic_power.rings import Polynomial, RingDescriptor
from motivic_power.series import Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHilbertCommand:
    def test_affine_plane(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--dim", "2", "--class", "L^2",
                           "--truncate", "2", "--vars", "L", "--laurent")
        assert code == 0
        assert out == "t^0: 1\nt^1: L^2\nt^2: L^4 + L^3\n"

    def test_euler_partition_numbers(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--dim", "2", "--class", "1",
                           "--specialize", "euler", "--truncate", "6")
        assert code == 0
        assert out == "t^0: 1\nt^1: 1\nt^2: 2\nt^3: 3\nt^4: 5\nt^5: 7\nt^6: 11\n"

    def test_hodge_defaults_to_uv(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--dim", "1", "--class", "1+u*v",
                           "--specialize", "hodge", "--truncate", "2")
        assert code == 0
        assert out.splitlines()[2] == "t^2: u^2*v^2 + u*v + 1"

    def test_dim_three_without_data_fails(self, capsys):
        code, _, err = run(capsys, "hilbert", "--dim", "3", "--class", "L^3",
                           "--truncate", "2")
        assert code == 1
        assert "no closed form" in err

    @pytest.mark.parametrize("specialize", [[], ["--specialize", "euler"],
                                            ["--specialize", "hodge"]])
    def test_dim_three_without_data_names_the_option(self, capsys,
                                                     specialize):
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class", "1",
                             "--truncate", "2", *specialize)
        assert code == 1 and out == ""
        assert "--local-data" in err and "user_data" not in err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dimension_below_one_exits_one(self, capsys, dim):
        code, out, err = run(capsys, "hilbert", "--dim", dim, "--class", "1",
                             "--truncate", "2")
        assert code == 1 and out == ""
        assert err == "error: dimension must be a positive integer\n"

    def test_user_local_data_file(self, capsys, tmp_path):
        L = Polynomial.variable(MOTIVIC_RING, "L")
        series = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + L + L ** 3])
        payload = LocalHilbertData(3, series).to_json(source="unit test")
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "hilbert", "--dim", "3", "--class", "1",
                           "--truncate", "3", "--local-data", str(path))
        assert code == 0
        assert out.splitlines()[3] == "t^3: L^3 + L + 1"


class TestSeriesCommands:
    def test_pow_trivial(self, capsys):
        code, out, _ = run(capsys, "pow", "--series", "1+t",
                           "--exponent", "0", "--truncate", "3")
        assert code == 0
        assert out == "t^0: 1\nt^1: 0\nt^2: 0\nt^3: 0\n"

    def test_zeta_hodge_class(self, capsys):
        code, out, _ = run(capsys, "zeta", "--class", "1+u*v",
                           "--vars", "u", "v", "--truncate", "2")
        assert code == 0
        assert out.splitlines()[2] == "t^2: u^2*v^2 + u*v + 1"

    def test_factor_and_assemble_inverse(self, capsys):
        code, out, _ = run(capsys, "factor", "--series", "1+t", "--truncate", "4")
        assert code == 0
        assert out == "b_1: 1\nb_2: -1\nb_3: 0\nb_4: 0\n"
        code, out, _ = run(capsys, "assemble", "--exponents", "1", "-1",
                           "--truncate", "4")
        assert code == 0
        assert out == "t^0: 1\nt^1: 1\nt^2: 0\nt^3: 0\nt^4: 0\n"

    def test_exp_log(self, capsys):
        code, out, _ = run(capsys, "exp", "--exponents", "1", "--truncate", "3")
        assert code == 0
        assert out == "t^0: 1\nt^1: 1\nt^2: 1\nt^3: 1\n"
        code, out, _ = run(capsys, "log", "--series", "1+t+t^2+t^3",
                           "--truncate", "3")
        assert code == 0
        assert out == "b_1: 1\nb_2: 0\nb_3: 0\n"


    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("alias,command,argv", [
        ("exp", "assemble", ["--exponents", "u*v", "-1", "--vars", "u", "v",
                             "--truncate", "4"]),
        ("exp", "assemble", ["--exponents", "L^-1+2", "L", "--vars", "L",
                             "--laurent", "--truncate", "5"]),
        ("exp", "assemble", ["--exponents", "3", "--truncate", "0"]),
        ("log", "factor", ["--series", "1+t+t^2", "--truncate", "5"]),
        ("log", "factor", ["--series", "1+(L^-1+L)*t-t^3", "--vars", "L",
                           "--laurent", "--truncate", "6"]),
        ("log", "factor", ["--series", "1", "--truncate", "0"]),
    ])
    def test_exp_and_log_print_what_assemble_and_factor_print(
            self, capsys, fmt, alias, command, argv):
        argv = argv + ["--format", fmt]
        code, out, _ = run(capsys, alias, *argv)
        assert code == 0
        assert run(capsys, command, *argv) == (0, out, "")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, printed t^k lines) for each command of the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("motivic-power "):
            commands.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# t^"):
            commands[-1][1].append(line[2:])
    return commands


README_COMMANDS = readme_commands()


class TestReadmeCommands:
    def test_block_is_found(self):
        assert len(README_COMMANDS) >= 12
        assert any(printed for _, printed in README_COMMANDS)

    @pytest.mark.parametrize("argv,printed", [
        pytest.param(argv, printed, id=" ".join(argv))
        for argv, printed in README_COMMANDS
    ])
    def test_command_runs(self, capsys, monkeypatch, tmp_path, argv, printed):
        # the README's --local-data file, in the working directory
        L = Polynomial.variable(MOTIVIC_RING, "L")
        series = Series(MOTIVIC_RING, 2, [1, 1, 1 + L + L ** 2])
        (tmp_path / "punctual_d3.json").write_text(json.dumps(
            LocalHilbertData(3, series).to_json(source="Hilb^2_0(A^3) = P^2")),
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if printed:
            assert out.splitlines() == printed


class TestJsonOutput:
    def test_series_round_trips_through_library(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--dim", "2", "--class", "L^2",
                           "--truncate", "2", "--vars", "L", "--laurent",
                           "--format", "json")
        assert code == 0
        S = Series.from_json(json.loads(out))
        L = Polynomial.variable(MOTIVIC_RING, "L")
        assert S.coefficient(2) == L ** 4 + L ** 3
        # feeding the canonical text back reproduces the same value
        code2, out2, _ = run(capsys, "hilbert", "--dim", "2", "--class", "L^2",
                             "--truncate", "2", "--vars", "L", "--laurent",
                             "--format", "json")
        assert out2 == out

    def test_factor_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "factor", "--series", "1+2*t",
                           "--truncate", "5", "--format", "json")
        assert code == 0
        E = EulerProduct.from_json(json.loads(out))
        assert E.order == 5


class TestChecksAndExitCodes:
    def test_axioms_deterministic_for_seed(self, capsys):
        code1, out1, _ = run(capsys, "axioms", "--seed", "11", "--samples", "4",
                             "--truncate", "5")
        code2, out2, _ = run(capsys, "axioms", "--seed", "11", "--samples", "4",
                             "--truncate", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1

    @pytest.mark.parametrize("value", ["31", "abc", "", "7" * 5000],
                             ids=["valid", "letters", "empty", "long"])
    def test_axioms_env_seed(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MOTIVIC_POWER_SEED", value)
        code, out, err = run(capsys, "axioms", "--samples", "2", "--truncate", "4")
        if value == "31":
            assert code == 0
            assert "seed=31" in out
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: MOTIVIC_POWER_SEED ")
            assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("ring", [["--vars", "u", "v"],
                                      ["--vars", "L", "--laurent"], []],
                             ids=["uv", "laurent", "integers"])
    def test_axioms_json_is_unchanged(self, capsys, ring):
        code, out, _ = run(capsys, "axioms", "--seed", "7", "--format", "json",
                           *ring)
        assert code == 0
        assert out == ('{"status": "pass", "seed": 7, "samples": 20, '
                       '"order": 8, "failures": []}\n')

    def test_axioms_over_many_variables_completes(self, capsys):
        # 18 Laurent variables: a pool of 685 exponent vectors, from a
        # box of 5^18
        names = ["x%d" % i for i in range(18)]
        start = time.perf_counter()
        code, out, _ = run(capsys, "axioms", "--vars", *names, "--laurent",
                           "--truncate", "0", "--samples", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and "result: PASS" in out

    def test_axioms_over_polynomial_ring(self, capsys):
        code, out, _ = run(capsys, "axioms", "--seed", "3", "--samples", "2",
                           "--truncate", "5", "--vars", "u", "v")
        assert code == 0
        assert "ring=Z[u, v]" in out

    def test_oracle_check_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-points", "3",
                           "--max-weight", "3", "--max-size", "2",
                           "--truncate", "5")
        assert code == 0
        assert "oracle-check: PASS" in out

    @pytest.mark.parametrize("src,message", [
        ("1+w", "unknown variable 'w' (line 1, column 3)"),
        ("2\u00b2+u", "unexpected character '\u00b2' (line 1, column 2)"),
        ("1+u^\u0663", "unexpected character '\u0663' (line 1, column 5)"),
        ("1+" + "7" * 5000 + "*u", "5000 digits"),
        ("1+u^" + "7" * 5000, "5000 digits"),
    ], ids=["unknown-variable", "superscript", "arabic-indic", "long-literal",
            "long-exponent"])
    def test_unknown_variable_exits_one(self, capsys, src, message):
        code, out, err = run(capsys, "zeta", "--class", src, "--vars", "u", "v")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert "line 1, column" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv", [
        ["pow", "--series", "1+t", "--exponent", "2"],
        ["factor", "--series", "1+t"],
        ["log", "--series", "1+t"],
    ], ids=["pow", "factor", "log"])
    def test_series_variable_as_ring_variable_exits_one(self, capsys, argv):
        # the cost bound sizes the series over the ring and t: the clash is
        # reported before a ring with t twice is built
        code, out, err = run(capsys, *argv, "--vars", "t")
        assert code == 1 and out == ""
        assert err == "error: ring variable 't' clashes with the series " \
            "variable\n"

    def test_local_data_without_dimension_exits_one(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"source": "x"}), encoding="utf-8")
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class", "1",
                             "--truncate", "2", "--local-data", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'dimension'" in err

    @staticmethod
    def write_d3(path, order, top=None):
        """A dimension-3 local data file 1, 1, 1+L+L^2, 1+L^3, ..., 1+L^order."""
        L = Polynomial.variable(MOTIVIC_RING, "L")
        coeffs = [1, 1, 1 + L + L ** 2] + [1 + L ** k for k in range(3, order + 1)]
        payload = LocalHilbertData(3, Series(MOTIVIC_RING, order, coeffs[:order + 1])
                                   ).to_json(source="unit test")
        path.write_text(json.dumps(payload), encoding="utf-8")
        return payload

    @pytest.mark.parametrize("keys,value", [
        (("dimension",), 3.9),
        (("dimension",), True),
        (("series", "order"), 2.2),
        (("series", "coeffs", 2, "terms", 1, "exp"), [1.9]),
        (("series", "coeffs", 2, "terms", 1, "exp"), [True]),
        (("series", "coeffs", 2, "terms", 1, "exp"), "1"),
        (("series", "coeffs", 2, "terms", 1, "coef"), 2.7),
        (("series", "coeffs", 2, "terms", 1, "coef"), "2.7"),
        (("series", "coeffs", 2, "terms", 1, "coef"), True),
        (("series", "coeffs", 2, "ring", "laurent"), "false"),
        (("series", "coeffs", 2, "ring", "vars"), "L"),
        # past Python's limit on decimal digits, as a string and as JSON
        pytest.param(("series", "coeffs", 2, "terms", 1, "coef"), "7" * 5000,
                     id="coef-string-5000-digits"),
        pytest.param(("series", "coeffs", 2, "terms", 1, "coef"),
                     7 * 10 ** 4999, id="coef-integer-5000-digits"),
    ])
    def test_local_data_with_a_non_integer_exits_one(self, capsys, tmp_path,
                                                     keys, value):
        path = tmp_path / "d3.json"
        payload = self.write_d3(path, 2)
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # only to write the file
        try:
            text = json.dumps(payload)
        finally:
            sys.set_int_max_str_digits(limit)
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class", "L^3",
                             "--truncate", "2", "--local-data", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("keys,value,message", [
        pytest.param(("series", "coeffs", 1, "ring"), None,
                     "series.coeffs[1].ring is missing", id="missing-key"),
        pytest.param(("series", "coeffs", 3, "terms", 0, "exp"), "1",
                     "series.coeffs[3].terms[0].exp must be a list, got '1'",
                     id="wrong-type"),
        pytest.param(("series", "coeffs"), {"0": 1},
                     "series.coeffs must be a list", id="coeffs-not-a-list"),
        pytest.param(("series", "coeffs", 2, "terms"), "L",
                     "series.coeffs[2].terms must be a list, got 'L'",
                     id="terms-not-a-list"),
    ])
    def test_local_data_errors_name_the_json_path(self, capsys, tmp_path,
                                                  keys, value, message):
        path = tmp_path / "d3.json"
        payload = self.write_d3(path, 3)
        target = payload
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class", "L^3",
                             "--truncate", "3", "--local-data", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_local_data_parses_only_the_requested_prefix(
            self, capsys, monkeypatch, tmp_path):
        argv = ["hilbert", "--dim", "3", "--class", "L^3", "--truncate", "5",
                "--local-data"]
        short, long = tmp_path / "order5.json", tmp_path / "order200.json"
        self.write_d3(short, 5)
        self.write_d3(long, 200)
        parse = Polynomial.from_json.__func__
        parsed = []

        def counted(cls, obj, path):
            parsed.append(obj)
            return parse(cls, obj, path)

        monkeypatch.setattr(Polynomial, "from_json", classmethod(counted))
        code, out, _ = run(capsys, *argv, str(long))
        assert code == 0 and len(parsed) == 6
        assert run(capsys, *argv, str(short)) == (0, out, "")
        # a file declaring an order below --truncate is still refused
        self.write_d3(short, 4)
        code, out, err = run(capsys, *argv, str(short))
        assert code == 1 and out == "" and "only reaches order 4" in err

    @pytest.mark.parametrize("option,template", [
        ("--class", "%s1%s"),
        ("--series", "1+%st%s"),
    ])
    def test_deep_nesting_exits_one(self, capsys, option, template):
        src = template % ("(" * 3000, ")" * 3000)
        argv = ["zeta", "--class", src] if option == "--class" else \
            ["pow", "--series", src, "--exponent", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "nest deeper" in err
        assert "line 1, column" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_result_prints_nothing(self, capsys, fmt):
        # the t^2 coefficient 2^18000 has more digits than Python prints;
        # t^0 and t^1 must not be written before that is found
        code, out, err = run(capsys, "pow", "--series", "1+2^9000*t",
                             "--exponent", "2", "--truncate", "2",
                             "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "decimal digits" in err
        assert "set_int_max_str_digits" not in err

    def test_long_flat_chains_still_parse(self, capsys):
        code, out, _ = run(capsys, "zeta", "--class", "+".join(["1"] * 3000),
                           "--truncate", "1")
        assert code == 0
        assert out == "t^0: 1\nt^1: 3000\n"

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--dim", "2"])  # missing --class
        assert exc.value.code == 2

    def test_truncate_bound_enforced(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--class", "1", "--truncate", "500"])
        assert exc.value.code == 2


class TestTiming:
    def test_commands_at_truncate_twenty_stay_under_five_seconds(self, capsys):
        import time
        commands = [
            ["hilbert", "--dim", "2", "--class", "L^2", "--truncate", "20"],
            ["hilbert", "--dim", "2", "--class", "1", "--specialize", "euler",
             "--truncate", "20"],
            ["hilbert", "--dim", "1", "--class", "1+u*v", "--specialize",
             "hodge", "--truncate", "20"],
            ["zeta", "--class", "1+u*v", "--vars", "u", "v",
             "--truncate", "20"],
            ["pow", "--series", "1+t+t^2", "--exponent", "u*v-2",
             "--vars", "u", "v", "--truncate", "20"],
            ["factor", "--series", "1+2*t+3*t^2", "--truncate", "20"],
            ["axioms", "--seed", "4", "--truncate", "20"],
            ["oracle-check", "--truncate", "20"],
        ]
        for argv in commands:
            start = time.perf_counter()
            assert main(argv) == 0
            capsys.readouterr()
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, "%s took %.1f s" % (argv, elapsed)


class TestCostBound:
    """Requests are priced before any work starts (``cli.request_cost``)."""

    @staticmethod
    def estimate(capsys, monkeypatch, *argv):
        import re
        monkeypatch.setattr("motivic_power.cli.MAX_COST", 0.0)
        code, _, err = run(capsys, *argv)
        monkeypatch.undo()
        assert code == 1
        return float(re.search(r"estimated cost (\S+) exceeds", err).group(1))

    @pytest.mark.parametrize("argv", [
        ["zeta", "--class", "(1+2*x)^3000", "--vars", "x", "--truncate", "3"],
        ["factor", "--series", "(1+2*t)^3000", "--truncate", "3"],
        ["hilbert", "--dim", "2", "--class", "1+u^2+v^2+20*u*v+u^2*v^2",
         "--specialize", "hodge", "--truncate", "200"],
        ["axioms", "--vars", "u", "v", "--truncate", "200", "--samples", "1"],
        ["axioms", "--samples", "100000"],
        # 30 Laurent variables: law 5's product m*n of two 1,861-term
        # polynomials took 5.8 s for one sample
        ["axioms", "--vars", *("x%d" % i for i in range(30)), "--laurent",
         "--truncate", "0"],
        ["oracle-check", "--max-points", "40", "--max-weight", "40"],
        ["oracle-check", "--max-weight", "1000000000", "--max-size", "0"],
        ["oracle-check", "--truncate", "60"],
        # 1.6e7 terms built by one product: each term is priced where the
        # product is (it ended in a MemoryError when only its term pairs
        # were)
        ["zeta", "--class", "(%s)*(%s)" % tuple(
            "+".join("%s^%d" % (v, i) for i in range(4000)) for v in "xy"),
         "--vars", "x", "y", "--truncate", "1"],
    ])
    def test_oversized_requests_are_refused_at_once(self, capsys, argv):
        import time
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: request too large")

    @pytest.mark.parametrize("argv,last", [
        # a sparse, wide power: its f_k has 2^k terms, not its dense box's
        # 20000k + 1 cells
        (["pow", "--series", "1+(1+x^20000)*t", "--exponent", "2", "--vars",
          "x", "--truncate", "6"], "t^6: 0"),
        # boxes of 1e10 and 1e8 cells, never allocated
        (["zeta", "--class", "x^100000*y^100000+1", "--vars", "x", "y",
          "--truncate", "1"], "t^1: x^100000*y^100000 + 1"),
        (["zeta", "--class", "u^5000*v^5000+1", "--vars", "u", "v",
          "--truncate", "2"], "t^2: u^10000*v^10000 + u^5000*v^5000 + 1"),
        (["zeta", "--class", "x^500*y^500*z^500+1", "--vars", "x", "y", "z",
          "--truncate", "2"],
         "t^2: x^1000*y^1000*z^1000 + x^500*y^500*z^500 + 1"),
    ], ids=["one-variable", "two-variables", "two-variables-order-2",
            "three-variables"])
    def test_sparse_class_past_two_variables_runs(self, capsys, argv, last):
        # every ring is priced by its term counts, and its sparse sums run
        # on term maps
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[-1] == last

    def test_sparse_exponent_product_runs(self, capsys):
        # the rows of prod (1 - x^100000 t)^(-1) (1 - t^2)^(-1) would span
        # 2e9 digits in all: assembled by the recurrence instead
        code, out, _ = run(capsys, "assemble", "--exponents", "x^100000",
                           "1", "--vars", "x", "--truncate", "200")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t^1: x^100000" and lines[2] == "t^2: x^200000 + 1"

    def test_request_just_under_the_bound_runs(self, capsys, monkeypatch):
        from motivic_power.cli import MAX_COST
        under = ["hilbert", "--dim", "1", "--class", "1+u*v", "--specialize",
                 "hodge", "--truncate", "66"]
        over = under[:-1] + ["68"]
        assert 0.8 * MAX_COST < self.estimate(capsys, monkeypatch, *under) \
            <= MAX_COST < self.estimate(capsys, monkeypatch, *over)
        code, out, _ = run(capsys, *under)
        assert code == 0
        assert out.splitlines()[1] == "t^1: u*v + 1"
        code, _, err = run(capsys, *over)
        assert code == 1 and "request too large" in err

    def test_estimate_counts_every_command_input(self, capsys, monkeypatch):
        small = self.estimate(capsys, monkeypatch, "pow", "--series", "1+t",
                              "--exponent", "x", "--vars", "x")
        assert self.estimate(capsys, monkeypatch, "pow", "--series", "1+t",
                             "--exponent", "x^9", "--vars", "x") > small
        assert self.estimate(capsys, monkeypatch, "pow", "--series",
                             "1+(x^9+1)*t", "--exponent", "x",
                             "--vars", "x") > small
        assert self.estimate(capsys, monkeypatch, "exp", "--exponents", "x^9",
                             "1", "--vars", "x") > self.estimate(
            capsys, monkeypatch, "exp", "--exponents", "x", "1", "--vars", "x")

    def test_three_variable_factor_near_the_bound_runs(self, capsys,
                                                       monkeypatch):
        # three variables run the priced recurrence, not Θ(N³) peeling:
        # at order 30 peeling took over half a minute
        from motivic_power.cli import MAX_COST
        argv = ["factor", "--series", "1+(u+v+w)*t+u*v*w*t^2",
                "--vars", "u", "v", "w", "--truncate", "38"]
        assert 0.8 * MAX_COST < self.estimate(capsys, monkeypatch, *argv) \
            <= MAX_COST
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert out.splitlines()[0] == "b_1: u + v + w"

    def test_wide_local_data_is_refused_at_once(self, capsys, tmp_path):
        # coefficient k spans L^0 .. L^(40k): a 2 MB file whose solve at
        # order 60 ran for about 19 s before it was priced
        ring = MOTIVIC_RING.to_json()
        coeffs = [{"ring": ring, "terms": [{"exp": [0], "coef": "1"}]}] * 2
        coeffs += [{"ring": ring, "terms": [{"exp": [e], "coef": "1"}
                                            for e in range(40 * k + 1)]}
                   for k in range(2, 61)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "dimension": 3, "source": "unit test",
            "series": {"order": 60, "coeffs": coeffs}}), encoding="utf-8")
        import time
        start = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class",
                             "L^3+L^2+L+1", "--local-data", str(path),
                             "--truncate", "60")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: request too large")

    def test_deeply_nested_local_data_exits_one(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class",
                             "L^3+1", "--local-data", str(path),
                             "--truncate", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "nests too deeply" in err

    def test_local_data_above_the_byte_bound_is_refused_unread(
            self, capsys, tmp_path):
        L = Polynomial.variable(MOTIVIC_RING, "L")
        series = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + L + L ** 3])
        text = json.dumps(LocalHilbertData(3, series).to_json(source="t"))
        argv = ["hilbert", "--dim", "3", "--class", "1", "--truncate", "3",
                "--local-data"]
        path = tmp_path / "padded.json"
        path.write_text(text.ljust(MAX_LOCAL_DATA_BYTES), encoding="utf-8")
        code, out, _ = run(capsys, *argv, str(path))
        assert code == 0 and out.splitlines()[3] == "t^3: L^3 + L + 1"
        path.write_text(text.ljust(MAX_LOCAL_DATA_BYTES + 1), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "larger than" in err

    def test_axioms_price_law_five_product(self):
        # m*n is priced per sample: it decides at 30 Laurent variables
        # (above) and moves the estimate over u, v by under 1%
        from motivic_power.cli import (SOLVE_OVERHEAD, SOLVES_PER_SAMPLE,
                                       _axioms_cost, _solve_cost)
        from motivic_power.expressions import Size
        drawn = Size(6, math.log2(18), ((0, 2),) * 2, 0.0)
        solves = 20 * SOLVES_PER_SAMPLE * (
            SOLVE_OVERHEAD + _solve_cost(10, drawn, drawn))
        got = _axioms_cost(RingDescriptor(("u", "v")), 10, 20)
        assert solves < got < 1.01 * solves

    def test_local_data_moves_the_estimate(self, capsys, monkeypatch, tmp_path):
        L = Polynomial.variable(MOTIVIC_RING, "L")
        argv = ["hilbert", "--dim", "3", "--class", "1", "--truncate", "3",
                "--local-data"]
        estimates = []
        for top in (L, L ** 9, 2 ** 70 * L):
            series = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + top])
            path = tmp_path / "d3.json"
            path.write_text(json.dumps(LocalHilbertData(3, series).to_json("t")),
                            encoding="utf-8")
            estimates.append(self.estimate(capsys, monkeypatch, *argv, str(path)))
        assert estimates[0] < estimates[1] and estimates[0] < estimates[2]

    def test_default_sweeps_are_well_within_the_bound(self, capsys, monkeypatch):
        from motivic_power.cli import MAX_COST
        for argv in (["axioms"], ["oracle-check"],
                     ["axioms", "--vars", "u", "v", "--truncate", "10"],
                     ["oracle-check", "--truncate", "20"]):
            assert self.estimate(capsys, monkeypatch, *argv) < 0.2 * MAX_COST

    @pytest.mark.parametrize("argv", [
        ["axioms", "--samples", "-3"],
        ["axioms", "--samples", "0"],
        ["oracle-check", "--max-points", "-1"],
        ["oracle-check", "--max-weight", "-2"],
        ["oracle-check", "--max-size", "-1"],
        ["zeta", "--class", "1", "--truncate", "x"],
        ["axioms", "--samples", "x"],
        ["oracle-check", "--max-points", "x"],
    ])
    def test_negative_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        if argv[-1] == "x":
            assert "%s: takes an integer, got 'x'" % argv[-2] in err
        # no private function of the parser is named
        assert not re.search(r"(?<![\w-])_\w", err)


def json_nodes(node, path=()):
    """Every node of a JSON document, as its path of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_nodes(child, path + (key,))


VALID_D3 = LocalHilbertData(3, Series(MOTIVIC_RING, 2, [
    1, 1, 1 + Polynomial.variable(MOTIVIC_RING, "L") ** 2])).to_json(
        source="fuzz seed")
D3_NODES = list(json_nodes(VALID_D3))[1:]
hostile = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-3, 4),
              st.text("01-Lx.e ", max_size=4),
              st.sampled_from([10 ** 30, -(10 ** 30), "7" * 5000])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["exp", "coef", "ring", "vars",
                                         "laurent", "terms", "order"]),
                        inner, max_size=3)),
    max_leaves=4)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(D3_NODES),
                          st.one_of(st.just("delete"), hostile)),
                min_size=1, max_size=2))
def test_mutated_local_data_exits_cleanly(tmp_path_factory, mutations):
    # one or two nodes of a valid document replaced or deleted: the run
    # succeeds or ends in one "error: ..." line, never a traceback
    doc = json.loads(json.dumps(VALID_D3))
    for path, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the node
    path = tmp_path_factory.getbasetemp() / "mutated_d3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["hilbert", "--dim", "3", "--class", "L^3",
                     "--truncate", "2", "--local-data", str(path)])
    assert code in (0, 1)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert "set_int_max_str_digits" not in err.getvalue()
