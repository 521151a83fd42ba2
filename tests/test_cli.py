import json

import pytest

from motivic_power.cli import main
from motivic_power.hilbert import LocalHilbertData
from motivic_power.localdata import MOTIVIC_RING
from motivic_power.power import EulerProduct
from motivic_power.rings import Polynomial
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

    def test_axioms_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MOTIVIC_POWER_SEED", "31")
        code, out, _ = run(capsys, "axioms", "--samples", "2", "--truncate", "4")
        assert code == 0
        assert "seed=31" in out

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

    def test_unknown_variable_exits_one(self, capsys):
        code, _, err = run(capsys, "zeta", "--class", "1+w", "--vars", "u", "v")
        assert code == 1
        assert "unknown variable" in err

    def test_local_data_without_dimension_exits_one(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"source": "x"}), encoding="utf-8")
        code, out, err = run(capsys, "hilbert", "--dim", "3", "--class", "1",
                             "--truncate", "2", "--local-data", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'dimension'" in err

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
