import json

from click.testing import CliRunner

import polarmin as pm
from polarmin.cli import main
from polarmin.jsonio import FORM_DIGITS


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def write_body(tmp_path, doc, name="body.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


T23_DOC = {"type": "family", "name": "T_st", "params": {"s": "2", "t": "3"}}


class TestFamilyCommand:
    def test_fig1_triangle(self):
        res = run("family", "--name", "T_st", "--s", "2", "--t", "3")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["type"] == "vpoly"
        assert sorted(map(tuple, doc["vertices"])) == [("-2", "1"), ("0", "-3"), ("2", "3")]

    def test_t_of_s_area(self):
        res = run("family", "--name", "T_of_s", "--s", "10", "--dim", "2")
        assert res.exit_code == 0
        body = pm.body_from_json(json.loads(res.output))
        assert body.volume() == 242

    def test_quadrilateral(self):
        res = run("family", "--name", "Q_quad", "--t", "1")
        body = pm.body_from_json(json.loads(res.output))
        assert body.polygon.vertex_set() == {
            pm.vec(1, 0), pm.vec(-1, 1), pm.vec(-1, 0), pm.vec(1, -1)}

    def test_bad_params_exit_2(self):
        assert run("family", "--name", "T_st", "--s", "3", "--t", "1").exit_code == 2
        assert run("family", "--name", "nonesuch").exit_code == 2

    def test_unknown_flag_is_error(self):
        assert run("family", "--name", "cube", "--bogus", "1").exit_code == 2

    def test_zero_denominator_exit_2(self):
        res = run("family", "--name", "T_st", "--s", "1/0", "--t", "3")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "zero denominator" in res.output

    def test_byte_stable(self):
        a = run("family", "--name", "T_st", "--s", "2", "--t", "3").output
        b = run("family", "--name", "T_st", "--s", "2", "--t", "3").output
        assert a == b


class TestAnalyzeCommand:
    def test_extremal_triangle(self, tmp_path):
        res = run("analyze", write_body(tmp_path, T23_DOC))
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["all_theorems_hold"] is True
        main_rep = [r for r in doc["reports"] if r["check"] == "eq_1_7_main"][0]
        assert main_rep == {"check": "eq_1_7_main", "lhs": "10", "rhs": "10",
                            "relation": "ge", "holds": True, "equality": True,
                            "slack": "0", "exact": True}
        assert doc["minima"]["cs_polar"]["lambda"] == ["2", "3"]

    def test_square_upper_equality(self, tmp_path):
        path = write_body(tmp_path, {"type": "family", "name": "cube"})
        doc = json.loads(run("analyze", path).output)
        rep = [r for r in doc["reports"] if r["check"] == "eq_1_10"][0]
        assert rep["equality"] is True

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("analyze", str(path)).exit_code == 2

    def test_zero_denominator_exit_2(self, tmp_path):
        doc = {"type": "vpoly", "vertices": [["1/0", "0"], ["1", "1"], ["0", "-1"]]}
        res = run("analyze", write_body(tmp_path, doc))
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "parse error" in res.output

    def test_value_too_long_to_print_exit_2(self, tmp_path):
        # coordinates of 1200 digits are over the parse-time digit cap;
        # test_value_too_long_to_print_under_the_cap_exit_2 reaches the
        # print limit itself
        N = 10**1200
        q = lambda k: f"{N + k}/{N}"
        doc = {"type": "vpoly", "vertices": [[q(1), q(2)], ["-" + q(3), q(4)],
                                             ["-" + q(5), "-" + q(6)], [q(7), "-" + q(8)]]}
        res = run("analyze", write_body(tmp_path, doc))
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "limit exceeded" in res.output and "digits" in res.output

    def test_value_too_long_to_print_under_the_cap_exit_2(self, tmp_path):
        # 1000-digit coordinates pass the digit cap, and the output values
        # pass the interpreter's digit limit for integer string conversion
        N = 10**1000
        q = lambda k: f"{N + k}/{N}"
        doc = {"type": "vpoly", "vertices": [[q(1), q(2)], ["-" + q(3), q(4)],
                                             ["-" + q(5), "-" + q(6)], [q(7), "-" + q(8)]]}
        res = run("analyze", write_body(tmp_path, doc))
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "limit exceeded: exact value too long to print" in res.output

    def test_integer_form_over_the_digit_cap_exit_2(self, tmp_path):
        # L or a coordinate of FORM_DIGITS + 1 digits fails at parse time,
        # before any polar or symmetral is built; FORM_DIGITS digits parse
        big = 10**FORM_DIGITS

        def triangle(x):
            return {"type": "vpoly", "vertices": [[x, "0"], ["0", "1"], ["-1", "-1"]]}

        for x in (str(big), f"1/{big}"):
            res = run("analyze", write_body(tmp_path, triangle(x)))
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
            assert "limit exceeded" in res.output
            assert f"over {FORM_DIGITS} digits" in res.output
        for x in (str(big - 1), f"1/{big - 1}"):
            assert len(pm.body_from_json(triangle(x)).polygon) == 3

    def _parse_error(self, tmp_path, doc):
        res = run("analyze", write_body(tmp_path, doc))
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "parse error" in res.output

    def _square_hpoly(self, first_normal):
        rows = [{"normal": first_normal, "offset": "1"}]
        rows += [{"normal": n, "offset": "1"} for n in (["0", "1"], ["-1", "0"], ["0", "-1"])]
        return {"type": "hpoly", "dim": 2, "rows": rows}

    def test_normal_with_one_component_exit_2(self, tmp_path):
        self._parse_error(tmp_path, self._square_hpoly(["1"]))

    def test_normal_with_three_components_in_the_plane_exit_2(self, tmp_path):
        self._parse_error(tmp_path, self._square_hpoly(["1", "0", "5"]))

    def test_fractional_hpoly_dim_exit_2(self, tmp_path):
        self._parse_error(tmp_path, {**self._square_hpoly(["1", "0"]), "dim": 2.7})

    def test_string_hpoly_dim_exit_2(self, tmp_path):
        self._parse_error(tmp_path, {**self._square_hpoly(["1", "0"]), "dim": "2"})

    def test_boolean_hpoly_dim_exit_2(self, tmp_path):
        self._parse_error(tmp_path, {**self._square_hpoly(["1", "0"]), "dim": True})

    def test_negative_hpoly_dim_without_rows_exit_2(self, tmp_path):
        self._parse_error(tmp_path, {"type": "hpoly", "dim": -1, "rows": []})

    def test_fractional_family_dim_exit_2(self, tmp_path):
        self._parse_error(tmp_path, {**T23_DOC, "dim": 2.5})

    def test_boolean_coordinate_exit_2(self, tmp_path):
        doc = {"type": "vpoly", "vertices": [[True, "0"], ["-1", "1"], ["-1", "-1"]]}
        self._parse_error(tmp_path, doc)

    def test_top_level_list_exit_2(self, tmp_path):
        self._parse_error(tmp_path, [T23_DOC])

    def test_degenerate_body_exit_3(self, tmp_path):
        doc = {"type": "vpoly", "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}
        assert run("analyze", write_body(tmp_path, doc)).exit_code == 3

    def test_decimal_flag_adds_renderings(self, tmp_path):
        doc = {"type": "vpoly",
               "vertices": [["-1", "0"], ["1", "1"], ["0", "-1"]]}
        res = run("analyze", write_body(tmp_path, doc), "--decimal", "4")
        out = json.loads(res.output)
        rep = [r for r in out["reports"] if r["check"] == "eq_1_1_lower"][0]
        assert rep["rhs"] == "9/8" and rep["rhs_dec"] == "1.1250"

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        res = run("analyze", write_body(tmp_path, T23_DOC), "--output", str(target))
        assert res.exit_code == 0 and res.output == ""
        assert json.loads(target.read_text())["all_theorems_hold"] is True


class TestSearchCommand:
    def test_small_search_t1(self):
        res = run("search", "--t", "1", "--seeds", "4", "--iters", "60")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["best"]["volume"] == "3/2"
        assert doc["target"] == "3/2"
        assert doc["gap"] == "0"
        assert doc["converged_seeds"] >= 1

    def test_no_seeds_exit_4(self):
        assert run("search", "--t", "1", "--seeds", "0").exit_code == 4

    def test_bad_t_exit_2(self):
        assert run("search", "--t", "1/2").exit_code == 2
        assert run("search", "--t", "abc").exit_code == 2

    def test_zero_denominator_exit_2(self):
        res = run("search", "--t", "1/0")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "zero denominator" in res.output

    def test_negative_counts_exit_2(self):
        for flag in ("--iters", "--seeds"):
            res = run("search", "--t", "1", flag, "-1")
            assert res.exit_code == 2, flag
            assert "must be >= 0" in res.output

    def test_trace_flag(self):
        with_trace = json.loads(run("search", "--t", "1", "--seeds", "2",
                                    "--iters", "40").output)
        without = json.loads(run("search", "--t", "1", "--seeds", "2",
                                 "--iters", "40", "--no-trace").output)
        assert "trace" in with_trace and "trace" not in without

    def test_byte_identical_runs(self):
        args = ("search", "--t", "3/2", "--seeds", "3", "--iters", "50")
        assert run(*args).output == run(*args).output


class TestVerifySuiteCommand:
    def test_small_suite_passes(self):
        res = run("verify-suite", "--count", "8", "--seed", "7")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["violations"] == []
        assert doc["equality_hits"]["eq_1_10"] == ["C2"]

    def test_single_body_deterministic(self):
        a = run("verify-suite", "--count", "1", "--seed", "1").output
        b = run("verify-suite", "--count", "1", "--seed", "1").output
        assert a == b

    def test_bad_count_exit_2(self):
        assert run("verify-suite", "--count", "0").exit_code == 2

    def test_violation_reporting_exit_5(self, monkeypatch):
        # force a violation by inflating the approximate bound's constant;
        # the offending body must be embedded and the exit code must be 5
        import polarmin.verify as verify_mod
        monkeypatch.setattr(verify_mod, "PI_LOWER", pm.rat(100))
        res = run("verify-suite", "--count", "1", "--seed", "1")
        assert res.exit_code == 5
        doc = json.loads(res.output)
        assert doc["violations"]
        first = doc["violations"][0]
        assert first["report"]["check"] == "eq_1_9"
        assert first["body_json"]["type"] in ("vpoly", "family")
