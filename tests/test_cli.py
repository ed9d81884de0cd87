import hashlib
import json
import math

import pytest

from cmdist import PersistenceDiagram, analytic_contours, cli, fixture, pareto, save_complex, save_contours
from cmdist.cli import RunConfig, main, run

from oracles import points


def read_json(path):
    return json.loads(path.read_text())


def test_diagram_command(tmp_path):
    out = tmp_path / "dgm.json"
    code = run(RunConfig("diagram", fixture="cone:32", degree=1, t=0.5, out=str(out)))
    assert code == 0
    payload = read_json(out)
    assert payload["degree"] == 1
    assert payload["points"] == [{"birth": 0, "death": 1, "multiplicity": 1}]
    # the emitted schema re-parses into the diagram type
    dgm = PersistenceDiagram.from_json(payload)
    assert points(dgm)[0].death == 1.0


def test_bottleneck_command(tmp_path):
    out = tmp_path / "b.json"
    code = run(RunConfig("bottleneck", fixture="cone:32", fixture2="disk:32",
                         degree=1, t=0.5, out=str(out)))
    assert code == 0
    assert abs(read_json(out)["bottleneck"] - 0.5) <= 0.05


def test_cmd_command_deterministic_bytes(tmp_path):
    from cmdist import CmdResult

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = dict(fixture="cone:16", fixture2="disk:16", degree=1, eps=1e-3)
    assert run(RunConfig("cmd", out=str(out1), **cfg)) == 0
    assert run(RunConfig("cmd", out=str(out2), **cfg)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = read_json(out1)
    assert payload["mode"] == "branch-and-bound"
    assert payload["value"] >= 0.45
    assert payload["eps"] == 1e-3
    assert {"t", "g"} == set(payload["trace"][0])
    parsed = CmdResult.from_json(payload)
    assert parsed.value == payload["value"]
    assert len(parsed.trace) == len(payload["trace"])


def test_cmd_special_mode(tmp_path):
    out = tmp_path / "sp.json"
    code = run(RunConfig("cmd", fixture="sphere:16", fixture2="ellipsoid(2,1):16",
                         degree=0, eps=0.05, mode="special", out=str(out)))
    assert code == 0
    payload = read_json(out)
    assert payload["mode"] == "special-values"
    assert abs(payload["value"] - 1.0) <= 0.05
    assert "note" in payload
    # the fields the benchmark's special-route check reads
    assert payload["eps"] == 0.05
    assert payload["evaluations"] == len(payload["trace"])
    assert {"value", "argmax_t"} <= set(payload)


def test_cmd_grid_mode(tmp_path):
    out = tmp_path / "grid.json"
    code = run(RunConfig("cmd", fixture="cone:16", fixture2="disk:16",
                         degree=1, mode="grid", grid="64x1", out=str(out)))
    assert code == 0
    payload = read_json(out)
    assert payload["mode"] == "grid"
    assert payload["value"] >= 0.45


def test_cmd_grid_mode_cells(tmp_path):
    out = tmp_path / "grid.json"
    argv = ["cmd", "--fixture", "cone:16", "--fixture2", "disk:16", "--mode", "grid", "--out", str(out)]
    # without --grid the scan takes grid_scan's 256 cells, not the 11 of the matchdist grid
    assert main(argv) == 0
    assert read_json(out)["evaluations"] == 257
    assert main(argv + ["--grid", "7x3"]) == 0
    assert read_json(out)["evaluations"] == 8


def test_matchdist_command(tmp_path):
    out = tmp_path / "md.json"
    code = run(RunConfig("matchdist", fixture="cone:32", fixture2="disk:32",
                         degree=0, grid="3x3", out=str(out)))
    assert code == 0
    payload = read_json(out)
    assert set(payload) == {"degree", "kind", "value", "witness", "grid"}
    assert payload["kind"] == "sampled-lower-bound"
    assert payload["grid"] == {"n_a": 3, "n_b": 3}


def test_predict_command(tmp_path):
    out = tmp_path / "p.json"
    code = run(RunConfig("predict", fixture="sphere:32", degree=0, t=0.5, out=str(out)))
    assert code == 0
    payload = read_json(out)
    assert payload["max_deviation"] <= 0.05
    assert any(abs(w - (-math.sqrt(2) / 2)) < 1e-9 for w in payload["predicted"])


def test_special_command_with_contour_files(tmp_path):
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    save_contours(c1, analytic_contours("sphere"))
    save_contours(c2, [c.translated(0.3, 0.3, c.id + ":m") for c in analytic_contours("sphere")])
    out = tmp_path / "sv.json"
    code = run(RunConfig("special", contours=str(c1), contours2=str(c2), out=str(out)))
    assert code == 0
    payload = read_json(out)
    conditions = {row["condition"] for row in payload["special_values"]}
    assert "degenerate-family" in conditions
    ts = [row["t"] for row in payload["special_values"]]
    assert 0 in ts and 1 in ts
    from cmdist import SpecialValue

    parsed = [SpecialValue.from_json(row) for row in payload["special_values"]]
    assert [sv.to_json() for sv in parsed] == payload["special_values"]


def test_compare_command(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = run(RunConfig("compare", fixture="cone:16", fixture2="disk:16",
                         degree=0, grid="3x3", out=str(out)))
    assert code == 0
    table = capsys.readouterr().out
    assert "convex matching distance" in table
    payload = read_json(out)
    assert payload["cmd"]["value"] <= 0.05
    assert payload["matchdist"]["value"] >= 0.45
    assert payload["matchdist"]["kind"] == "sampled-lower-bound"


def test_compare_stdout_is_one_json_document(capsys):
    code = main(["compare", "--fixture", "cone:16", "--fixture2", "disk:16",
                 "--degree", "0", "--grid", "3x3"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["matchdist"]["grid"] == {"n_a": 3, "n_b": 3}
    assert "convex matching distance" in captured.err


def test_mesh_and_values_inputs(tmp_path):
    cx, f = fixture("cone", 16)
    mesh, values = tmp_path / "m.off", tmp_path / "v.csv"
    save_complex(mesh, values, cx, f)
    out = tmp_path / "d.json"
    code = run(RunConfig("diagram", mesh=str(mesh), values=str(values),
                         degree=1, t=0.5, out=str(out)))
    assert code == 0
    assert read_json(out)["points"][0]["death"] == 1


def test_plots_are_written(tmp_path):
    svg1 = tmp_path / "dgm.svg"
    run(RunConfig("diagram", fixture="cone:16", degree=1, t=0.5,
                  out=str(tmp_path / "d.json"), plot=str(svg1)))
    svg0 = tmp_path / "dgm0.svg"  # degree 0 has an essential point: top marker path
    run(RunConfig("diagram", fixture="cone:16", degree=0, t=0.5,
                  out=str(tmp_path / "d0.json"), plot=str(svg0)))
    assert "<path" in svg0.read_text()
    # a path 0-1-...-6 with values 0, 2, 0, 2, 0, 1.5, 0.5: (0, 2) twice, (0.5, 1.5), (0, inf)
    mesh, values = tmp_path / "path.off", tmp_path / "path.csv"
    mesh.write_text("OFF\n7 6 0\n" + "".join(f"{i} 0 0\n" for i in range(7))
                    + "".join(f"2 {i} {i + 1}\n" for i in range(6)))
    values.write_text("".join(f"{v},{v}\n" for v in (0, 2, 0, 2, 0, 1.5, 0.5)))
    svg_path = tmp_path / "path.svg"
    run(RunConfig("diagram", mesh=str(mesh), values=str(values), degree=0, t=0.5,
                  out=str(tmp_path / "p.json"), plot=str(svg_path)))
    text = svg_path.read_text()
    assert text.count("<circle") == 2 and text.count("<path") == 1  # one dot per distinct point
    # the exact bytes of both diagram plots
    assert hashlib.sha256(svg0.read_bytes()).hexdigest() == (
        "aec736755b18a4987fdad8b0af7de55725d94c5fa19dd454d97d99ed18a6a354")
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
        "3622094a57d55918fd4ec0dc0630063e1f1f9cae61d3dce079e8e475350c828a")
    svg2 = tmp_path / "trace.svg"
    run(RunConfig("cmd", fixture="cone:16", fixture2="disk:16", degree=1,
                  out=str(tmp_path / "c.json"), plot=str(svg2)))
    svg3 = tmp_path / "grid.svg"
    run(RunConfig("special", fixture="sphere:16", fixture2="ellipsoid(2,1):16",
                  out=str(tmp_path / "s.json"), plot=str(svg3)))
    for svg in (svg1, svg2, svg3):
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_exit_codes():
    assert main(["cmd", "--fixture", "nosuch:16", "--fixture2", "disk:16"]) == 1
    assert main(["diagram", "--fixture", "cone:16", "--degree", "1"]) == 1  # missing --t
    assert main(["diagram", "--fixture", "cone:16", "--degree", "7", "--t", "0.5"]) == 1
    assert main(["not-a-command"]) == 1
    assert main(["--help"]) == 0


def test_nan_eps_is_rejected(capsys):
    assert main(["cmd", "--fixture", "cone:16", "--fixture2", "disk:16", "--eps", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: eps must be positive\n"
    assert captured.out == ""


def test_cmd_grid_mode_rejects_an_empty_grid(capsys):
    assert main(["cmd", "--fixture", "cone:16", "--fixture2", "disk:16",
                 "--mode", "grid", "--grid", "0x3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: grid needs at least one cell\n"
    assert captured.out == ""


@pytest.mark.parametrize("samples", [[[0, 1], [1, 0, 2], [2, -1]], [[0, 1], [1, "x"]],
                                     [[0, 1], [1, {}]]])
def test_malformed_contour_samples_exit_1(tmp_path, capsys, samples):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"contours": [{"id": "broken-arc", "samples": samples}]}))
    assert main(["special", "--contours", str(path), "--fixture2", "sphere:16"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: shape violation: contour 'broken-arc'")
    assert captured.out == ""


def test_cmd_special_plot_computes_special_values_once(tmp_path, monkeypatch):
    calls, original = [], pareto.special_values

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "special_values", counted)
    monkeypatch.setattr(pareto, "special_values", counted)
    code = run(RunConfig("cmd", fixture="sphere:16", fixture2="ellipsoid(2,1):16", mode="special",
                         out=str(tmp_path / "c.json"), plot=str(tmp_path / "trace.svg")))
    assert code == 0 and len(calls) == 1


def test_missing_second_input():
    assert main(["bottleneck", "--fixture", "cone:16", "--degree", "0", "--t", "0.5"]) == 1


def test_stdout_output(capsys):
    assert main(["bottleneck", "--fixture", "cone:16", "--fixture2", "cone:16",
                 "--degree", "0", "--t", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bottleneck"] == 0
