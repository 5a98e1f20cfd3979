"""Command line tests: exit codes, report schema, determinism, scene
synthesis options, and the benchmark subcommand."""

import json

import numpy as np
import pytest

from overiva import bench, cli, pipeline
from overiva.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from overiva.io import AudioBuffer, read_wav, write_wav

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "input",
        "out_dir",
        "outputs",
        "method",
        "sources",
        "iterations",
        "sample_rate",
        "duration_s",
        "cost_trace",
        "wall_time_s",
        "rtf",
        "verify_monotone",
        "config",
    ],
    "properties": {
        "outputs": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "method": {"enum": ["auxiva", "ip1", "ip2", "ip3"]},
        "sources": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 1},
        "sample_rate": {"type": "integer", "minimum": 1},
        "duration_s": {"type": "number", "exclusiveMinimum": 0},
        "cost_trace": {"type": "array", "items": {"type": "number"}},
        "wall_time_s": {"type": "number", "minimum": 0},
        "rtf": {"type": "number", "minimum": 0},
        "verify_monotone": {"type": "boolean"},
        "config": {
            "type": "object",
            "required": [
                "method",
                "iterations",
                "eps1",
                "eps2",
                "threads",
                "frame_len",
                "hop",
            ],
        },
    },
}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene") / "s"
    code = main(
        [
            "make-mix",
            "--speakers", "1", "--noises", "2", "--mics", "3",
            "--rt60", "100", "--dur", "1.0", "--rate", "8000",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def separate_args(scene_dir, out_dir, *extra):
    return [
        "separate",
        "--input", str(scene_dir / "mixture.wav"),
        "--sources", "1",
        "--method", "ip2",
        "--frame-len", "512",
        "--out", str(out_dir),
        *extra,
    ]


class TestSeparate:
    def test_end_to_end_with_report(self, scene_dir, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        report_path = tmp_path / "report.json"
        code = main(
            separate_args(scene_dir, tmp_path / "out", "--json", str(report_path))
        )
        assert code == EXIT_OK
        assert "separated" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["config"]["frame_len"] == 512
        assert report["config"]["hop"] == 128
        out = read_wav(tmp_path / "out" / "source_1.wav")
        assert out.sample_rate == 8000

    def test_defaults_recorded_in_report(self, scene_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "separate",
                "--input", str(scene_dir / "mixture.wav"),
                "--sources", "1",
                "--iters", "2",
                "--out", str(tmp_path / "out"),
                "--json", str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["method"] == "ip1"
        assert report["config"]["frame_len"] == 4096
        assert report["config"]["hop"] == 1024
        assert report["config"]["eps1"] == 1e-5
        assert report["config"]["eps2"] == 0.1
        assert report["iterations"] == 2

    def test_deterministic_outputs(self, scene_dir, tmp_path):
        for d in ("a", "b"):
            assert main(separate_args(scene_dir, tmp_path / d)) == EXIT_OK
        wav_a = (tmp_path / "a" / "source_1.wav").read_bytes()
        wav_b = (tmp_path / "b" / "source_1.wav").read_bytes()
        assert wav_a == wav_b

    def test_verify_monotone(self, scene_dir, tmp_path):
        """The flag only checks the trace: the images are those of a run
        without it."""
        report_path = tmp_path / "report.json"
        args = ("--method", "ip1", "--iters", "10")
        code = main(
            separate_args(
                scene_dir, tmp_path / "out", *args,
                "--verify-monotone", "--json", str(report_path),
            )
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["verify_monotone"] is True
        assert main(separate_args(scene_dir, tmp_path / "plain", *args)) == EXIT_OK
        checked = (tmp_path / "out" / "source_1.wav").read_bytes()
        assert checked == (tmp_path / "plain" / "source_1.wav").read_bytes()

    def test_ip2_needs_single_source(self, scene_dir, tmp_path, capsys):
        code = main(
            [
                "separate",
                "--input", str(scene_dir / "mixture.wav"),
                "--sources", "2",
                "--method", "ip2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_USAGE
        assert "ip2 requires K=1" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "separate",
                "--input", str(tmp_path / "absent.wav"),
                "--sources", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"garbage" * 10)
        code = main(
            ["separate", "--input", str(bad), "--sources", "1",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_IO

    def test_nonfinite_samples_are_io_error(self, tmp_path, capsys):
        """A NaN in a float WAV is a data error naming the file and the
        first bad sample, not a usage error."""
        samples = np.zeros((4096, 2))
        samples[1234, 1] = np.nan
        samples[2000, 0] = np.inf
        wav = tmp_path / "nan.wav"
        write_wav(wav, AudioBuffer(8000, samples))
        code = main(
            ["separate", "--input", str(wav), "--sources", "1",
             "--frame-len", "512", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert str(wav) in err
        assert "frame 1234, channel 1" in err
        assert not (tmp_path / "out").exists()

    def test_rate_beyond_the_output_header_is_usage_error(self, tmp_path, capsys):
        """An input at 2**31 Hz reads back, but its float32 images' byte
        rate, 2**31 * 2 * 4, does not fit the WAV header: a usage error
        naming the field, not a struct.error escaping main."""
        rng = np.random.default_rng(1)
        wav = tmp_path / "fast.wav"
        write_wav(wav, AudioBuffer(8000, 0.1 * rng.standard_normal((4096, 2))))
        raw = bytearray(wav.read_bytes())
        raw[24:28] = (2**31).to_bytes(4, "little")
        wav.write_bytes(bytes(raw))
        assert read_wav(wav).sample_rate == 2**31
        code = main(
            ["separate", "--input", str(wav), "--sources", "1", "--method",
             "ip2", "--frame-len", "512", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE
        assert "WAV byte rate" in capsys.readouterr().err

    def test_singular_mixture_is_numerical_error(self, tmp_path, capsys):
        """Identical channels with no ridge make the per-bin systems
        singular; the failure names the frequency bin."""
        rng = np.random.default_rng(0)
        mono = rng.standard_normal(4000)
        wav = tmp_path / "dup.wav"
        write_wav(wav, AudioBuffer(8000, np.stack([mono, mono], axis=1)))
        code = main(
            [
                "separate",
                "--input", str(wav),
                "--sources", "1",
                "--frame-len", "512",
                "--eps2", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "frequency bin" in err

    @pytest.mark.parametrize(
        "flag, value", [("--eps2", "nan"), ("--eps1", "nan"), ("--eps2", "inf")]
    )
    def test_nonfinite_regularizer_is_usage_error(
        self, scene_dir, tmp_path, capsys, flag, value
    ):
        """A NaN or infinite eps is rejected before the run, not reported
        as a singular bin."""
        code = main(separate_args(scene_dir, tmp_path / "out", flag, value))
        assert code == EXIT_USAGE
        assert flag[2:] + " must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_nonpositive_hop_div_is_usage_error(
        self, scene_dir, tmp_path, capsys, value
    ):
        """The parser rejects a hop divisor below 1; it never reaches the
        division that forms the hop."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(separate_args(scene_dir, out, "--hop-div", value))
        assert info.value.code == EXIT_USAGE
        assert "--hop-div" in capsys.readouterr().err
        assert not out.exists()

    def test_hop_of_a_whole_frame_is_usage_error_before_reading(
        self, scene_dir, tmp_path, capsys, monkeypatch
    ):
        """--hop-div 1 makes hop = frame_len, which StftConfig refuses:
        the WAV is never read and nothing is written."""

        def no_read(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "read_wav", no_read)
        out = tmp_path / "out"
        code = main(separate_args(scene_dir, out, "--hop-div", "1"))
        assert code == EXIT_USAGE
        assert "hop 512 must be at most frame_len / 2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_sources_with_missing_input_is_usage_error(self, tmp_path, capsys):
        """--sources 0 is rejected before the input is opened, so a
        missing input does not make it an I/O error."""
        with pytest.raises(SystemExit) as info:
            main(
                ["separate", "--input", str(tmp_path / "missing.wav"),
                 "--sources", "0", "--out", str(tmp_path)]
            )
        assert info.value.code == EXIT_USAGE
        assert "--sources" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sources", "--iters"])
    def test_zero_count_is_usage_error_before_reading(
        self, scene_dir, tmp_path, capsys, monkeypatch, flag
    ):
        """The parser rejects a count below 1: the WAV is never read, so
        no STFT is taken before the error."""

        def no_read(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "read_wav", no_read)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(separate_args(scene_dir, out, flag, "0"))
        assert info.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1024", "3"])
    def test_hop_div_not_dividing_frame_len_is_usage_error(
        self, scene_dir, tmp_path, capsys, value
    ):
        """The message names both flags and the divisor given, not the
        hop formed from them."""
        out = tmp_path / "out"
        code = main(separate_args(scene_dir, out, "--hop-div", value))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--hop-div {value} must divide --frame-len 512" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["6", "3"])
    def test_frame_len_not_power_of_two_is_usage_error(
        self, scene_dir, tmp_path, capsys, value
    ):
        """The message names --frame-len and the power-of-two rule, not
        the default --hop-div, whether or not that divides it."""
        out = tmp_path / "out"
        args = separate_args(scene_dir, out)
        args[args.index("--frame-len") + 1] = value
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--frame-len must be a power of two, got {value}" in err
        assert "--hop-div" not in err
        assert not out.exists()

    def test_threads_environment_variable_is_not_read(
        self, scene_dir, tmp_path, monkeypatch
    ):
        """The run's settings come from argv alone: without --threads the
        report reads 1 thread whatever $OVERIVA_THREADS holds."""
        monkeypatch.setenv("OVERIVA_THREADS", "2")
        report_path = tmp_path / "report.json"
        code = main(
            separate_args(scene_dir, tmp_path / "out", "--json", str(report_path))
        )
        assert code == EXIT_OK
        assert json.loads(report_path.read_text())["config"]["threads"] == 1

    def test_auxiva_with_as_many_bins_as_mics(self, tmp_path):
        """frame_len 8 gives F = 5 bins on a 5-mic scene."""
        scene = tmp_path / "scene"
        code = main(
            [
                "make-mix",
                "--speakers", "1", "--noises", "2", "--mics", "5",
                "--rt60", "100", "--dur", "0.5", "--rate", "8000",
                "--out", str(scene),
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "separate",
                "--input", str(scene / "mixture.wav"),
                "--sources", "1",
                "--method", "auxiva",
                "--frame-len", "8",
                "--iters", "3",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK


class TestMakeMix:
    def test_scene_layout_and_determinism(self, tmp_path, capsys):
        args = [
            "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
            "--rt60", "80", "--dur", "0.5", "--rate", "8000", "--seed", "3",
        ]
        assert main(args + ["--out", str(tmp_path / "x")]) == EXIT_OK
        assert "wrote scene" in capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / "y")]) == EXIT_OK
        for name in ("mixture.wav", "target_1.wav", "spec.json"):
            assert (tmp_path / "x" / name).exists()
        assert (tmp_path / "x" / "mixture.wav").read_bytes() == (
            tmp_path / "y" / "mixture.wav"
        ).read_bytes()

    def test_seed_changes_scene(self, tmp_path):
        base = [
            "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
            "--rt60", "80", "--dur", "0.5", "--rate", "8000",
        ]
        main(base + ["--seed", "0", "--out", str(tmp_path / "x")])
        main(base + ["--seed", "1", "--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "mixture.wav").read_bytes() != (
            tmp_path / "y" / "mixture.wav"
        ).read_bytes()

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["make-mix", "--speakers", "1", "--noises", "1", "--mics", "0",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--sinr", "nan", "sinr_db"),
            ("--sinr", "inf", "sinr_db"),
            ("--rt60", "nan", "rt60_ms"),
            ("--dur", "nan", "duration_s"),
        ],
    )
    def test_non_finite_value_is_usage_error(
        self, tmp_path, capsys, flag, value, field
    ):
        """A NaN or infinite scene parameter is refused with the field's
        name before anything is written; --noises 0 asks for no noise."""
        out = tmp_path / "x"
        code = main(
            ["make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
             "--rate", "8000", "--dur", "0.5", flag, value, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_rate_beyond_the_header_is_usage_error_before_synthesis(
        self, tmp_path, capsys, monkeypatch
    ):
        """At 2**29 Hz the float32 byte rate of a 2-microphone scene,
        2**32, does not fit its WAV header: a usage error naming the
        field, before the scene, whose size grows with the rate, is
        rendered."""

        def no_scene(*args, **kwargs):
            raise AssertionError("scene rendered")

        monkeypatch.setattr(cli, "synthesize", no_scene)
        out = tmp_path / "x"
        code = main(
            ["make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
             "--rate", str(2**29), "--dur", "0.5", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "WAV byte rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--dur", "0.0000625"], "duration_s"),
            (["--dur", "0.00001"], "duration_s"),
            (["--dur", "1e308"], "duration_s"),
            (["--rate", "6000", "--dur", "0.2", "--seed", "1"], "sample_rate"),
        ],
        ids=["1-sample", "0-samples", "overflow", "6000-Hz"],
    )
    def test_scene_the_source_model_cannot_render_is_usage_error(
        self, tmp_path, capsys, extra, field
    ):
        """One sample at 16 kHz has no variance to normalize a source by,
        none cannot be filtered, 1e308 s has no integer sample count, and
        at 6 kHz the source model's low-pass cutoffs, drawn up to 3500 Hz,
        can lie above the Nyquist frequency (seed 1 draws one): each is a
        usage error naming its field, and nothing is written."""
        out = tmp_path / "x"
        code = main(
            ["make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
             *extra, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_speech_renders_below_the_source_model_rate(self, tmp_path):
        """The rate floor is the built-in source model's: speech files at
        6 kHz still make a scene."""
        rng = np.random.default_rng(5)
        speech = tmp_path / "speech.wav"
        write_wav(speech, AudioBuffer(6000, rng.standard_normal(1500) * 0.1))
        out = tmp_path / "scene"
        code = main(
            [
                "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
                "--rt60", "80", "--dur", "0.2", "--rate", "6000", "--seed", "1",
                "--speech", str(speech), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert read_wav(out / "mixture.wav").samples.shape == (1200, 2)

    def test_speech_sources(self, tmp_path):
        rng = np.random.default_rng(1)
        speech = tmp_path / "speech.wav"
        write_wav(speech, AudioBuffer(8000, rng.standard_normal(5000) * 0.1))
        out = tmp_path / "scene"
        code = main(
            [
                "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
                "--rt60", "80", "--dur", "0.5", "--rate", "8000",
                "--speech", str(speech), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert read_wav(out / "target_1.wav").samples.shape == (4000, 2)

    def test_speech_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        speech = tmp_path / "speech.wav"
        write_wav(speech, AudioBuffer(8000, rng.standard_normal(5000)))
        code = main(
            [
                "make-mix", "--speakers", "2", "--noises", "1", "--mics", "3",
                "--dur", "0.5", "--rate", "8000",
                "--speech", str(speech), "--out", str(tmp_path / "scene"),
            ]
        )
        assert code == EXIT_USAGE

    def test_speech_rate_mismatch(self, tmp_path):
        rng = np.random.default_rng(3)
        speech = tmp_path / "speech.wav"
        write_wav(speech, AudioBuffer(16000, rng.standard_normal(9000)))
        code = main(
            [
                "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
                "--dur", "0.5", "--rate", "8000",
                "--speech", str(speech), "--out", str(tmp_path / "scene"),
            ]
        )
        assert code == EXIT_USAGE

    def test_speech_too_short(self, tmp_path):
        rng = np.random.default_rng(4)
        speech = tmp_path / "speech.wav"
        write_wav(speech, AudioBuffer(8000, rng.standard_normal(1000)))
        code = main(
            [
                "make-mix", "--speakers", "1", "--noises", "1", "--mics", "2",
                "--dur", "0.5", "--rate", "8000",
                "--speech", str(speech), "--out", str(tmp_path / "scene"),
            ]
        )
        assert code == EXIT_USAGE


def bench_args(grid_path, out_path, *extra):
    return [
        "bench",
        "--grid", str(grid_path),
        "--out", str(out_path),
        "--trials", "1",
        "--dur", "0.6",
        "--rate", "8000",
        "--rt60", "80",
        "--frame-len", "512",
        "--iters", "2",
        "--methods", "ip2,mixture",
        *extra,
    ]


class TestBench:
    @pytest.fixture()
    def grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([{"K": 1, "L": 1, "M": 2, "sinr": 0}]))
        return path

    def test_writes_csv(self, grid, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(bench_args(grid, out)) == EXIT_OK
        assert "wrote 2 rows" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "K,L,M,sinr,method,mean_sdr,mean_rtf,trials"
        assert len(lines) == 3
        methods = [line.split(",")[4] for line in lines[1:]]
        assert methods == ["ip2", "mixture"]

    def test_deterministic_modulo_timing(self, grid, tmp_path):
        """Two runs agree exactly once the timing column is masked."""
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(bench_args(grid, out)) == EXIT_OK
            rows = [
                line.split(",") for line in out.read_text().strip().splitlines()
            ]
            for row in rows[1:]:
                row[6] = "MASKED"
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_grid_dict_form_is_usage_error(self, tmp_path, capsys):
        """The grid is a list of cells; an object holding one is not."""
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"cells": [{"K": 1, "L": 1, "M": 2, "sinr": 0}]})
        )
        out = tmp_path / "out.csv"
        assert main(bench_args(grid, out)) == EXIT_USAGE
        assert "grid must be a nonempty list of cells" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_rejected(self, grid, tmp_path, capsys):
        code = main(
            bench_args(grid, tmp_path / "out.csv")[:-1] + ["ip2,warp"]
        )
        assert code == EXIT_USAGE
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--hop-div", "--trials", "--threads"])
    def test_nonpositive_count_is_usage_error(self, grid, tmp_path, capsys, flag):
        """--hop-div 0 would divide by zero, --trials 0 would average no
        trials and --threads 0 would start no worker; the parser rejects
        all three."""
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main(bench_args(grid, out, flag, "0"))
        assert info.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iters_is_usage_error_before_any_scene(
        self, grid, tmp_path, capsys, monkeypatch
    ):
        """--iters 0 is rejected by the parser, not by the first run
        after a scene has been synthesized."""

        def no_bench(*args, **kwargs):
            raise AssertionError("benchmark started")

        monkeypatch.setattr(cli, "run_benchmark", no_bench)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main(bench_args(grid, out, "--iters", "0"))
        assert info.value.code == EXIT_USAGE
        assert "--iters" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_method_list_is_usage_error(self, grid, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(bench_args(grid, out)[:-1] + [","])
        assert code == EXIT_USAGE
        assert "--methods" in capsys.readouterr().err
        assert not out.exists()

    def test_hop_div_not_dividing_frame_len_is_usage_error(
        self, grid, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        code = main(bench_args(grid, out, "--hop-div", "3"))
        assert code == EXIT_USAGE
        assert "--hop-div 3 must divide --frame-len 512" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad_cell, message",
        [
            ({"K": 0, "L": 1, "M": 2, "sinr": 0}, "n_sources must be >= 1"),
            ({"K": 1, "L": 1, "M": 2, "sinr": float("nan")}, "sinr_db"),
            ({"K": 7, "L": 1, "M": 8, "sinr": 0}, "at most 6 sources"),
            (
                {"K": 1, "L": 1, "M": 2, "sinr": "3"},
                "cell 1: sinr_db must be a real number, got '3'",
            ),
            ({"K": 1, "L": 1, "M": 2, "sinr": True}, "cell 1: sinr_db"),
        ],
    )
    def test_bad_cell_is_usage_error_before_any_scene(
        self, tmp_path, capsys, monkeypatch, bad_cell, message
    ):
        """A bad cell after a valid one fails the whole grid before the
        valid cell's scene is rendered."""

        def no_scene(*args, **kwargs):
            raise AssertionError("scene rendered")

        monkeypatch.setattr(bench, "synthesize", no_scene)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"K": 1, "L": 1, "M": 2, "sinr": 0}, bad_cell]))
        out = tmp_path / "out.csv"
        assert main(bench_args(grid, out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "skipping" not in err
        assert not out.exists()

    def test_repeated_method_is_usage_error_before_any_scene(
        self, grid, tmp_path, capsys, monkeypatch
    ):
        """A method named twice would run twice and write two identical
        rows; it is refused before the first scene is rendered."""

        def no_scene(*args, **kwargs):
            raise AssertionError("scene rendered")

        monkeypatch.setattr(bench, "synthesize", no_scene)
        out = tmp_path / "out.csv"
        code = main(bench_args(grid, out)[:-1] + ["ip2,ip2,mixture"])
        assert code == EXIT_USAGE
        assert "named more than once: ip2" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_count_is_usage_error_before_any_scene(
        self, tmp_path, capsys, monkeypatch
    ):
        """"K": 1.7 is refused, not truncated to K = 1."""

        def no_scene(*args, **kwargs):
            raise AssertionError("scene rendered")

        monkeypatch.setattr(bench, "synthesize", no_scene)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"K": 1.7, "L": 1, "M": 2, "sinr": 0}]))
        out = tmp_path / "out.csv"
        assert main(bench_args(grid, out)) == EXIT_USAGE
        assert "cell 0: n_sources must be an integer, got 1.7" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_cell_with_as_many_sources_as_mics(self, tmp_path, capsys):
        """At K = M only auxiva and the mixture are scored; ip1, ip2 and
        ip3 are skipped with a note naming why."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"K": 2, "L": 1, "M": 2, "sinr": 0}]))
        out = tmp_path / "out.csv"
        args = bench_args(grid, out)[:-1] + ["auxiva,ip1,ip2,ip3,mixture"]
        assert main(args) == EXIT_OK
        err = capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert [line.split(",")[4] for line in lines[1:]] == ["auxiva", "mixture"]
        assert "note: skipping ip1 for K=2, M=2: ip1 needs a nonempty" in err
        assert "note: skipping ip2 for K=2, M=2: ip2 requires K=1" in err
        assert "note: skipping ip3 for K=2, M=2: ip3 needs a nonempty" in err

    def test_bad_grid_json(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text("{not json")
        code = main(bench_args(grid, tmp_path / "out.csv"))
        assert code == EXIT_USAGE

    def test_grid_missing_key(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"K": 1, "L": 1, "sinr": 0}]))
        code = main(bench_args(grid, tmp_path / "out.csv"))
        assert code == EXIT_USAGE

    def test_missing_grid_file_is_io_error(self, tmp_path):
        code = main(bench_args(tmp_path / "absent.json", tmp_path / "out.csv"))
        assert code == EXIT_IO
