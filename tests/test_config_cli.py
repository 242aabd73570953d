import concurrent.futures
import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import snbd.cli
import snbd.config
import snbd.ensemble
from snbd.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIMENSION,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TRAJECTORY,
    EXIT_WORKER_LOST,
    execute,
    main,
)
from snbd.config import (
    apply_override,
    config_digest,
    parse_config,
    parse_config_dict,
    serialize_config,
)
from snbd.ensemble import DEFAULT_MEMORY_LIMIT
from snbd.errors import ConfigError, NonFiniteOutputError
from snbd.output import (
    MAGIC,
    RunWriter,
    csv_bytes,
    density_bin_bytes,
    read_density_bin,
)

FIXTURE = Path(__file__).resolve().parent.parent / "configs" / "two_spin_heisenberg.json"


def tiny_config(out_dir, m=16, t_final=0.1, full_density=True, recovery=True,
                workers=1, seed=11):
    return {
        "system": {
            "particles": [
                {"dim": 2, "h": [[0.5, 0], [0, -0.5]]},
                {"dim": 2, "h": [[0.5, 0], [0, -0.5]]},
            ],
            "interaction": {"terms": [
                {"omega": 0.4, "op": [[0.7071067811865475, 0],
                                      [0, -0.7071067811865475]]},
                {"omega": 0.4, "op": [[0, 0.7071067811865475],
                                      [0.7071067811865475, 0]]},
            ]},
            "initial": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        },
        "time": {"t_final": t_final, "dt": 0.001, "record_stride": 20},
        "ensemble": {"M": m, "master_seed": seed, "worker_count": workers,
                     "n_blocks": 8, "full_density": full_density,
                     "blowup_policy": "skip", "positivity_tol": 50.0},
        "observables": [
            {"name": "sz_0", "factors": [[[1, 0], [0, -1]], None]},
        ],
        "recovery": {"enabled": recovery, "window": True,
                     "spectrum_source": "recovery"},
        "output": {"directory": str(out_dir), "formats": ["csv", "bin"]},
    }


class TestParsing:
    def test_shipped_fixture_valid(self):
        cfg = parse_config(FIXTURE)
        assert cfg.system.n_particles == 2
        assert len(cfg.system.terms) == 3
        assert cfg.ensemble.full_density

    def test_trace_violation_names_particle(self, tmp_path):
        data = tiny_config(tmp_path)
        data["system"]["initial"][1] = [[0, 0], [0, 0.9]]
        with pytest.raises(ConfigError, match=r"initial\[1\]"):
            parse_config_dict(data)

    def test_non_swap_symmetric_pair_matrix(self, tmp_path):
        # Hermitian but not swap-symmetric: a config error with its path
        data = tiny_config(tmp_path)
        data["system"]["interaction"] = {
            "pair_matrix": [[0, 0, 1, 0], [0, 0, 0, 0],
                            [1, 0, 0, 0], [0, 0, 0, 0]]}
        with pytest.raises(ConfigError, match="system.interaction.pair_matrix"
                           ": .*swap-symmetric"):
            parse_config_dict(data)

    def test_non_hermitian_pair_matrix(self, tmp_path):
        data = tiny_config(tmp_path)
        data["system"]["interaction"] = {
            "pair_matrix": [[0, 1, 0, 0], [0, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]]}
        with pytest.raises(ConfigError, match="pair_matrix"):
            parse_config_dict(data)

    def test_unknown_key_rejected(self, tmp_path):
        data = tiny_config(tmp_path)
        data["tiem"] = data["time"]
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config_dict(data)

    def test_bad_grid_rejected(self, tmp_path):
        data = tiny_config(tmp_path)
        data["time"]["dt"] = 0.0003
        with pytest.raises(ConfigError, match="time"):
            parse_config_dict(data)

    def test_complex_entries(self, tmp_path):
        data = tiny_config(tmp_path)
        data["system"]["particles"][0]["h"] = [[0, [0, -0.5]], [[0, 0.5], 0]]
        cfg = parse_config_dict(data)
        assert cfg.system.particles[0].h[0, 1] == -0.5j

    def test_round_trip(self, tmp_path):
        cfg = parse_config(FIXTURE)
        dumped = serialize_config(cfg)
        again = parse_config_dict(dumped)
        assert serialize_config(again) == dumped
        assert config_digest(again) == config_digest(cfg)

    def test_json_error_carries_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(bad)

    def test_digest_ignores_execution_layout(self):
        cfg = parse_config(FIXTURE)
        dumped = serialize_config(cfg)
        dumped["ensemble"]["worker_count"] = 8
        dumped["output"]["directory"] = "elsewhere"
        assert config_digest(parse_config_dict(dumped)) == config_digest(cfg)

    def test_digest_covers_every_result_input(self, tmp_path):
        def digest(section=None, key=None, value=None, edit=None):
            data = tiny_config(tmp_path)
            if section is not None:
                data[section][key] = value
            if edit is not None:
                edit(data)
            return config_digest(parse_config_dict(data))

        # every key is varied, so a key added later must be added here
        changes = {
            "time": {"t_final": 0.2, "dt": 5e-4, "record_stride": 10},
            "ensemble": {"M": 17, "master_seed": 12, "n_blocks": 4,
                         "full_density": False, "blowup_policy": "abort",
                         "positivity_tol": 40.0},
            "recovery": {"enabled": False,
                         "reference_vectors": [[1, 0], [0, 1]],
                         "window": False, "spectrum_source": "oracle"},
        }
        assert set(changes["time"]) == set(snbd.config._TIME_KEYS)
        assert set(changes["ensemble"]) | {"worker_count"} == set(
            snbd.config._ENSEMBLE_KEYS)
        assert set(changes["recovery"]) == set(snbd.config._RECOVERY_KEYS)

        base = digest()
        for section, values in changes.items():
            for key, value in values.items():
                assert digest(section, key, value) != base, (section, key)
        physics = [
            lambda d: d["system"]["particles"][0]["h"][0].__setitem__(0, 0.6),
            lambda d: d["system"]["initial"].__setitem__(
                0, [[0.5, 0], [0, 0.5]]),
            lambda d: d["system"]["interaction"]["terms"][0].update(omega=0.5),
            lambda d: d["observables"][0]["factors"].reverse(),
        ]
        for k, edit in enumerate(physics):
            assert digest(edit=edit) != base, k
        # what does not change the results does not change the digest
        assert digest("ensemble", "worker_count", 4) == base


class TestOverrides:
    def test_override_types(self):
        data = {"ensemble": {"M": 1}}
        apply_override(data, "ensemble.M", "4000")
        apply_override(data, "recovery.enabled", "true")
        apply_override(data, "output.directory", "runs/a")
        assert data["ensemble"]["M"] == 4000
        assert data["recovery"]["enabled"] is True
        assert data["output"]["directory"] == "runs/a"

    def test_bad_path(self):
        with pytest.raises(ConfigError):
            apply_override({"time": 3}, "time.dt", "0.1")


class TestBinaryFormat:
    def test_header_layout(self):
        blob = density_bin_bytes(np.zeros((3, 2, 2), dtype=complex))
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + 3 * 2 * 2 * 16

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        path = tmp_path / "d.bin"
        path.write_bytes(density_bin_bytes(mats))
        assert np.array_equal(read_density_bin(path), mats)

    def test_csv_17_digits(self):
        blob = csv_bytes(["t", "x"], [[0.1], [1 / 3]])
        text = blob.decode()
        assert text.splitlines()[0] == "t,x"
        assert "0.33333333333333331" in text

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_non_finite_values(self, tmp_path, bad):
        # a NaN or inf anywhere in a file or a diagnostic is refused and
        # nothing is written or recorded for it
        writer = RunWriter(tmp_path, "hash", 1, "v", "run")
        mats = np.zeros((2, 2, 2), dtype=complex)
        mats[1, 0, 1] = complex(0.0, bad)
        for write in (
                lambda: writer.write_csv("a.csv", ["t", "x"],
                                         [[0.0, 1.0], [2.0, bad]]),
                lambda: writer.write_density_bin("d.bin", mats),
                lambda: writer.add_diagnostics(worst=bad)):
            with pytest.raises(NonFiniteOutputError):
                write()
        assert writer.files == {} and writer.diagnostics == {}
        assert list(tmp_path.iterdir()) == []

    def test_writer_removes_only_plain_listed_files(self, tmp_path):
        # the files of the manifest a run replaces go before anything is
        # written; a name that is a path, a directory or the manifest is
        # kept, and so is every file the manifest does not list
        for name in ("a.csv", "b.bin", "kept.txt", "manifest.json"):
            (tmp_path / name).write_text(name)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "x").write_text("x")
        listed = ["a.csv", "b.bin", "missing.csv", "..", ".", "sub",
                  "sub/x", "../a.csv", "manifest.json", ""]
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"files": {name: {} for name in listed}}))
        RunWriter(tmp_path, "hash", 1, "v", "run")
        assert sorted(q.name for q in tmp_path.iterdir()) == [
            "kept.txt", "manifest.json", "sub"]
        assert (tmp_path / "sub" / "x").exists()

    @pytest.mark.parametrize("text", [
        "{", "[]", '{"files": ["kept.txt"]}', '{"files": 3}', '"kept.txt"'],
        ids=["truncated", "list", "files-list", "files-number", "string"])
    def test_unreadable_manifest_lists_nothing(self, tmp_path, text):
        (tmp_path / "kept.txt").write_text("kept")
        (tmp_path / "manifest.json").write_text(text)
        RunWriter(tmp_path, "hash", 1, "v", "run")
        assert (tmp_path / "kept.txt").exists()


class TestCli:
    def _write(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return path

    def test_import_leaves_scipy_out(self):
        # a fresh interpreter: the package runs on numpy alone
        src = str(Path(snbd.cli.__file__).parents[1])
        code = "import sys, snbd.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"

    def test_validate_exit0_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self._write(tmp_path, tiny_config(out))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert not out.exists()

    def test_validate_bad_config_exit2(self, tmp_path):
        data = tiny_config(tmp_path / "out")
        data["time"]["dt"] = -1
        path = self._write(tmp_path, data)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_run_produces_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        path = self._write(tmp_path, tiny_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "observables.csv", "positivity.csv",
                "density.bin", "recovery.csv"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["master_seed"] == 11
        assert manifest["code_version"]
        assert set(manifest["files"]) == names - {"manifest.json"}

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = self._write(tmp_path, tiny_config(out1))
        assert main(["run", "--config", str(p1), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(p1), "--quiet", "--out",
                     str(out2)]) == EXIT_OK
        for name in ("manifest.json", "observables.csv", "density.bin",
                     "recovery.csv", "positivity.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        p = self._write(tmp_path, tiny_config(out1))
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(p), "--quiet", "--out", str(out2),
                     "--workers", "2"]) == EXIT_OK
        for name in ("manifest.json", "observables.csv", "density.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mixed_dimensions_same_bytes_at_any_worker_count(self, tmp_path):
        # dims (3, 2, 2) shaped like the mixed-dimension benchmark: 40
        # trajectories in 4 blocks, one run at one worker, two at two and
        # four at three.  The tolerance skips some trajectories and keeps
        # others, so each run's minima, the spin-1's from the certified
        # screen, are merged over different splits; every file,
        # positivity.csv included, is the same bytes
        r = 1 / np.sqrt(2)
        s1x = [[0, r, 0], [r, 0, r], [0, r, 0]]
        s1y = [[0, [0, -r], 0], [[0, r], 0, [0, -r]], [0, [0, r], 0]]
        s1z = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
        sx, sy, sz = ([[0, 0.5], [0.5, 0]], [[0, [0, -0.5]], [[0, 0.5], 0]],
                      [[0.5, 0], [0, -0.5]])
        data = {
            "system": {
                "particles": [{"dim": 3, "h": [[0.5, 0, 0], [0, 0, 0],
                                               [0, 0, -0.5]]},
                              {"dim": 2, "h": sz}, {"dim": 2, "h": sz}],
                "interaction": {"terms": [
                    {"omega": 0.2, "ops": [s1x, sx, sx]},
                    {"omega": 0.2, "ops": [s1y, sy, sy]},
                    {"omega": 0.2, "ops": [s1z, sz, sz]}]},
                "initial": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                            [[0, 0], [0, 1]], [[1, 0], [0, 0]]],
            },
            "time": {"t_final": 0.2, "dt": 0.001, "record_stride": 2},
            "ensemble": {"M": 40, "master_seed": 5, "n_blocks": 4,
                         "full_density": True, "blowup_policy": "skip",
                         "positivity_tol": 0.1},
            "observables": [{"name": "Sz_0", "factors": [s1z, None, None]}],
            "recovery": {"enabled": True},
            "output": {"directory": str(tmp_path / "w1"),
                       "formats": ["csv", "bin"]},
        }
        p = self._write(tmp_path, data)
        outs = [tmp_path / f"w{workers}" for workers in (1, 2, 3)]
        for workers, out in zip((1, 2, 3), outs):
            assert main(["compare", "--config", str(p), "--quiet", "--out",
                         str(out), "--workers", str(workers)]) == EXIT_OK
        diag = json.loads((outs[0] / "manifest.json").read_text())["diagnostics"]
        assert diag["skipped_positivity"] > 0
        names = sorted(q.name for q in outs[0].iterdir())
        assert "positivity.csv" in names
        for out in outs[1:]:
            assert sorted(q.name for q in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == \
                    (outs[0] / name).read_bytes(), name

    def test_seed_override_changes_data(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        p = self._write(tmp_path, tiny_config(out1))
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(p), "--quiet", "--out", str(out2),
                     "--seed", "99"]) == EXIT_OK
        assert (out1 / "density.bin").read_bytes() != \
            (out2 / "density.bin").read_bytes()

    def test_dotted_override(self, tmp_path):
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out))
        assert main(["run", "--config", str(p), "--quiet",
                     "--ensemble.M=8"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["trajectories"] == 8

    def test_unknown_flag_rejected(self, tmp_path):
        p = self._write(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(p), "--bogus"]) == EXIT_CONFIG

    def test_compare_subcommand(self, tmp_path):
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out, m=32))
        assert main(["compare", "--config", str(p), "--quiet"]) == EXIT_OK
        names = {q.name for q in out.iterdir()}
        assert {"compare.csv", "oracle_density.bin"} <= names
        header = (out / "compare.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "trace_distance", "trace_distance_se"]
        assert "fidelity" in header

    def test_manifest_diagnostics_keys(self, tmp_path):
        # the keys README documents; perfbench's gate reads two of them
        # with defaults, so a dropped key would not fail it
        keys = {"trajectories", "max_trace_deviation",
                "max_hermiticity_deviation", "skipped_blowups",
                "skipped_positivity"}
        for sub, extra in (("run", set()),
                           ("compare", {"worst_trace_distance"})):
            out = tmp_path / sub
            p = self._write(tmp_path, tiny_config(out))
            assert main([sub, "--config", str(p), "--quiet"]) == EXIT_OK
            diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
            assert set(diag) == keys | extra
            assert diag["max_hermiticity_deviation"] == 0.0
            assert diag["trajectories"] == 16

    def test_compare_requires_full_density(self, tmp_path):
        data = tiny_config(tmp_path / "out", full_density=False)
        p = self._write(tmp_path, data)
        assert main(["compare", "--config", str(p), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("subcommand", ["run", "compare", "spectrum"])
    def test_recovery_requires_three_records(self, tmp_path, capsys,
                                             subcommand, monkeypatch):
        # two recorded times: refused before any trajectory is stepped
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out, t_final=0.02))
        monkeypatch.setattr(snbd.cli, "run_ensemble", None)
        assert main([subcommand, "--config", str(p), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: recovery.enabled: recovery needs at least 3 recorded "
            "times, got 2"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["files"] == {}

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out))
        assert main(["oracle", "--config", str(p), "--quiet"]) == EXIT_OK
        dens = read_density_bin(out / "oracle_density.bin")
        assert dens.shape == (6, 4, 4)

    def test_spectrum_oracle_source(self, tmp_path):
        out = tmp_path / "out"
        data = tiny_config(out, t_final=0.2)
        data["recovery"]["spectrum_source"] = "oracle"
        p = self._write(tmp_path, data)
        assert main(["spectrum", "--config", str(p), "--quiet"]) == EXIT_OK
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "E,intensity"
        assert len(lines) > 10

    def test_spectrum_recovery_source(self, tmp_path):
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out, m=24, t_final=0.2))
        assert main(["spectrum", "--config", str(p), "--quiet"]) == EXIT_OK
        assert (out / "recovery.csv").exists()
        assert (out / "spectrum.csv").exists()

    def test_abort_policy_exit_code_and_incomplete_manifest(self, tmp_path):
        out = tmp_path / "out"
        data = tiny_config(out, t_final=2.0)
        data["time"]["record_stride"] = 200
        data["ensemble"]["blowup_policy"] = "abort"
        data["ensemble"]["positivity_tol"] = 0.04
        p = self._write(tmp_path, data)
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_TRAJECTORY
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_abort_in_a_pool_of_lockstep_runs(self, tmp_path, capsys):
        # two runs of four blocks on two workers; the first violation in
        # the run that holds it stops the whole ensemble
        out = tmp_path / "out"
        data = tiny_config(out, m=64, t_final=2.0, workers=2)
        data["time"]["record_stride"] = 200
        data["ensemble"]["blowup_policy"] = "abort"
        data["ensemble"]["positivity_tol"] = 0.04
        p = self._write(tmp_path, data)
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_TRAJECTORY
        assert "trajectory" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    @pytest.mark.parametrize("override", [
        "--time.dt=NaN", "--time.t_final=Infinity",
        "--ensemble.positivity_tol=NaN"])
    def test_non_finite_numbers_exit2(self, override):
        assert main(["validate", "--config", str(FIXTURE), override,
                     "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit, message", [
        # both numbers are finite, their ratio is not
        (lambda d: d["time"].update(t_final=1e308, dt=5e-4, record_stride=1),
         "time: t_final=1e+308 / dt=0.0005 overflows"),
        (lambda d: d["system"].update(interaction={"pair_matrix": [
            [0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]}),
         "system.interaction.pair_matrix: pair matrix is not swap-symmetric"),
        # every particle is distinguishable: an identical-particle label is
        # refused, never run as if it were absent
        (lambda d: d["system"]["particles"][0].update(statistics="fermion:a"),
         "system.particles[0].statistics: expected one of ('distinguishable',)"),
        (lambda d: d["system"]["particles"][1].update(statistics="boson:g"),
         "system.particles[1].statistics: expected one of ('distinguishable',)"),
        # a matrix or vector entry must be finite (JSON reads 1e400 as inf)
        (lambda d: d["system"]["particles"][0]["h"][0].__setitem__(
            0, float("nan")),
         "system.particles[0].h[0][0]: expected a number, got NaN"),
        (lambda d: d["system"]["particles"][0]["h"][0].__setitem__(1, 1e400),
         "system.particles[0].h[0][1]: expected a finite entry"),
        (lambda d: d["system"]["initial"][0][0].__setitem__(1, [1e400, 0]),
         "system.initial[0][0][1]: expected a finite entry"),
        (lambda d: d["observables"][0]["factors"][0][0].__setitem__(0, 1e400),
         "observables[0].factors[0][0][0]: expected a finite entry"),
        (lambda d: d["recovery"].update(reference_vectors=[[1e400, 0], [0, 1]]),
         "recovery.reference_vectors[0][0]: expected a finite entry"),
        # an integer too large for a float
        (lambda d: d["system"]["particles"][0]["h"][0].__setitem__(
            0, 10 ** 400),
         "system.particles[0].h[0][0]: number out of range"),
        # finite entries whose Hilbert-Schmidt norms overflow: the
        # Hermiticity check reads them scaled, and NaN would fail it
        (lambda d: d["system"]["particles"][0]["h"][1].__setitem__(
            0, -1e308),
         "system.particles[0]: particle Hamiltonian: not Hermitian"),
        (lambda d: d["system"].update(interaction={"pair_matrix": [
            [0.2, 0, 1e308, 0], [0, -0.2, 0.4, 0], [0, 0.4, -0.2, 0],
            [0, 0, 0, 0.2]]}),
         "system.interaction.pair_matrix: pair matrix: not Hermitian"),
    ], ids=["step-overflow", "not-swap-symmetric", "fermion", "boson",
            "nan-h", "inf-h", "inf-initial", "inf-observable",
            "inf-reference", "int-overflow", "overflow-h",
            "overflow-pair-matrix"])
    def test_config_contracts_exit2_with_path(self, tmp_path, capsys, edit,
                                              message):
        data = tiny_config(tmp_path / "out")
        edit(data)
        p = self._write(tmp_path, data)
        assert main(["validate", "--config", str(p), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["validate", "run"])
    def test_observable_factor_of_wrong_dimension_exit2(self, tmp_path,
                                                        capsys, sub):
        # the shipped config with a 3 x 3 factor on a spin-1/2: refused
        # while parsing, before any output is written
        data = json.loads(FIXTURE.read_text())
        data["observables"][0]["factors"][0] = [[1, 0, 0], [0, 0, 0],
                                                [0, 0, -1]]
        out = tmp_path / "out"
        data["output"]["directory"] = str(out)
        p = self._write(tmp_path, data)
        assert main([sub, "--config", str(p), "--quiet"]) == EXIT_CONFIG
        assert ("observables[0]: observable 'sz_0', factor 0: dim 3 != "
                "particle dim 2") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["system"]["initial"][0][0].__setitem__(0, 0.9),
         "system: initial[0]: trace 0.9 not 1 within 1e-12"),
        (lambda d: d["system"]["initial"].__setitem__(
            0, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
         "system: initial[0]: dim 3 != particle dim 2"),
        (lambda d: d["system"]["initial"].append([[1, 0], [0, 0]]),
         "system: 3 initial densities for 2 particles"),
        (lambda d: d["system"].update(interaction={"terms": [
            {"omega": 0.2, "ops": [[[1, 0], [0, -1]]]}]}),
         "system: interaction term 0 has 1 factors for 2 particles"),
    ], ids=["trace", "dim", "extra-density", "few-ops"])
    def test_system_shape_and_trace_exit2(self, tmp_path, capsys, edit,
                                          message):
        # the system's own checks, reported at ``system`` while parsing:
        # one error line naming the density or term, no output written
        data = json.loads(FIXTURE.read_text())
        edit(data)
        out = tmp_path / "out"
        data["output"]["directory"] = str(out)
        p = self._write(tmp_path, data)
        assert main(["validate", "--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [f"error: {message}"]
        assert not out.exists()

    def test_non_finite_output_exit7_incomplete(self, tmp_path, capsys):
        # finite entries whose products overflow: the shipped config with
        # an observable factor entry of 1e308 gives a mean of inf and a
        # standard error of NaN; the file is refused and the manifest stays
        # incomplete
        data = json.loads(FIXTURE.read_text())
        data["observables"][0]["factors"][0] = [[1e308, 0], [0, -1]]
        data["ensemble"].update(M=40, n_blocks=4)
        out = tmp_path / "out"
        data["output"]["directory"] = str(out)
        p = self._write(tmp_path, data)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(p), "--quiet"]) == EXIT_NUMERIC
        assert "observables.csv: a value to be written is NaN or inf" in \
            capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["files"] == {}
        assert not (out / "observables.csv").exists()

    def test_rerun_removes_the_files_it_replaces(self, tmp_path, capsys):
        # a complete run, then the 1e308 observable probe (above) into the
        # same directory: the refused run leaves none of the first run's
        # files beside its incomplete manifest, only a file that manifest
        # did not list
        data = json.loads(FIXTURE.read_text())
        data["ensemble"].update(M=40, n_blocks=4)
        out = tmp_path / "out"
        data["output"]["directory"] = str(out)
        p = self._write(tmp_path, data)
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_OK
        first = json.loads((out / "manifest.json").read_text())
        assert "observables.csv" in first["files"]
        (out / "notes.txt").write_text("not listed")
        data["observables"][0]["factors"][0] = [[1e308, 0], [0, -1]]
        p = self._write(tmp_path, data)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(p), "--quiet"]) == EXIT_NUMERIC
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert sorted(q.name for q in out.iterdir()) == [
            "manifest.json", "notes.txt"]

    def test_lost_worker_exit8_incomplete(self, tmp_path, capsys,
                                          monkeypatch):
        # a stand-in pool that starts no process and whose every future
        # raises BrokenProcessPool, as a killed worker's does: one error
        # line, no traceback, an incomplete manifest
        class LostWorkerPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_exception(BrokenProcessPool("worker killed"))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            LostWorkerPool)
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(out, workers=2))
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_WORKER_LOST
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process ended")
        assert err.count("\n") == 1 and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["files"] == {}

    def test_sigterm_exit130_incomplete(self, tmp_path):
        # a real child on a run of about 4e7 trajectory-steps, sent SIGTERM
        # once it reports the run: the interrupt path, exit 130, one
        # "interrupted" line and no traceback, an incomplete manifest
        out = tmp_path / "out"
        p = self._write(tmp_path, tiny_config(
            out, m=20_000, t_final=2.0, full_density=False, recovery=False))
        src = str(Path(snbd.cli.__file__).parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "snbd", "run", "--config", str(p),
             "--verbose"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=src))
        try:
            assert child.stderr.readline().startswith("running M=20000")
            child.send_signal(signal.SIGTERM)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 130
        assert err == "interrupted\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_no_active_trajectory_exit5(self, tmp_path):
        # every trajectory skipped: there is no minimum eigenvalue to
        # report, so positivity.csv, the only file left to write, is a
        # missing-data failure rather than a column of inf
        out = tmp_path / "out"
        data = tiny_config(out, t_final=2.0, full_density=False,
                           recovery=False)
        data["time"]["record_stride"] = 200
        data["ensemble"]["positivity_tol"] = 0.04
        data["observables"] = []
        p = self._write(tmp_path, data)
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_DATA
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["diagnostics"]["skipped_positivity"] == 16

    def test_env_dimension_limit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNBD_MAX_DIM", "2")
        p = self._write(tmp_path, tiny_config(tmp_path / "out"))
        code = main(["oracle", "--config", str(p), "--quiet"])
        assert code == 3  # dimension-limit category

    def test_record_factor_counts_against_memory_limit(self, tmp_path,
                                                       monkeypatch):
        # nine spin-1/2 (D = 512) in one block of 1200 trajectories, one
        # step: the accumulator rows take 8 MiB of coordinate sums, but the
        # real Y factor each record forms takes 1200 * 4^8 * 8 B = 600 MiB,
        # over the limit
        calls = []
        monkeypatch.setattr(snbd.ensemble, "propagate_block",
                            lambda *args, **options: calls.append(args))
        assert 512 ** 2 * 8 * 2 * 2 < DEFAULT_MEMORY_LIMIT < 1200 * 4 ** 8 * 8
        data = tiny_config(tmp_path / "out", m=1200, t_final=0.001,
                           recovery=False)
        data["system"]["particles"] = [
            {"dim": 2, "h": [[0.5, 0], [0, -0.5]]}] * 9
        data["system"]["initial"] = [[[1, 0], [0, 0]]] * 9
        data["time"]["record_stride"] = 1
        data["ensemble"]["n_blocks"] = 1
        data["observables"] = []
        p = self._write(tmp_path, data)
        assert main(["run", "--config", str(p), "--quiet"]) == EXIT_DIMENSION
        assert calls == []

    def test_execute_validate_api(self, tmp_path):
        cfg = parse_config_dict(tiny_config(tmp_path / "out"))
        assert execute(cfg, "validate", verbosity=-1) == EXIT_OK
