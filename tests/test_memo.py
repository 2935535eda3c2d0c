"""The per-process memos of the engine's set-up (``bellsim.memo``): a command
run again in the same process repeats no kept set-up and writes the same
bytes, in any order of commands; errors are never kept; kept arrays and
mappings are read-only; every memo stays within its bounds; and
``clear_memos`` empties every memo.  A memo's contents are read through its
``cache_info()``."""

import gc
import random
import tracemalloc
from dataclasses import replace

import pytest

from bellsim import cli, memo, scenario, spectral
from bellsim.errors import ConfigError

COMMANDS = {
    "scan": ["scan"],
    "tilt_scan": ["scan", "--axis", "both_tilts", "--steps", "65"],
    "prepare": ["prepare", "--target", "psi-"],
    "crystal_length": ["sweep", "--parameter", "crystal_length", "--grid", "1,2,3.4"],
    "filter_fwhm": ["sweep", "--parameter", "filter_fwhm", "--grid", "3,10,none"],
    "compensation_error_fs": ["sweep", "--parameter", "compensation_error_fs", "--grid", "0,-600,1500"],
    "pump_ratio": ["sweep", "--parameter", "pump_ratio", "--grid", "0.5,1,2"],
}


def held(function) -> int:
    """The number of results the kept ``function`` holds."""
    return function.cache_info().currsize


def run(name, prefix):
    """Run command ``name`` on the default config; the bytes of its report
    and of its CSV (``prepare`` writes none)."""
    assert cli.main(COMMANDS[name] + ["--config", "default", "--output", str(prefix)]) == 0
    paths = [prefix.with_name(prefix.name + suffix) for suffix in (".report.txt", ".csv")]
    return [path.read_bytes() for path in paths if name != "prepare" or path.suffix != ".csv"]


@pytest.fixture()
def source(default_config):
    return default_config.source


@pytest.fixture()
def knobs(default_config):
    return default_config.knobs


class TestRepeatedCommands:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_second_run_solves_and_stacks_nothing(self, tmp_path, monkeypatch, name):
        first = run(name, tmp_path / "first")
        calls = {"solve": 0, "setup": 0}

        def counted(key, fn):
            return lambda *a, **k: calls.__setitem__(key, calls[key] + 1) or fn(*a, **k)

        monkeypatch.setattr(scenario, "phase_matching_cut_angle", counted("solve", scenario.phase_matching_cut_angle))
        monkeypatch.setattr(spectral, "_StackedSetup", counted("setup", spectral._StackedSetup))
        assert run(name, tmp_path / "second") == first
        assert calls == {"solve": 0, "setup": 0}

    def test_command_order_does_not_change_outputs(self, tmp_path):
        # Both orders from a cold start, then the first again on the memos
        # the reverse order left.
        names = list(COMMANDS)
        outputs = []
        for order, cold in ((names, True), (names[::-1], True), (names, False)):
            if cold:
                memo.clear_memos()
            outputs.append({name: run(name, tmp_path / f"{len(outputs)}_{name}") for name in order})
        assert outputs[0] == outputs[1] == outputs[2]


def _at_length(source, length_mm):
    return replace(source, crystals=tuple(replace(c, thickness_mm=length_mm) for c in source.crystals))


SHARING_VARIANTS = {
    "default": lambda src, kn: (src, kn),
    "cross_dispersion": lambda src, kn: (replace(src, cross_dispersion_enabled=True), kn),
    "tilted_plates": lambda src, kn: (src, replace(kn, signal_tilt_deg=12.5, idler_tilt_deg=-7.0)),
    "mzi": lambda src, kn: (replace(src, scheme="mzi"), kn),
}


class TestLengthFreeSharing:
    """A crystal length enters no cut angle and no knob-plate term: the
    values of a crystal-length sweep share them, and every budget keeps its
    bits whatever lengths came before."""

    @pytest.mark.parametrize("variant", SHARING_VARIANTS)
    @pytest.mark.parametrize("compensation_error_fs", [None, 0.0])
    def test_budgets_after_other_lengths_keep_every_bit(self, source, knobs, variant, compensation_error_fs):
        src, kn = SHARING_VARIANTS[variant](source, knobs)
        lengths = (0.5, 1.0, 3.4, 5.0)
        # repr writes every float exactly: terms, carriers and specs.
        alone = {}
        for length in lengths:
            memo.clear_memos()
            alone[length] = repr(scenario.delay_budget(_at_length(src, length), kn, compensation_error_fs))
        memo.clear_memos()
        for length in (2.0, 7.25, 0.8):
            scenario.delay_budget(_at_length(src, length), kn, compensation_error_fs)
        for length in random.Random(variant).sample(lengths, len(lengths)):
            assert repr(scenario.delay_budget(_at_length(src, length), kn, compensation_error_fs)) == alone[length]

    def test_lengths_share_the_cut_angles_and_plate_terms(self, source, knobs):
        for length in (0.5, 1.0, 3.4, 5.0):
            scenario.delay_budget(_at_length(source, length), knobs)
        assert held(scenario._element_budget) == 4
        assert held(scenario._cut_angle) == 1 and held(scenario._kept_plate_term) == 2


class TestErrorsAreNotKept:
    @staticmethod
    def _thick_crystal(source):
        return replace(source, crystals=(source.crystals[0], replace(source.crystals[1], thickness_mm=1e308)))

    @staticmethod
    def _narrow_compensator(source):
        # A compensator material valid only above 500 nm, at the 400 nm pump.
        narrow = replace(source.compensator[1].material, valid_range_nm=(500.0, 2050.0))
        return replace(source, compensator=(source.compensator[0], replace(source.compensator[1], material=narrow)))

    @pytest.mark.parametrize("failing, message", [
        ("_thick_crystal", r"^crystals\[1\].thickness_mm: the delay across crystal 2 overflows"),
        ("_narrow_compensator", r"^compensator\[1\] at pump.center_wavelength_nm: 400.0 nm outside"),
    ])
    def test_failing_source_raises_on_every_call(self, source, knobs, failing, message):
        src = getattr(self, failing)(source)
        scenario.delay_budget(source, knobs)  # the good source's entries are kept meanwhile
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match=message) as error:
                scenario.delay_budget(src, knobs)
            messages.append(str(error.value))
        assert len(set(messages)) == 1
        # Only the good source's budget and compensator term are kept.
        assert held(scenario._element_budget) == held(scenario._compensator_term) == 1

    def test_failing_stream_raises_on_every_call(self, source, knobs):
        # At span factor 1 the grid passes ``make_grid``, and its set-up is
        # kept, but the stream's border check fails on it, on every call.
        budget = scenario.delay_budget(source, knobs)
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match="^grid too narrow: envelope magnitude at the border") as error:
                scenario.budget_terms(source, budget, 128, 1.0)
            messages.append(str(error.value))
            assert held(spectral._stacked_setup) == 1
        assert len(set(messages)) == 1

    def test_invalid_config_text_is_parsed_and_raises_on_every_call(self, tmp_path, monkeypatch):
        calls = []
        parse = scenario.parse_config
        monkeypatch.setattr(scenario, "parse_config", lambda data: calls.append(1) or parse(data))
        bad = tmp_path / "bad.yaml"
        bad.write_text(scenario.default_config_path().read_text().replace("thickness_mm: 3.4", "thickness_mm: -1", 1))
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match=r"^crystals\[0\]") as error:
                scenario.load_config(bad)
            messages.append(str(error.value))
        assert len(calls) == 3 and len(set(messages)) == 1 and held(scenario._parse_text) == 0


class TestKeptValuesAreReadOnly:
    def test_stacked_setup_arrays(self, source, knobs, monkeypatch):
        made, setup = [], spectral._StackedSetup
        monkeypatch.setattr(spectral, "_StackedSetup", lambda *args: made.append(setup(*args)) or made[-1])
        scenario.budget_terms(source, scenario.delay_budget(source, knobs), 128, 5.0)
        (stack,) = made
        assert held(spectral._stacked_setup) == 1
        for name in ("ridge", "filters", "detunings", "left", "right", "bands", "offsets"):
            array = getattr(stack, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    def test_delay_budget_mappings(self, source, knobs):
        budget = scenario.delay_budget(source, knobs)
        kept = scenario.delay_budget(source, knobs, 0.0)
        # The kept budget itself: its arguments find it again.
        element = scenario._element_budget(source.pump, source.crystals, source.signal_plate, source.idler_plate,
                                           source.scheme, source.cross_dispersion_enabled, knobs.signal_tilt_deg,
                                           knobs.idler_tilt_deg)
        assert held(scenario._element_budget) == 1
        for mapping in (budget.carriers, kept.carriers, element.terms, element.carriers):
            with pytest.raises(TypeError):
                mapping["pump"] = 0.0
        # A returned budget's own terms are a fresh dict: changing it changes no later budget.
        budget.terms["signal_plate"] = budget.terms["idler_plate"]
        assert scenario.delay_budget(source, knobs).terms["signal_plate"] != budget.terms["signal_plate"]


class TestBounds:
    def test_memos_stay_within_their_bounds(self, source, knobs):
        # 100 distinct sources: crystal 2's thickness differs, so each
        # evaluation has two specs; the last 10 sample 4096^2 grids, whose
        # set-ups (~0.9 MiB each) are the largest a memo keeps.
        cap = 4 * 2 ** 20
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(100):
                src = replace(source, crystals=(source.crystals[0],
                                                replace(source.crystals[1], thickness_mm=2.0 + 0.01 * k)))
                budget = scenario.delay_budget(src, knobs, 0.0)
                scenario.budget_terms(src, budget, 4096 if k >= 90 else 128, 5.0)
            del src, budget
            gc.collect()
            held_bytes = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held(scenario._element_budget) == scenario.CONFIG_MEMO_SIZE
        assert held(spectral._time_support) == 32
        assert held(spectral._stacked_setup) == 4
        # The set-ups' arrays within the cap, and besides them: the budgets,
        # supports, keys and the grids' cached axes, well under 1 MiB.
        assert held_bytes <= cap + 2 ** 20

    def test_clear_memos_empties_every_memo(self, tmp_path):
        # After one of each command, every registered memo holds a result.
        for name in COMMANDS:
            run(name, tmp_path / name)
        assert len(memo._KEPT) == 7 and all(map(held, memo._KEPT))
        memo.clear_memos()
        assert not any(map(held, memo._KEPT))

    def test_cleared_config_text_is_parsed_again(self, monkeypatch):
        calls = []
        parse = scenario.parse_config
        monkeypatch.setattr(scenario, "parse_config", lambda data: calls.append(1) or parse(data))
        path = scenario.default_config_path()
        first = scenario.load_config(path)
        assert scenario.load_config(path) is first and len(calls) == 1
        memo.clear_memos()
        assert held(scenario._parse_text) == 0
        assert scenario.load_config(path) == first and len(calls) == 2

