"""AMC parsing, serialization round trips, and scenario assembly."""

import math
from pathlib import Path

import numpy as np
import pytest

from scusum.exceptions import AmcParseError, AmcStructureError
from scusum.mocap import (
    AmcClip,
    ScenarioSpec,
    build_scenario,
    parse_amc,
    serialize_amc,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return parse_amc((FIXTURES / name).read_text())


class TestParseAmc:
    def test_minimal_fixture(self):
        clip = load("walk_two_frames.amc")
        assert clip.bone_order == ("root", "lowerback")
        assert clip.channel_counts == (6, 3)
        assert clip.dimension == 9
        assert clip.frame_indices == (1, 2)
        assert clip.values.shape == (2, 9)
        assert clip.values[0, 6] == pytest.approx(0.1)
        assert clip.values[1, 3] == pytest.approx(1.5)

    def test_empty_body_is_valid(self):
        clip = parse_amc("# comment only\n:FULLY-SPECIFIED\n:DEGREES\n")
        assert clip.n_frames == 0 and clip.dimension == 0

    def test_frame_gap_is_structure_error(self):
        with pytest.raises(AmcStructureError, match="frame index 3"):
            load("bad_frame_gap.amc")

    def test_bone_mismatch_is_structure_error(self):
        with pytest.raises(AmcStructureError, match="does not match"):
            load("bad_bone_mismatch.amc")

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(AmcParseError, match="line 6") as err:
            load("bad_value.amc")
        assert "oops" in str(err.value)
        assert err.value.line_number == 6

    def test_bone_data_before_frame_index(self):
        with pytest.raises(AmcStructureError, match="before the first frame"):
            parse_amc(":DEGREES\nroot 1.0 2.0\n")

    def test_error_classes_are_distinct(self):
        assert not issubclass(AmcParseError, AmcStructureError)
        assert not issubclass(AmcStructureError, AmcParseError)

    def test_accepts_file_object(self):
        with open(FIXTURES / "walk_ten_frames.amc") as fh:
            clip = parse_amc(fh)
        assert clip.n_frames == 10

    @pytest.mark.parametrize("tail", ["\n", "", "\n\n  \n"],
                             ids=["trailing_newline", "no_trailing_newline", "blank_trailing_lines"])
    def test_counts_the_lines_it_read(self, tmp_path, tail):
        path = tmp_path / "clip.amc"
        path.write_text((FIXTURES / "walk_two_frames.amc").read_text().rstrip("\n") + tail)
        with open(path) as fh:
            clip = parse_amc(fh)
        with open(path) as fh:
            assert clip.n_lines == sum(1 for _ in fh)
        assert clip.n_frames == 2
        assert parse_amc(path.read_text()).n_lines == clip.n_lines


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["walk_two_frames.amc", "walk_ten_frames.amc", "jump_eight_frames.amc"]
    )
    def test_serialize_then_parse_is_identity(self, name):
        clip = load(name)
        again = parse_amc(serialize_amc(clip))
        assert again.bone_order == clip.bone_order
        assert again.channel_counts == clip.channel_counts
        assert again.frame_indices == clip.frame_indices
        assert np.array_equal(again.values, clip.values)


class TestBuildScenario:
    def test_splice_arithmetic(self):
        pre, post = load("walk_ten_frames.amc"), load("jump_eight_frames.amc")
        result = build_scenario(
            ScenarioSpec(pre_clip=pre, post_clip=post, splice_index=6, standardize=False)
        )
        assert result.states.shape == (6 + 8, 9)
        assert result.change_index == 6

    def test_stride_one_keeps_every_frame_in_a_copy(self):
        clip = load("walk_ten_frames.amc")
        result = build_scenario(
            ScenarioSpec(pre_clip=clip, post_clip=None, splice_index=10, standardize=False)
        )
        assert np.array_equal(result.states, clip.values)
        assert not np.shares_memory(result.states, clip.values)

    def test_stride_four_on_nine_frames(self):
        clip = load("walk_ten_frames.amc")
        nine = AmcClip(
            bone_order=clip.bone_order,
            channel_counts=clip.channel_counts,
            values=clip.values[:9],
            frame_indices=clip.frame_indices[:9],
        )
        result = build_scenario(
            ScenarioSpec(pre_clip=nine, post_clip=None, splice_index=3, stride=4, standardize=False)
        )
        assert np.array_equal(result.states, nine.values[[0, 4, 8]])

    def test_empty_pre_clip_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            build_scenario(ScenarioSpec(pre_clip=parse_amc(""), post_clip=None, splice_index=1))

    def test_post_clip_without_frames_rejected(self):
        # a post file of comments and directives only is not a pure pre-change stream
        empty = parse_amc("# empty\n:FULLY-SPECIFIED\n")
        with pytest.raises(ValueError, match="post clip has no frames"):
            build_scenario(ScenarioSpec(pre_clip=load("walk_ten_frames.amc"), post_clip=empty,
                                        splice_index=8))

    def test_empty_post_gives_infinite_change(self):
        pre = load("walk_ten_frames.amc")
        result = build_scenario(
            ScenarioSpec(pre_clip=pre, post_clip=None, splice_index=8, standardize=False)
        )
        assert math.isinf(result.change_index)
        assert result.states.shape[0] == 8

    def test_standardization_statistics(self):
        pre, post = load("walk_ten_frames.amc"), load("jump_eight_frames.amc")
        result = build_scenario(
            ScenarioSpec(pre_clip=pre, post_clip=post, splice_index=8, standardize=True)
        )
        segment = result.states[:8]
        assert np.max(np.abs(segment.mean(axis=0))) <= 1e-9
        variances = segment.var(axis=0)
        live = result.state_scale != 1.0
        assert np.all(np.abs(variances[live] - 1.0) <= 1e-6)

    def test_degenerate_dimension_unit_divisor(self):
        # root channel 2 is constant in the fixtures
        pre = load("walk_ten_frames.amc")
        assert pre.values[:, 2].std() == 0.0
        result = build_scenario(
            ScenarioSpec(pre_clip=pre, post_clip=None, splice_index=10, standardize=True)
        )
        assert result.state_scale[2] == 1.0
        assert np.all(np.isfinite(result.states))

    def test_dimension_mismatch_rejected(self):
        pre = load("walk_ten_frames.amc")
        bad = parse_amc("1\nroot 1.0 2.0\n2\nroot 1.5 2.5\n")
        with pytest.raises(ValueError, match="dimensions differ"):
            build_scenario(ScenarioSpec(pre_clip=pre, post_clip=bad, splice_index=5))

    def test_splice_bounds_checked(self):
        pre = load("walk_ten_frames.amc")
        with pytest.raises(ValueError, match="exceeds"):
            build_scenario(ScenarioSpec(pre_clip=pre, post_clip=None, splice_index=11))

    def test_stride_applies_before_splice(self):
        pre, post = load("walk_ten_frames.amc"), load("jump_eight_frames.amc")
        result = build_scenario(
            ScenarioSpec(pre_clip=pre, post_clip=post, splice_index=3, stride=2, standardize=False)
        )
        # strided: pre 10 -> 5 (keep 3), post 8 -> 4
        assert result.states.shape[0] == 3 + 4
        assert np.array_equal(result.states[:3], pre.values[[0, 2, 4]])
