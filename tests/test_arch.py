import pytest

from evofuse.cli import main
from evofuse.errors import SpecError
from evofuse.net.arch import (
    ArchSpec,
    BUILTIN_NAMES,
    BatchNorm,
    ConvBlock,
    POOLED_NAMES,
    ReLU,
    builtin_spec,
    count_flops,
    count_params,
    count_state,
    parse_arch_file,
)


def conv_params(cin, cout, k, groups=1):
    return cout * (cin // groups) * k * k + cout


# hand-computed analytic counts for every built-in middle module (64-channel
# trunk, groups=8 where grouped)
FIRE = conv_params(64, 16, 1) + conv_params(16, 32, 1) + conv_params(16, 32, 3)
GC = conv_params(64, 64, 3, groups=8)
MIDDLE_PARAMS = {
    "regular": conv_params(64, 64, 3) + 128,
    "gcb": GC + 128,
    "separable": (64 * 9 + 64) + (64 * 64 + 64) + 128,
    "squeeze": FIRE + 128,
    "inception": conv_params(64, 16, 1) + conv_params(64, 32, 3) + conv_params(64, 16, 5) + 128,
    "gcb_inception": conv_params(64, 16, 1, 8)
    + conv_params(64, 32, 3, 8)
    + conv_params(64, 16, 5, 8)
    + 128,
    "squeeze_gcb": FIRE + 128 + GC + 128,
    "squeeze2_gcb": 2 * (FIRE + 128) + GC + 128,
    "m": conv_params(64, 64, 3) + 128
    + conv_params(64, 64, 3) + 128
    + FIRE + 128
    + conv_params(128, 64, 3) + 128
    + conv_params(128, 64, 3) + 128,
}


def expected_params(name, in_channels=2):
    head = conv_params(in_channels, 64, 3) + 128  # conv + BN scale/shift
    tail = conv_params(64, 1, 3)
    return head + MIDDLE_PARAMS[name] + tail


class TestBuiltinCounts:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_params_match_hand_arithmetic(self, name):
        assert count_params(builtin_spec(name)) == expected_params(name)

    def test_c1_block_6_to_64(self):
        spec = builtin_spec("gcb", in_channels=6)
        first_conv = spec.alpha[0]
        assert conv_params(first_conv.cin, first_conv.cout, first_conv.k) == 3520

    def test_gcb_within_2x_of_reference_count(self):
        # reference accounting reports 5378 trainable parameters for the
        # grouped variant; the documented assumption set (2 input channels,
        # 8 groups, BN affine included) must land within a factor of two
        count = count_params(builtin_spec("gcb"))
        assert 5378 / 2 <= count <= 5378 * 2

    def test_gcb_smallest_nonpooled_state(self):
        totals = {}
        for name in BUILTIN_NAMES:
            if name in POOLED_NAMES:
                continue
            trainable, running = count_state(builtin_spec(name))
            totals[name] = trainable + running
        assert min(totals, key=totals.get) == "gcb"

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecError):
            builtin_spec("mystery")


class TestFlops:
    def test_single_1x1_conv(self):
        spec = ArchSpec(
            "tiny", 1, 1,
            alpha=(ConvBlock(1, 1, 1),),
            beta=(),
            gamma=(),
            residual=False,
        )
        assert count_flops(spec, 1, 1) == 2

    def test_gcb_hand_count(self):
        spec = builtin_spec("gcb")
        h = w = 128
        macs = (
            64 * 2 * 9 * h * w        # head conv
            + 64 * 8 * 9 * h * w      # grouped conv, cin/groups = 8
            + 1 * 64 * 9 * h * w      # tail conv
        )
        assert count_flops(spec, h, w) == 2 * macs

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n not in POOLED_NAMES])
    def test_quadratic_scaling_for_stride1_specs(self, name):
        spec = builtin_spec(name)
        assert count_flops(spec, 64, 64) * 4 == count_flops(spec, 128, 128)


class TestValidation:
    def test_channel_chain_mismatch(self):
        with pytest.raises(SpecError):
            ArchSpec(
                "bad", 2, 1,
                alpha=(ConvBlock(2, 64, 3), ConvBlock(32, 64, 3)),
                beta=(),
                gamma=(ConvBlock(64, 1, 3),),
                residual=False,
            )

    def test_groups_must_divide(self):
        with pytest.raises(SpecError):
            ArchSpec(
                "bad", 2, 1,
                alpha=(ConvBlock(2, 64, 3, groups=3),),
                beta=(),
                gamma=(ConvBlock(64, 1, 3),),
                residual=False,
            )

    def test_residual_needs_matching_widths(self):
        with pytest.raises(SpecError):
            ArchSpec(
                "bad", 2, 1,
                alpha=(ConvBlock(2, 64, 3),),
                beta=(ConvBlock(64, 32, 3),),
                gamma=(ConvBlock(32, 1, 3),),
                residual=True,
            )

    def test_skip_source_in_range(self):
        from evofuse.net.arch import SkipConcat

        with pytest.raises(SpecError):
            ArchSpec(
                "bad", 2, 1,
                alpha=(ConvBlock(2, 64, 3),),
                beta=(SkipConcat(5), ConvBlock(64, 64, 3)),
                gamma=(ConvBlock(64, 1, 3),),
            )


class TestSpecFile:
    def test_roundtrip_equivalent_to_builtin(self, tmp_path):
        text = """
name filegcb
in_channels 2
out_channels 1
residual 1
stage alpha
conv 2 64 3
bn 64
relu
stage beta
conv 64 64 3 8
shuffle 8
bn 64
relu
stage gamma
conv 64 1 3
"""
        path = tmp_path / "filegcb.arch"
        path.write_text(text)
        spec = parse_arch_file(path)
        assert spec.name == "filegcb"
        assert count_params(spec) == count_params(builtin_spec("gcb"))
        assert count_flops(spec, 64, 64) == count_flops(builtin_spec("gcb"), 64, 64)

    @pytest.mark.parametrize(
        "line",
        [
            "conv 64 64 3 0",  # groups 0
            "conv 64 64 3 1 0",  # stride 0
            "conv 64 64 3 1 1 1",  # one argument too many
            "conv 64 64",  # too few
            "incep 64 16 32 16 0",  # groups 0
            "sep 64 64 2",  # even kernel
            "shuffle 0",
            "relu 1",
        ],
    )
    def test_invalid_block_line_is_spec_error(self, tmp_path, line):
        path = tmp_path / "bad.arch"
        path.write_text(f"stage alpha\nconv 2 64 3\nstage beta\n{line}\nstage gamma\nconv 64 1 3\n")
        with pytest.raises(SpecError, match="line 4"):
            parse_arch_file(path)
        assert main(["profile", "--spec", str(path), "--h", "16", "--w", "16"]) == 3

    def test_skip_of_another_size_is_spec_error(self, tmp_path, capsys):
        head, gamma = "residual 0\nstage alpha\nconv 2 8 3\nstage beta\n", "stage gamma\nconv 16 1 3\n"
        path = tmp_path / "cat.arch"
        path.write_text(f"{head}conv 8 8 3\npool\ncat 0\n{gamma}")
        with pytest.raises(SpecError, match="block 2: skip source is 64x64, not 32x32"):
            parse_arch_file(path)
        assert main(["profile", "--spec", str(path), "--h", "16", "--w", "16"]) == 3
        # a stride-2 conv and an upsample give the source's size back
        path.write_text(f"{head}relu\nconv 8 8 3 1 2\nup\ncat 0\n{gamma}")
        assert main(["profile", "--spec", str(path), "--h", "16", "--w", "16"]) == 0

    @pytest.mark.parametrize("beta", ["conv 64 64 3 1 2", "pool", "up"])
    def test_residual_beta_must_keep_spatial_size(self, tmp_path, beta):
        path = tmp_path / "strided.arch"
        path.write_text(f"stage alpha\nconv 2 64 3\nstage beta\n{beta}\nstage gamma\nconv 64 1 3\n")
        with pytest.raises(SpecError, match="spatial size"):
            parse_arch_file(path)
        assert main(["profile", "--spec", str(path), "--h", "16", "--w", "16"]) == 3

    @pytest.mark.parametrize(
        "text,match",
        [
            (
                "in_channels 0\nstage alpha\nconv 2 64 3\nstage gamma\nconv 64 1 3\n",
                "in/out channels must be >= 1, got 0/1",
            ),
            (
                "out_channels 3\nstage alpha\nconv 2 64 3\nstage gamma\nconv 64 1 3\n",
                "gamma produces 1 channels, spec says 3",
            ),
            (
                "stage alpha\nconv 2 4 3\nshuffle 3\nstage gamma\nconv 4 1 3\n",
                "shuffle groups=3 must divide 4",
            ),
            (
                "conv 2 64 3\nstage alpha\nstage gamma\nconv 64 1 3\n",
                "line 1: block before any stage directive",
            ),
        ],
        ids=["in-channels-0", "gamma-vs-out-channels", "shuffle-3-on-4", "block-before-stage"],
    )
    def test_invalid_spec_is_spec_error(self, tmp_path, text, match):
        path = tmp_path / "bad.arch"
        path.write_text(text)
        with pytest.raises(SpecError, match=match):
            parse_arch_file(path)
        assert main(["profile", "--spec", str(path), "--h", "16", "--w", "16"]) == 3

    def test_bad_directive(self, tmp_path):
        path = tmp_path / "bad.arch"
        path.write_text("stage alpha\nwarp 9000\n")
        with pytest.raises(SpecError):
            parse_arch_file(path)
