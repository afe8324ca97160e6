#include <gtest/gtest.h>

#include "common/seeded_test.hh"
#include "nn/reference.hh"

using namespace maicc;

TEST(Reference, Conv1x1Identity)
{
    // 1x1 conv with weight 1, shift 0: output == input (plus
    // saturation).
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 1;
    l.inH = l.inW = 3;
    l.outC = 1;
    l.R = l.S = 1;
    l.pad = 0;
    l.shift = 0;
    Weights4 w(1, 1, 1, 1);
    w.at(0, 0, 0, 0) = 1;
    Tensor3 in(3, 3, 1);
    for (int i = 0; i < 9; ++i)
        in.data[i] = static_cast<int8_t>(i - 4);
    Tensor3 out = referenceLayer(l, w, in, nullptr);
    EXPECT_EQ(out.data, in.data);
}

TEST(Reference, Conv3x3HandComputed)
{
    // 3x3 all-ones filter, no pad: output = sum of the window.
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 1;
    l.inH = l.inW = 3;
    l.outC = 1;
    l.R = l.S = 3;
    l.pad = 0;
    l.shift = 0;
    Weights4 w(1, 3, 3, 1);
    for (auto &v : w.data)
        v = 1;
    Tensor3 in(3, 3, 1);
    for (int i = 0; i < 9; ++i)
        in.data[i] = static_cast<int8_t>(i + 1); // 1..9, sum 45
    Tensor3 out = referenceLayer(l, w, in, nullptr);
    ASSERT_EQ(out.H, 1);
    EXPECT_EQ(out.at(0, 0, 0), 45);
}

TEST(Reference, PaddingContributesZero)
{
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 1;
    l.inH = l.inW = 2;
    l.outC = 1;
    l.R = l.S = 3;
    l.pad = 1;
    l.shift = 0;
    Weights4 w(1, 3, 3, 1);
    for (auto &v : w.data)
        v = 1;
    Tensor3 in(2, 2, 1);
    in.at(0, 0, 0) = 1;
    in.at(0, 1, 0) = 2;
    in.at(1, 0, 0) = 3;
    in.at(1, 1, 0) = 4;
    Tensor3 out = referenceLayer(l, w, in, nullptr);
    ASSERT_EQ(out.H, 2);
    // Every output sees all four inputs that exist in its window.
    EXPECT_EQ(out.at(0, 0, 0), 10);
    EXPECT_EQ(out.at(1, 1, 0), 10);
}

TEST(Reference, StrideTwoGeometry)
{
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 4;
    l.inH = l.inW = 8;
    l.outC = 2;
    l.R = l.S = 3;
    l.stride = 2;
    l.pad = 1;
    l.shift = 4;
    Weights4 w(2, 3, 3, 4);
    Rng rng(3);
    w.randomize(rng);
    Tensor3 in(8, 8, 4);
    in.randomize(rng);
    Tensor3 out = referenceLayer(l, w, in, nullptr);
    EXPECT_EQ(out.H, 4);
    EXPECT_EQ(out.W, 4);
    EXPECT_EQ(out.C, 2);
}

TEST(Reference, ReluClampsNegative)
{
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 1;
    l.inH = l.inW = 1;
    l.outC = 1;
    l.R = l.S = 1;
    l.shift = 0;
    l.relu = true;
    Weights4 w(1, 1, 1, 1);
    w.at(0, 0, 0, 0) = -1;
    Tensor3 in(1, 1, 1);
    in.at(0, 0, 0) = 5;
    Tensor3 out = referenceLayer(l, w, in, nullptr);
    EXPECT_EQ(out.at(0, 0, 0), 0);
}

TEST(Reference, ResidualAddScalesWithShift)
{
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 1;
    l.inH = l.inW = 1;
    l.outC = 1;
    l.R = l.S = 1;
    l.shift = 3;
    Weights4 w(1, 1, 1, 1);
    w.at(0, 0, 0, 0) = 8; // acc = 8 * in
    Tensor3 in(1, 1, 1);
    in.at(0, 0, 0) = 2; // acc = 16 -> >>3 = 2
    Tensor3 res(1, 1, 1);
    res.at(0, 0, 0) = 5; // +5 after shift
    l.addFrom = 0;
    Tensor3 out = referenceLayer(l, w, in, &res);
    EXPECT_EQ(out.at(0, 0, 0), 7);
}

TEST(Reference, ConvRowsComposeToWholeLayer)
{
    // The conv kernel over any split of the output rows writes the
    // same fmap as one whole-layer call: a 3x3 stride-1 layer with
    // padding, a stride-2 downsample and a channel-split 1x1 layer
    // (outC not a multiple of the kernel's filter block), each with
    // and without a residual.
    uint64_t seed = testseed::seedOrDefault(2024);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    std::vector<LayerSpec> layers(3);
    layers[0].inC = 64;
    layers[0].inH = layers[0].inW = 9;
    layers[0].outC = 32;
    layers[0].R = layers[0].S = 3;
    layers[0].pad = 1;
    layers[0].relu = true;
    layers[1].inC = 16;
    layers[1].inH = layers[1].inW = 10;
    layers[1].outC = 8;
    layers[1].R = layers[1].S = 3;
    layers[1].stride = 2;
    layers[1].pad = 1;
    layers[2].inC = 300;
    layers[2].inH = layers[2].inW = 5;
    layers[2].outC = 7;
    for (LayerSpec &l : layers) {
        Weights4 w(l.outC, l.R, l.S, l.inC);
        w.randomize(rng);
        Tensor3 in(l.inH, l.inW, l.inC);
        in.randomize(rng);
        Tensor3 res(l.outH(), l.outW(), l.outC);
        res.randomize(rng);
        for (const Tensor3 *residual : {(const Tensor3 *)nullptr,
                                        (const Tensor3 *)&res}) {
            Tensor3 whole = referenceLayer(l, w, in, residual);
            for (int trial = 0; trial < 8; ++trial) {
                Tensor3 out(l.outH(), l.outW(), l.outC);
                int begin = 0;
                while (begin < out.H) {
                    int end = begin + 1
                        + int(rng.range(0, out.H - begin - 1));
                    referenceConvRows(l, w, in, residual, out, begin,
                                      end);
                    begin = end;
                }
                EXPECT_EQ(out.data, whole.data)
                    << "layer " << l.inC << "x" << l.R << "x" << l.S
                    << " trial " << trial
                    << (residual ? " with" : " without")
                    << " residual";
            }
        }
    }
}

TEST(Reference, AvgPoolTruncates)
{
    LayerSpec l;
    l.kind = LayerKind::AvgPool;
    l.inC = 1;
    l.inH = l.inW = 2;
    l.R = l.S = 2;
    l.stride = 2;
    Tensor3 in(2, 2, 1);
    in.at(0, 0, 0) = 1;
    in.at(0, 1, 0) = 2;
    in.at(1, 0, 0) = 3;
    in.at(1, 1, 0) = 5; // sum 11 / 4 = 2 (truncated)
    Tensor3 out = referenceLayer(l, Weights4{}, in, nullptr);
    EXPECT_EQ(out.at(0, 0, 0), 2);
}

TEST(Reference, MaxPool)
{
    LayerSpec l;
    l.kind = LayerKind::MaxPool;
    l.inC = 1;
    l.inH = l.inW = 2;
    l.R = l.S = 2;
    l.stride = 2;
    Tensor3 in(2, 2, 1);
    in.at(0, 0, 0) = -7;
    in.at(1, 1, 0) = 4;
    Tensor3 out = referenceLayer(l, Weights4{}, in, nullptr);
    EXPECT_EQ(out.at(0, 0, 0), 4);
}

TEST(Reference, FullResNet18RunsAndIsDeterministic)
{
    Network net = buildResNet18();
    auto w = randomWeights(net, 11);
    Tensor3 in(56, 56, 64);
    Rng rng(12);
    in.randomize(rng);
    auto r1 = referenceRun(net, w, in);
    auto r2 = referenceRun(net, w, in);
    ASSERT_EQ(r1.outputs.size(), net.size());
    EXPECT_EQ(r1.final().C, 1000);
    EXPECT_EQ(r1.final().data, r2.final().data);
    // The network must not collapse to all zeros (dead ReLUs).
    int nonzero = 0;
    for (auto v : r1.final().data)
        nonzero += (v != 0);
    EXPECT_GT(nonzero, 100);
}
