/**
 * Property tests: the bit-serial hardware MAC primitive must equal a
 * direct integer dot product for every precision, signedness, mask
 * setting, and random operand draw. This is the equivalence that
 * lets the many-core runtime (src/runtime) use a fast direct dot
 * product while remaining faithful to the modelled hardware.
 */

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "common/random.hh"
#include "common/seeded_test.hh"

using namespace maicc;

namespace
{

int64_t
dot(const std::vector<int32_t> &a, const std::vector<int32_t> &b)
{
    int64_t s = 0;
    for (size_t k = 0; k < a.size(); ++k)
        s += int64_t(a[k]) * b[k];
    return s;
}

} // namespace

class MacProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(MacProperty, BitSerialEqualsDirectDot)
{
    auto [n, is_signed] = GetParam();
    uint64_t seed =
        testseed::seedOrDefault(1000 + n * 2 + is_signed);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    int32_t lo = is_signed ? -(1 << (n - 1)) : 0;
    int32_t hi = is_signed ? (1 << (n - 1)) - 1 : (1 << n) - 1;
    for (int trial = 0; trial < 24; ++trial) {
        CMem cm;
        std::vector<int32_t> a(256), b(256);
        for (auto &v : a)
            v = static_cast<int32_t>(rng.range(lo, hi));
        for (auto &v : b)
            v = static_cast<int32_t>(rng.range(lo, hi));
        unsigned slice = 1 + (trial % 7);
        cm.pokeVector(slice, 0, n, a);
        cm.pokeVector(slice, n, n, b);
        EXPECT_EQ(cm.macc(slice, 0, n, n, is_signed), dot(a, b))
            << "n=" << n << " signed=" << is_signed
            << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisions, MacProperty,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Bool()),
    [](const auto &info) {
        std::string name = "n";
        name += std::to_string(std::get<0>(info.param));
        name += std::get<1>(info.param) ? "_signed" : "_unsigned";
        return name;
    });

class MacMaskProperty : public ::testing::TestWithParam<uint8_t>
{
};

TEST_P(MacMaskProperty, MaskedMacEqualsMaskedDot)
{
    uint8_t mask = GetParam();
    uint64_t seed = testseed::seedOrDefault(777u + mask);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    CMem cm;
    std::vector<int32_t> a(256), b(256);
    for (auto &v : a)
        v = static_cast<int32_t>(rng.range(-128, 127));
    for (auto &v : b)
        v = static_cast<int32_t>(rng.range(-128, 127));
    cm.pokeVector(1, 0, 8, a);
    cm.pokeVector(1, 8, 8, b);
    cm.setMask(1, mask);
    int64_t want = 0;
    for (unsigned k = 0; k < 256; ++k) {
        if ((mask >> (k / 32)) & 1)
            want += int64_t(a[k]) * b[k];
    }
    EXPECT_EQ(cm.macc(1, 0, 8, 8, true), want);
}

INSTANTIATE_TEST_SUITE_P(MaskPatterns, MacMaskProperty,
                         ::testing::Values(0x00, 0x01, 0x80, 0x0F,
                                           0xF0, 0xA5, 0xFF));

TEST(MacExtremes, AllMinTimesAllMin)
{
    // 256 * (-128 * -128) = 4194304; exercises sign-bit rows on
    // both operands simultaneously.
    CMem cm;
    std::vector<int32_t> a(256, -128), b(256, -128);
    cm.pokeVector(1, 0, 8, a);
    cm.pokeVector(1, 8, 8, b);
    EXPECT_EQ(cm.macc(1, 0, 8, 8, true), 256LL * 128 * 128);
}

TEST(MacExtremes, MinTimesMax)
{
    CMem cm;
    std::vector<int32_t> a(256, -128), b(256, 127);
    cm.pokeVector(1, 0, 8, a);
    cm.pokeVector(1, 8, 8, b);
    EXPECT_EQ(cm.macc(1, 0, 8, 8, true), -256LL * 128 * 127);
}

TEST(MacExtremes, ZeroVectorGivesZero)
{
    CMem cm;
    std::vector<int32_t> a(256, 0), b(256, 77);
    cm.pokeVector(1, 0, 8, a);
    cm.pokeVector(1, 8, 8, b);
    EXPECT_EQ(cm.macc(1, 0, 8, 8, true), 0);
}

TEST(MacPlacement, OperandsAnywhereDisjoint)
{
    // Filters live at varying row offsets (Fig. 6); the primitive
    // must work for any disjoint placement.
    uint64_t seed = testseed::seedOrDefault(4242);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    CMem cm;
    std::vector<int32_t> a(256), b(256);
    for (auto &v : a)
        v = static_cast<int32_t>(rng.range(-8, 7));
    for (auto &v : b)
        v = static_cast<int32_t>(rng.range(-8, 7));
    for (unsigned base_b : {8u, 16u, 24u, 32u, 40u, 48u, 56u}) {
        cm.pokeVector(3, 0, 8, a);
        cm.pokeVector(3, base_b, 8, b);
        EXPECT_EQ(cm.macc(3, 0, base_b, 8, true), dot(a, b))
            << "base_b=" << base_b;
    }
}
