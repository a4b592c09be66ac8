#include "parity/gf256.h"

#include <gtest/gtest.h>

#include "parity/parity.h"

namespace ftms {
namespace {

using gf256::Div;
using gf256::Exp;
using gf256::GetTables;
using gf256::Inv;
using gf256::Log;
using gf256::Mul;
using gf256::MulSlow;

TEST(Gf256Test, ExpLogRoundTrip) {
  // log(exp(i)) == i for every exponent, exp(log(a)) == a for every
  // nonzero element, and the generator has full order 255.
  for (int i = 0; i < 255; ++i) {
    EXPECT_EQ(Log(Exp(i)), i);
  }
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(Exp(Log(static_cast<uint8_t>(a))), a);
  }
  EXPECT_EQ(Exp(0), 1);
  EXPECT_EQ(Exp(255), 1);
  EXPECT_EQ(Exp(1), gf256::kGenerator);
}

TEST(Gf256Test, NegativeAndLargeExponentsWrap) {
  for (int e = -600; e <= 600; ++e) {
    int r = e % 255;
    if (r < 0) r += 255;
    EXPECT_EQ(Exp(e), Exp(r)) << "e=" << e;
  }
}

TEST(Gf256Test, TableMulMatchesBitwiseReference) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(Mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                MulSlow(static_cast<uint8_t>(a), static_cast<uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256Test, FieldAxiomsSpotChecks) {
  // Commutativity and associativity over a pseudo-random sample, plus
  // distributivity over XOR (the field addition).
  uint32_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 1664525u + 1013904223u;
    const uint8_t a = static_cast<uint8_t>(x >> 8);
    const uint8_t b = static_cast<uint8_t>(x >> 16);
    const uint8_t c = static_cast<uint8_t>(x >> 24);
    EXPECT_EQ(Mul(a, b), Mul(b, a));
    EXPECT_EQ(Mul(Mul(a, b), c), Mul(a, Mul(b, c)));
    EXPECT_EQ(Mul(a, static_cast<uint8_t>(b ^ c)),
              Mul(a, b) ^ Mul(a, c));
  }
}

TEST(Gf256Test, InverseAndDivision) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t ua = static_cast<uint8_t>(a);
    EXPECT_EQ(Mul(ua, Inv(ua)), 1) << a;
    EXPECT_EQ(Div(ua, ua), 1) << a;
  }
  EXPECT_EQ(Mul(0, 17), 0);
  EXPECT_EQ(Mul(17, 0), 0);
  EXPECT_EQ(Mul(1, 17), 17);
}

TEST(Gf256Test, NibbleTablesComposeTheFullMultiply) {
  for (int c : {0, 1, 2, 29, 0x1d, 127, 255}) {
    uint8_t lo[16], hi[16];
    gf256::NibbleTables(static_cast<uint8_t>(c), lo, hi);
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(static_cast<uint8_t>(lo[v & 15] ^ hi[v >> 4]),
                Mul(static_cast<uint8_t>(c), static_cast<uint8_t>(v)))
          << "c=" << c << " v=" << v;
    }
  }
}

TEST(Gf256Test, GfniMatrixBitsEncodeBasisImages) {
  // Byte k, bit j of the affine matrix must be bit (7-k) of c * 2^j —
  // the packing GF2P8AFFINEQB consumes (verified against hardware by
  // pq_kernel_test's cross-kernel check when the gfni kernel runs).
  for (int c : {0, 1, 2, 3, 0x1d, 0x80, 0xfd, 255}) {
    const uint64_t m = gf256::GfniMatrix(static_cast<uint8_t>(c));
    for (int k = 0; k < 8; ++k) {
      const uint8_t row = static_cast<uint8_t>(m >> (8 * k));
      for (int j = 0; j < 8; ++j) {
        const uint8_t image = Mul(static_cast<uint8_t>(c),
                                  static_cast<uint8_t>(1u << j));
        ASSERT_EQ((row >> j) & 1, (image >> (7 - k)) & 1)
            << "c=" << c << " k=" << k << " j=" << j;
      }
    }
  }
}

TEST(Gf256Test, TwoDataCoefficientsSolveTheErasureSystem) {
  // For every missing pair (x, y), A and B must satisfy
  //   A ^ B*g^x == 1   and   A ^ B*g^y == 0
  // so that A*P' ^ B*Q' recovers D_x exactly. Every pair of the 255 data
  // positions a group may have: the MDS condition of the P+Q code.
  for (int x = 0; x < kMaxPqDataBlocks; ++x) {
    for (int y = x + 1; y < kMaxPqDataBlocks; ++y) {
      uint8_t a, b;
      gf256::TwoDataCoefficients(x, y, &a, &b);
      EXPECT_EQ(a ^ Mul(b, Exp(x)), 1) << x << "," << y;
      EXPECT_EQ(a ^ Mul(b, Exp(y)), 0) << x << "," << y;
    }
  }
}

TEST(Gf256Test, KnownQSyndromeVector) {
  // Hand-checked example in the standard RAID-6 field (0x11d, g=2):
  // D = {0x01, 0x02, 0x04} gives
  //   Q = 1*1 ^ 2*2 ^ 4*4 = 0x01 ^ 0x04 ^ 0x10 = 0x15.
  Block d0 = {0x01}, d1 = {0x02}, d2 = {0x04};
  const Block data[] = {d0, d1, d2};
  Block p, q;
  ASSERT_TRUE(ComputePq(data, &p, &q).ok());
  EXPECT_EQ(p[0], 0x01 ^ 0x02 ^ 0x04);
  EXPECT_EQ(q[0], 0x15);
  // And the g^i weights themselves: 2*0x80 wraps through the polynomial.
  EXPECT_EQ(Mul(2, 0x80), 0x11d ^ 0x100);
}

}  // namespace
}  // namespace ftms
