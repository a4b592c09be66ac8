#include "parity/parity.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "parity/gf256.h"

namespace ftms {
namespace {

// Folds blocks[first..), minus the optional skip index, into dst in
// kernel-width batches: each batch is one pass over dst.
void FoldBlocksInto(std::span<uint8_t> dst, std::span<const Block> blocks,
                    size_t first, size_t skip = static_cast<size_t>(-1)) {
  const uint8_t* srcs[kMaxXorSources];
  int pending = 0;
  for (size_t i = first; i < blocks.size(); ++i) {
    if (i == skip) continue;
    srcs[pending++] = blocks[i].data();
    if (pending == kMaxXorSources) {
      XorIntoN(dst.data(), srcs, pending, dst.size());
      pending = 0;
    }
  }
  XorIntoN(dst.data(), srcs, pending, dst.size());
}

}  // namespace

void XorInto(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  assert(dst.size() == src.size());
  const uint8_t* s = src.data();
  XorIntoN(dst.data(), &s, 1, dst.size());
}

void XorIntoN(std::span<uint8_t> dst, const uint8_t* const* srcs,
              int nsrc) {
  XorIntoN(dst.data(), srcs, nsrc, dst.size());
}

StatusOr<size_t> CheckEqualBlockSizes(std::span<const Block> blocks,
                                      const Block* extra) {
  if (blocks.empty() && extra == nullptr) {
    return Status::InvalidArgument("parity of empty group");
  }
  const size_t size = extra != nullptr ? extra->size()
                                       : blocks.front().size();
  for (const Block& b : blocks) {
    if (b.size() != size) {
      return Status::InvalidArgument("parity group blocks differ in size");
    }
  }
  return size;
}

StatusOr<Block> ComputeParity(std::span<const Block> blocks) {
  StatusOr<size_t> size = CheckEqualBlockSizes(blocks);
  if (!size.ok()) return size.status();
  Block parity = blocks.front();
  FoldBlocksInto(parity, blocks, 1);
  return parity;
}

StatusOr<Block> ReconstructMissing(std::span<const Block> survivors,
                                   const Block& parity) {
  StatusOr<size_t> size = CheckEqualBlockSizes(survivors, &parity);
  if (!size.ok()) {
    return Status::InvalidArgument(
        "survivor block size differs from parity block size");
  }
  Block result = parity;
  FoldBlocksInto(result, survivors, 0);
  return result;
}

StatusOr<bool> VerifyGroup(std::span<const Block> data, const Block& parity) {
  if (data.empty()) {
    return Status::InvalidArgument("parity of empty group");
  }
  StatusOr<size_t> size = CheckEqualBlockSizes(data, &parity);
  if (!size.ok()) {
    return Status::InvalidArgument("parity block size mismatch");
  }
  // Accumulate-and-compare through a stack chunk: XOR parity and every
  // data block together one chunk at a time and test for zero, without
  // ever materializing the computed parity block.
  constexpr size_t kChunk = 4096;
  uint8_t chunk[kChunk];
  const uint8_t* srcs[kMaxXorSources];
  for (size_t off = 0; off < *size; off += kChunk) {
    const size_t n = std::min(kChunk, *size - off);
    std::memcpy(chunk, parity.data() + off, n);
    size_t i = 0;
    while (i < data.size()) {
      int pending = 0;
      while (i < data.size() && pending < kMaxXorSources) {
        srcs[pending++] = data[i++].data() + off;
      }
      XorIntoN(chunk, srcs, pending, n);
    }
    for (size_t j = 0; j < n; ++j) {
      if (chunk[j] != 0) return false;
    }
  }
  return true;
}

namespace {

// Accumulates the P/Q syndromes of every data block except the (up to
// two) skipped indices into p/q, each block weighted by its TRUE
// column coefficient g^i — the survivor fold of two-erasure repair.
void AccumulatePqSurvivors(std::span<const Block> data, size_t skip1,
                           size_t skip2, uint8_t* p, uint8_t* q,
                           size_t bytes) {
  const uint8_t* srcs[kMaxPqSources];
  uint8_t coeffs[kMaxPqSources];
  int pending = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i == skip1 || i == skip2) continue;
    srcs[pending] = data[i].data();
    coeffs[pending] = gf256::Exp(static_cast<int>(i));
    if (++pending == kMaxPqSources) {
      PqAccumulate(p, q, srcs, coeffs, pending, bytes);
      pending = 0;
    }
  }
  PqAccumulate(p, q, srcs, coeffs, pending, bytes);
}

constexpr size_t kNoSkip = static_cast<size_t>(-1);

}  // namespace

Status ComputePq(std::span<const Block> data, Block* p, Block* q) {
  if (data.size() > static_cast<size_t>(kMaxPqDataBlocks)) {
    return Status::InvalidArgument("pq group wider than 255 data blocks");
  }
  StatusOr<size_t> size = CheckEqualBlockSizes(data);
  if (!size.ok()) return size.status();
  p->assign(*size, 0);
  q->assign(*size, 0);
  std::vector<const uint8_t*> srcs(data.size());
  for (size_t i = 0; i < data.size(); ++i) srcs[i] = data[i].data();
  PqGenerateN(p->data(), q->data(), srcs.data(),
              static_cast<int>(srcs.size()), *size);
  return Status::Ok();
}

StatusOr<bool> VerifyPqGroup(std::span<const Block> data, const Block& p,
                             const Block& q) {
  StatusOr<size_t> size = CheckEqualBlockSizes(data, &p);
  if (!size.ok() || q.size() != *size) {
    return Status::InvalidArgument("pq group block size mismatch");
  }
  Block want_p, want_q;
  Status computed = ComputePq(data, &want_p, &want_q);
  if (!computed.ok()) return computed;
  return want_p == p && want_q == q;
}

Status ReconstructPq(std::span<Block> data, Block* p, Block* q,
                     std::span<const int> missing) {
  const int k = static_cast<int>(data.size());
  if (k == 0) return Status::InvalidArgument("pq group with no data");
  if (k > kMaxPqDataBlocks) {
    return Status::InvalidArgument("pq group wider than 255 data blocks");
  }
  if (missing.size() > 2) {
    return Status::InvalidArgument(
        "pq groups recover at most two erasures");
  }
  std::span<const Block> cdata(data.data(), data.size());
  StatusOr<size_t> checked = CheckEqualBlockSizes(cdata, p);
  if (!checked.ok() || q->size() != *checked) {
    return Status::InvalidArgument("pq group block size mismatch");
  }
  const size_t size = *checked;
  int m0 = missing.size() > 0 ? missing[0] : -1;
  int m1 = missing.size() > 1 ? missing[1] : -1;
  if (missing.size() == 2 && m0 > m1) std::swap(m0, m1);
  for (const int m : missing) {
    if (m < 0 || m > k + 1) {
      return Status::InvalidArgument("pq unit index out of range");
    }
  }
  if (missing.size() == 2 && m0 == m1) {
    return Status::InvalidArgument("duplicate pq unit index");
  }

  if (missing.empty()) return Status::Ok();

  if (missing.size() == 1) {
    if (m0 < k) {
      // Single data erasure: plain XOR through P, exactly the
      // single-parity path.
      data[m0].assign(p->begin(), p->end());
      FoldBlocksInto(data[m0], cdata, 0, static_cast<size_t>(m0));
    } else if (m0 == k) {
      p->assign(data[0].begin(), data[0].end());
      FoldBlocksInto(*p, cdata, 1);
    } else {
      // Q alone: regenerate the syndrome (the P half lands in scratch).
      Block scratch(size);
      q->assign(size, 0);
      AccumulatePqSurvivors(cdata, kNoSkip, kNoSkip, scratch.data(),
                            q->data(), size);
    }
    return Status::Ok();
  }

  if (m1 == k + 1 && m0 == k) {
    // P+Q: both syndromes from intact data.
    return ComputePq(cdata, p, q);
  }
  if (m1 == k + 1) {
    // Data + Q: recover the data block through P, then regenerate Q.
    data[m0].assign(p->begin(), p->end());
    FoldBlocksInto(data[m0], cdata, 0, static_cast<size_t>(m0));
    Block scratch(size);
    q->assign(size, 0);
    AccumulatePqSurvivors(cdata, kNoSkip, kNoSkip, scratch.data(),
                          q->data(), size);
    return Status::Ok();
  }
  if (m1 == k) {
    // Data + P: fold the survivors' Q-syndrome into Q, leaving
    // g^m0 * D_m0; scale by g^-m0, then rebuild P from complete data.
    Block scratch(size);
    Block qprime(q->begin(), q->end());
    AccumulatePqSurvivors(cdata, static_cast<size_t>(m0), kNoSkip,
                          scratch.data(), qprime.data(), size);
    data[m0].assign(size, 0);
    GfMulXorInto(data[m0].data(), qprime.data(), gf256::Exp(-m0), size);
    p->assign(data[0].begin(), data[0].end());
    FoldBlocksInto(*p, cdata, 1);
    return Status::Ok();
  }

  // Two data erasures x < y (Anvin's recipe): with P' and Q' the
  // partial syndromes of the survivors folded into P and Q,
  //   D_x = A*P' ^ B*Q',  D_y = P' ^ D_x.
  const int x = m0;
  const int y = m1;
  Block pprime(p->begin(), p->end());
  Block qprime(q->begin(), q->end());
  AccumulatePqSurvivors(cdata, static_cast<size_t>(x),
                        static_cast<size_t>(y), pprime.data(),
                        qprime.data(), size);
  uint8_t a, b;
  gf256::TwoDataCoefficients(x, y, &a, &b);
  data[x].assign(size, 0);
  GfMulXorInto(data[x].data(), pprime.data(), a, size);
  GfMulXorInto(data[x].data(), qprime.data(), b, size);
  data[y] = std::move(pprime);
  XorInto(data[y], data[x]);
  return Status::Ok();
}

Status ParityAccumulator::Add(std::span<const uint8_t> block) {
  const uint8_t* src = block.data();
  return AddSources(&src, 1, block.size());
}

Status ParityAccumulator::AddSources(const uint8_t* const* blocks, int count,
                                     size_t block_size) {
  if (count <= 0) return Status::Ok();
  int first = 0;
  if (count_ == 0) {
    // Seed with a single copy of the first block — no zero-fill and no
    // redundant XOR against a cleared buffer.
    acc_.assign(blocks[0], blocks[0] + block_size);
    ++count_;
    ++first;
  }
  if (block_size != acc_.size()) {
    return Status::InvalidArgument("accumulator block size mismatch");
  }
  XorIntoN(acc_.data(), blocks + first, count - first, block_size);
  count_ += count - first;
  return Status::Ok();
}

Block ParityAccumulator::Take() {
  Block out = std::move(acc_);
  Reset();
  return out;
}

void ParityAccumulator::Reset() {
  acc_.clear();
  count_ = 0;
}

}  // namespace ftms
