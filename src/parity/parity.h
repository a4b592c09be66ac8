#ifndef FTMS_PARITY_PARITY_H_
#define FTMS_PARITY_PARITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"
#include "util/status.h"

namespace ftms {

// A data block: the contents of one disk track. All blocks in a parity
// group must have equal size (one track, B bytes).
using Block = std::vector<uint8_t>;

// dst ^= src, byte-wise, through the dispatched xor kernel. Sizes must
// match.
void XorInto(std::span<uint8_t> dst, std::span<const uint8_t> src);

// dst ^= srcs[0] ^ ... ^ srcs[nsrc-1] in one fused pass over dst (the
// kernel batches groups larger than kMaxXorSources). Every source must
// be dst.size() bytes; nsrc may be 0 (no-op).
void XorIntoN(std::span<uint8_t> dst, const uint8_t* const* srcs, int nsrc);

// Verifies that every block (plus `extra`, when non-null) shares one
// size and returns it. InvalidArgument on a mismatch or when there is
// nothing to size (empty blocks and no extra). Shared precheck of
// ComputeParity / ReconstructMissing / VerifyGroup.
StatusOr<size_t> CheckEqualBlockSizes(std::span<const Block> blocks,
                                      const Block* extra = nullptr);

// Returns the bitwise XOR of all `blocks` (which must be non-empty and of
// equal size). This is the parity block of a parity group:
//   Xp = X0 ^ X1 ^ ... ^ X(C-2)   (paper Section 1, Figure 3).
StatusOr<Block> ComputeParity(std::span<const Block> blocks);

// Reconstructs the single missing data block of a parity group on the fly:
// given the C-2 surviving data blocks and the parity block, the missing
// block is their XOR. `survivors` are the available data blocks in any
// order. This is the degraded-mode read path of every scheme in the paper.
StatusOr<Block> ReconstructMissing(std::span<const Block> survivors,
                                   const Block& parity);

// Verifies that parity XOR all data blocks is zero, i.e. the group is
// internally consistent. Allocation-free: the fold runs chunk-wise
// through a stack buffer and never materializes the computed parity.
StatusOr<bool> VerifyGroup(std::span<const Block> data, const Block& parity);

// ---------------------------------------------------------------------
// P+Q (RAID-6) codec — the dual-parity groups of the SR-2/NC-2 scheme
// variants. Unit index convention for a group with k data blocks:
// units 0..k-1 are the data blocks, unit k is P, unit k+1 is Q, with
//   P = D0 ^ ... ^ D(k-1),   Q = g^0*D0 ^ ... ^ g^(k-1)*D(k-1)
// over GF(2^8) (parity/gf256.h). Any two lost units are recoverable as
// long as the weights g^i are distinct, i.e. for k <= 255 (g has order
// 255, so g^255 = g^0): wider groups are rejected with InvalidArgument.

inline constexpr int kMaxPqDataBlocks = 255;
inline constexpr int PqUnitP(int data_blocks) { return data_blocks; }
inline constexpr int PqUnitQ(int data_blocks) { return data_blocks + 1; }

// Computes both syndromes of `data` (1..kMaxPqDataBlocks equal-sized
// blocks) in fused kernel passes; p and q are overwritten.
Status ComputePq(std::span<const Block> data, Block* p, Block* q);

// Verifies that p and q both match `data` — the dual-parity scrub
// check.
StatusOr<bool> VerifyPqGroup(std::span<const Block> data, const Block& p,
                             const Block& q);

// Repairs up to two missing units of a P+Q group in place. `missing`
// holds the distinct unit indices of the lost blocks (0..k+1 with
// k = data.size()), in any order; the blocks at those positions must be
// allocated to the group's block size (contents ignored), every other
// block must hold its true contents. Covers all two-erasure cases:
// data+data, data+P, data+Q and P+Q. InvalidArgument on more than two
// missing units, duplicate or out-of-range indices, size mismatches, or
// more than kMaxPqDataBlocks data blocks.
Status ReconstructPq(std::span<Block> data, Block* p, Block* q,
                     std::span<const int> missing);

// Incremental XOR accumulator. Section 3's deferred-transition scheme
// buffers "A0 ^ A1" after delivering A0 and A1 so the missing A2 can be
// rebuilt later from a single buffered track instead of the whole prefix:
// this type is that buffer. Add() folds one block in; AddSources() folds
// a batch in one multi-source kernel pass; Take() releases the
// accumulated XOR.
class ParityAccumulator {
 public:
  ParityAccumulator() = default;

  // Folds `block` into the accumulator. The first Add seeds the
  // accumulator with a single copy (no zero-fill, no XOR) and fixes the
  // block size; later Adds must match it.
  Status Add(std::span<const uint8_t> block);

  // Folds `count` equal-sized blocks in one pass over the accumulator
  // (batched through the multi-source kernel). Equivalent to `count`
  // Add() calls, minus count-1 passes over the accumulator.
  Status AddSources(const uint8_t* const* blocks, int count,
                    size_t block_size);

  int count() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t block_size() const { return acc_.size(); }
  const Block& value() const { return acc_; }

  // Returns the accumulated XOR and resets the accumulator.
  Block Take();

  void Reset();

 private:
  Block acc_;
  int count_ = 0;
};

}  // namespace ftms

#endif  // FTMS_PARITY_PARITY_H_
