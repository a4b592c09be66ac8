#include "layout/layout.h"

#include <string>
#include <utility>

#include "parity/parity.h"

namespace ftms {

LayoutGeom Layout::Geom() const {
  LayoutGeom g;
  g.num_clusters = num_clusters();
  g.disks_per_cluster = disks_per_cluster();
  g.per_group = DataBlocksPerGroup();
  g.parity_blocks = parity_blocks();
  g.striped = striped();
  g.ib = scheme_family() == Scheme::kImprovedBandwidth;
  g.per_group_div = FastDiv(static_cast<uint32_t>(g.per_group));
  g.clusters_div = FastDiv(static_cast<uint32_t>(g.num_clusters));
  g.dpc_div = FastDiv(static_cast<uint32_t>(g.disks_per_cluster));
  return g;
}

std::vector<BlockLocation> Layout::GroupDataLocations(int object_id,
                                                      int64_t group) const {
  std::vector<BlockLocation> out;
  out.reserve(static_cast<size_t>(DataBlocksPerGroup()));
  const int64_t first = group * DataBlocksPerGroup();
  for (int i = 0; i < DataBlocksPerGroup(); ++i) {
    out.push_back(DataLocation(object_id, first + i));
  }
  return out;
}

namespace {

Status ValidateCommon(int num_disks, int parity_group_size) {
  if (parity_group_size < 2) {
    return Status::InvalidArgument("parity group size must be >= 2");
  }
  if (num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<ClusteredLayout>> ClusteredLayout::Create(
    int num_disks, int parity_group_size) {
  FTMS_RETURN_IF_ERROR(ValidateCommon(num_disks, parity_group_size));
  if (num_disks % parity_group_size != 0) {
    return Status::InvalidArgument(
        "num_disks (" + std::to_string(num_disks) +
        ") must be a multiple of the parity group size (" +
        std::to_string(parity_group_size) + ")");
  }
  return std::unique_ptr<ClusteredLayout>(
      new ClusteredLayout(num_disks, parity_group_size));
}

BlockLocation ClusteredLayout::DataLocation(int object_id,
                                            int64_t track) const {
  const int64_t group = GroupOf(track);
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = cluster * parity_group_size() + PositionInGroup(track);
  loc.is_parity = false;
  return loc;
}

BlockLocation ClusteredLayout::ParityLocation(int object_id,
                                              int64_t group) const {
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = ParityDisk(cluster);
  loc.is_parity = true;
  return loc;
}

StatusOr<std::unique_ptr<DualParityLayout>> DualParityLayout::Create(
    int num_disks, int parity_group_size) {
  FTMS_RETURN_IF_ERROR(ValidateCommon(num_disks, parity_group_size));
  if (parity_group_size < 3) {
    return Status::InvalidArgument(
        "dual-parity clusters need C >= 3 (two parity disks plus data)");
  }
  if (parity_group_size > kMaxPqDataBlocks + 2) {
    return Status::InvalidArgument(
        "dual-parity clusters need C <= 257 (the Q code covers at most "
        "255 data disks)");
  }
  if (num_disks % parity_group_size != 0) {
    return Status::InvalidArgument(
        "num_disks (" + std::to_string(num_disks) +
        ") must be a multiple of the parity group size (" +
        std::to_string(parity_group_size) + ")");
  }
  return std::unique_ptr<DualParityLayout>(
      new DualParityLayout(num_disks, parity_group_size));
}

BlockLocation DualParityLayout::DataLocation(int object_id,
                                             int64_t track) const {
  const int64_t group = GroupOf(track);
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = cluster * parity_group_size() + PositionInGroup(track);
  loc.is_parity = false;
  return loc;
}

BlockLocation DualParityLayout::ParityLocation(int object_id,
                                               int64_t group) const {
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = PDisk(cluster);
  loc.is_parity = true;
  return loc;
}

BlockLocation DualParityLayout::QParityLocation(int object_id,
                                                int64_t group) const {
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = QDisk(cluster);
  loc.is_parity = true;
  return loc;
}

StatusOr<std::unique_ptr<ImprovedBandwidthLayout>>
ImprovedBandwidthLayout::Create(int num_disks, int parity_group_size) {
  FTMS_RETURN_IF_ERROR(ValidateCommon(num_disks, parity_group_size));
  const int per_cluster = parity_group_size - 1;
  if (num_disks % per_cluster != 0) {
    return Status::InvalidArgument(
        "num_disks (" + std::to_string(num_disks) +
        ") must be a multiple of C-1 (" + std::to_string(per_cluster) + ")");
  }
  if (num_disks / per_cluster < 2) {
    return Status::InvalidArgument(
        "Improved-bandwidth layout needs at least two clusters");
  }
  return std::unique_ptr<ImprovedBandwidthLayout>(
      new ImprovedBandwidthLayout(num_disks, parity_group_size));
}

BlockLocation ImprovedBandwidthLayout::DataLocation(int object_id,
                                                    int64_t track) const {
  const int64_t group = GroupOf(track);
  const int cluster = GroupCluster(object_id, group);
  BlockLocation loc;
  loc.cluster = cluster;
  loc.disk = cluster * disks_per_cluster() + PositionInGroup(track);
  loc.is_parity = false;
  return loc;
}

BlockLocation ImprovedBandwidthLayout::ParityLocation(int object_id,
                                                      int64_t group) const {
  // Parity of a group living on cluster i goes to cluster i+1 (mod Nc),
  // rotating over that cluster's disks so no single disk absorbs all the
  // neighbor's parity.
  const int data_cluster = GroupCluster(object_id, group);
  const int parity_cluster = (data_cluster + 1) % num_clusters();
  const int index = static_cast<int>(
      (static_cast<int64_t>(object_id) + group) % disks_per_cluster());
  BlockLocation loc;
  loc.cluster = parity_cluster;
  loc.disk = parity_cluster * disks_per_cluster() + index;
  loc.is_parity = true;
  return loc;
}

StatusOr<std::unique_ptr<NonStripedLayout>> NonStripedLayout::Create(
    int num_disks, int parity_group_size) {
  // Same geometric constraints as the striped clustered layout.
  StatusOr<std::unique_ptr<ClusteredLayout>> base =
      ClusteredLayout::Create(num_disks, parity_group_size);
  if (!base.ok()) return base.status();
  return std::unique_ptr<NonStripedLayout>(
      new NonStripedLayout(num_disks, parity_group_size));
}

StatusOr<std::unique_ptr<Layout>> CreateLayout(Scheme scheme, int num_disks,
                                               int parity_group_size) {
  if (scheme == Scheme::kImprovedBandwidth) {
    auto layout = ImprovedBandwidthLayout::Create(num_disks,
                                                  parity_group_size);
    if (!layout.ok()) return layout.status();
    return StatusOr<std::unique_ptr<Layout>>(std::move(layout.value()));
  }
  if (IsDualParity(scheme)) {
    auto layout = DualParityLayout::Create(num_disks, parity_group_size);
    if (!layout.ok()) return layout.status();
    return StatusOr<std::unique_ptr<Layout>>(std::move(layout.value()));
  }
  auto layout = ClusteredLayout::Create(num_disks, parity_group_size);
  if (!layout.ok()) return layout.status();
  return StatusOr<std::unique_ptr<Layout>>(std::move(layout.value()));
}

}  // namespace ftms
