#include "alice/alice_sf.hpp"

#include "sixp/sf_registry.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
constexpr std::uint16_t kEbHandle = 0;
constexpr std::uint16_t kCommonHandle = 1;
constexpr std::uint16_t kUnicastHandle = 2;

/// Orchestra-style node hash for the EB slotframe (same constant as
/// OrchestraSf::hash; the EB plane is identical in both schedulers).
std::uint16_t node_hash(NodeId id, std::uint16_t modulus) {
  GTTSCH_CHECK(modulus > 0);
  return static_cast<std::uint16_t>((static_cast<std::uint32_t>(id) * 2654435761u) %
                                    modulus);
}
}  // namespace

AliceSf::AliceSf(Simulator& sim, TschMac& mac, RplAgent& rpl, AliceConfig config)
    : sim_(sim), mac_(mac), rpl_(rpl), config_(config), rehash_(sim) {
  GTTSCH_CHECK(config_.num_channel_offsets > 2);  // offsets 0/1 are EB/common
}

std::uint64_t AliceSf::link_hash(NodeId src, NodeId dst, std::uint64_t asfn) {
  // splitmix64 finalizer over the packed (src, dst, asfn) triple: both
  // endpoints compute the same value, and consecutive ASFNs decorrelate.
  std::uint64_t z = (static_cast<std::uint64_t>(src) << 48) ^
                    (static_cast<std::uint64_t>(dst) << 32) ^ asfn;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t AliceSf::current_asfn() const {
  const TimeUs period = mac_.slotframe_duration(config_.unicast_slotframe_length);
  return static_cast<std::uint64_t>(sim_.now()) / static_cast<std::uint64_t>(period);
}

void AliceSf::start(bool is_root) { is_root_ = is_root; }

void AliceSf::on_associated() {
  associated_ = true;
  install_base_slotframes();
  reinstall_link_cells(current_asfn());
  // Re-derive the link cells at every global slotframe boundary. The
  // boundaries are multiples of the nominal slotframe duration in
  // simulation time, so every ALICE node rehashes at the same instants
  // and link endpoints never disagree about the current ASFN.
  rehash_tick();
}

void AliceSf::install_base_slotframes() {
  TschSchedule& sched = mac_.schedule();

  Slotframe& eb = sched.add_slotframe(kEbHandle, config_.eb_slotframe_length);
  Cell eb_tx;
  eb_tx.slot_offset = node_hash(mac_.id(), config_.eb_slotframe_length);
  eb_tx.channel_offset = config_.eb_channel_offset;
  eb_tx.options = kCellTx;
  eb_tx.neighbor = kBroadcastId;
  eb.add(eb_tx);
  if (!is_root_ && mac_.time_source() != kNoNode) {
    eb_rx_source_ = mac_.time_source();
    Cell eb_rx;
    eb_rx.slot_offset = node_hash(eb_rx_source_, config_.eb_slotframe_length);
    eb_rx.channel_offset = config_.eb_channel_offset;
    eb_rx.options = kCellRx;
    eb_rx.neighbor = kBroadcastId;
    eb.add(eb_rx);
  }

  Slotframe& common = sched.add_slotframe(kCommonHandle, config_.common_slotframe_length);
  Cell shared;
  shared.slot_offset = 0;
  shared.channel_offset = config_.common_channel_offset;
  shared.options = kCellTx | kCellRx | kCellShared;
  shared.neighbor = kBroadcastId;
  common.add(shared);

  sched.add_slotframe(kUnicastHandle, config_.unicast_slotframe_length);
}

void AliceSf::reinstall_link_cells(std::uint64_t asfn) {
  Slotframe* unicast = mac_.schedule().get(kUnicastHandle);
  if (unicast == nullptr) return;
  link_cells_.clear();

  const std::uint16_t length = config_.unicast_slotframe_length;
  const std::uint8_t channel_span =
      static_cast<std::uint8_t>(config_.num_channel_offsets - 2);
  const auto link_cell = [&](NodeId src, NodeId dst) {
    const std::uint64_t h = link_hash(src, dst, asfn);
    Cell c;
    c.slot_offset = static_cast<std::uint16_t>(h % length);
    // An independent bit slice for the channel, over [2, num_offsets)
    // so link cells never collide with the EB/common planes.
    c.channel_offset = static_cast<ChannelOffset>(2 + (h >> 16) % channel_span);
    return c;
  };

  // Tx toward the parent: our half of the directed link self -> parent.
  const NodeId parent = rpl_.parent();
  if (!is_root_ && parent != kNoNode) {
    Cell tx = link_cell(mac_.id(), parent);
    tx.options = kCellTx;
    tx.neighbor = parent;
    link_cells_.push_back(tx);
  }

  // Rx per live neighbor: their half of neighbor -> self. Pruning
  // happens here (once per slotframe) so the set cannot grow unbounded.
  if (config_.neighbor_timeout > 0) {
    const TimeUs now = sim_.now();
    for (auto it = neighbors_.begin(); it != neighbors_.end();) {
      if (now - it->second > config_.neighbor_timeout) {
        it = neighbors_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [neighbor, last_heard] : neighbors_) {
    (void)last_heard;
    if (neighbor == parent) continue;  // convergecast: no Rx from the parent
    Cell rx = link_cell(neighbor, mac_.id());
    rx.options = kCellRx;
    rx.neighbor = kBroadcastId;  // any sender that hashed onto this link slot
    link_cells_.push_back(rx);
  }
  unicast->assign(link_cells_);
}

void AliceSf::rehash_tick() {
  const TimeUs period = mac_.slotframe_duration(config_.unicast_slotframe_length);
  const std::uint64_t asfn = current_asfn();
  reinstall_link_cells(asfn);
  const TimeUs next_boundary = static_cast<TimeUs>((asfn + 1) *
                                                   static_cast<std::uint64_t>(period));
  rehash_.start(next_boundary - sim_.now(), [this] { rehash_tick(); });
}

void AliceSf::on_frame(const Frame& frame) {
  if (frame.src == kNoNode || frame.src == mac_.id()) return;
  const auto [it, inserted] = neighbors_.insert_or_assign(frame.src, sim_.now());
  (void)it;
  // A brand-new neighbor gets its Rx link cell immediately (mid-window):
  // its unicast traffic must not wait a full slotframe for the rehash.
  if (inserted && associated_) reinstall_link_cells(current_asfn());
}

void AliceSf::on_parent_changed(NodeId, NodeId) {
  if (associated_) reinstall_link_cells(current_asfn());
}

std::optional<EbPayload> AliceSf::eb_info() {
  if (!is_root_ && !rpl_.joined()) return std::nullopt;
  EbPayload eb;
  eb.join_priority = rpl_.hops();
  eb.slotframe_length = config_.unicast_slotframe_length;
  eb.has_family_channel = false;
  eb.dodag_root = rpl_.dodag_root();
  return eb;
}

int AliceSf::dedicated_tx_cells() const {
  const Slotframe* unicast = mac_.schedule().get(kUnicastHandle);
  if (unicast == nullptr) return 0;
  int count = 0;
  for (const Cell& c : unicast->all_cells()) {
    if (c.is_tx()) ++count;
  }
  return count;
}

int AliceSf::dedicated_rx_cells() const {
  const Slotframe* unicast = mac_.schedule().get(kUnicastHandle);
  if (unicast == nullptr) return 0;
  int count = 0;
  for (const Cell& c : unicast->all_cells()) {
    if (c.is_rx()) ++count;
  }
  return count;
}

void register_alice_sf(SfRegistry& registry) {
  SfRegistry::Entry entry;
  entry.key = "alice";
  entry.display_name = "ALICE";
  entry.summary = "autonomous per-link cells, hash(src,dst,ASFN), no 6P";
  entry.factory = [](const SfContext& ctx) -> std::unique_ptr<SchedulingFunction> {
    return std::make_unique<AliceSf>(ctx.sim, ctx.mac, ctx.rpl, ctx.configs.alice);
  };
  registry.add(std::move(entry));
}

}  // namespace gttsch
