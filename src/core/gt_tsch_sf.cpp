#include "core/gt_tsch_sf.hpp"

#include <algorithm>

#include "sim/log.hpp"
#include "sixp/sf_registry.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
constexpr std::uint16_t kSlotframeHandle = 0;
/// With l^rx cached at 0, probe the parent with a minimal ADD this often
/// (in monitor ticks) so a stale advertisement cannot deadlock a child.
constexpr int kProbeInterval = 8;
}  // namespace

GtTschSf::GtTschSf(Simulator& sim, TschMac& mac, RplAgent& rpl, SixpAgent& sixp,
                   EtxEstimator& etx, GtTschConfig config, Rng rng)
    : sim_(sim),
      mac_(mac),
      rpl_(rpl),
      sixp_(sixp),
      etx_(etx),
      config_(config),
      rng_(rng),
      layout_(config.layout),
      channels_(mac.config().hopping.num_offsets(), config.broadcast_offset),
      balancer_(config.load_balancer),
      monitor_(sim) {
  sixp_.set_callbacks(this);
}

Slotframe& GtTschSf::own_slotframe() {
  Slotframe* sf = mac_.schedule().get(kSlotframeHandle);
  GTTSCH_CHECK(sf != nullptr);
  return *sf;
}

void GtTschSf::start(bool is_root) { is_root_ = is_root; }

void GtTschSf::on_associated() {
  install_base_cells();
  if (is_root_) {
    f_own_family_ = channels_.pick_root_family_channel(rng_);
    level_ = 0;
    install_family_shared_cells(level_, f_own_family_, /*as_parent=*/true);
    stage_ = Stage::kOperational;
  } else {
    stage_ = Stage::kWaitChannel;
  }
  const TimeUs period = mac_.slotframe_duration(layout_.length());
  monitor_.start(period, period, [this] { monitor_tick(); });
}

void GtTschSf::install_base_cells() {
  if (mac_.schedule().get(kSlotframeHandle) == nullptr)
    mac_.schedule().add_slotframe(kSlotframeHandle, layout_.length());
  Slotframe& sf = own_slotframe();
  for (std::uint16_t offset : layout_.broadcast_offsets()) {
    Cell c;
    c.slot_offset = offset;
    c.channel_offset = config_.broadcast_offset;
    c.options = kCellTx | kCellRx | kCellShared;
    c.neighbor = kBroadcastId;
    sf.add(c);
  }
}

void GtTschSf::install_family_shared_cells(unsigned parent_level, ChannelOffset channel,
                                           bool as_parent) {
  (void)as_parent;  // both roles install identical Tx|Rx|Shared cells
  Slotframe& sf = own_slotframe();
  for (std::uint16_t offset : layout_.shared_offsets(parent_level)) {
    Cell c;
    c.slot_offset = offset;
    c.channel_offset = channel;
    c.options = kCellTx | kCellRx | kCellShared;
    c.neighbor = kBroadcastId;
    sf.add(c);
  }
}

void GtTschSf::reinstall_shared_cells() {
  Slotframe& sf = own_slotframe();
  const ChannelOffset bcast = config_.broadcast_offset;
  sf.remove_if([bcast](const Cell& c) {
    return c.is_shared() && c.neighbor == kBroadcastId && c.channel_offset != bcast;
  });
  if (!is_root_ && f_to_parent_ != kNoChannel && level_ > 0)
    install_family_shared_cells(level_ - 1, f_to_parent_, /*as_parent=*/false);
  if (f_own_family_ != kNoChannel)
    install_family_shared_cells(level_, f_own_family_, /*as_parent=*/true);
}

void GtTschSf::remove_cells_with(NodeId peer) {
  if (mac_.schedule().get(kSlotframeHandle) == nullptr) return;
  own_slotframe().remove_if([peer](const Cell& c) { return c.neighbor == peer; });
}

void GtTschSf::on_frame(const Frame& frame) {
  // Any traffic from a registered child refreshes its liveness.
  const auto child_it = children_.find(frame.src);
  if (child_it != children_.end()) child_it->second.last_heard = sim_.now();

  if (frame.type == FrameType::kEb) {
    const EbPayload& eb = frame.as<EbPayload>();
    if (!eb.has_family_channel) return;
    neighbor_info_[frame.src] = NeighborInfo{eb.family_channel, eb.join_priority};
    if (stage_ == Stage::kWaitChannel && frame.src == rpl_.parent()) {
      begin_bootstrap();
    } else if (stage_ == Stage::kOperational && !is_root_ && frame.src == rpl_.parent() &&
               eb.family_channel != f_to_parent_) {
      // The parent migrated its family channel; rejoin its family.
      GTTSCH_LOG_INFO("gt-tsch", "node %u: parent family channel moved %u->%u", mac_.id(),
                      f_to_parent_, eb.family_channel);
      sixp_.abort_peer(frame.src);
      Slotframe& sf = own_slotframe();
      const ChannelOffset stale = f_to_parent_;
      sf.remove_if([&](const Cell& c) {
        return c.neighbor == frame.src ||
               (c.is_shared() && c.neighbor == kBroadcastId && c.channel_offset == stale);
      });
      f_to_parent_ = kNoChannel;
      stage_ = Stage::kWaitChannel;
      begin_bootstrap();
    }
    return;
  }
  if (frame.type == FrameType::kDio && frame.src == rpl_.parent()) {
    parent_free_rx_cache_ = frame.as<DioPayload>().free_rx_cells;
  }
}

void GtTschSf::on_parent_changed(NodeId old_parent, NodeId new_parent) {
  if (is_root_) return;
  if (old_parent != kNoNode) {
    sixp_.abort_peer(old_parent);
    // Best-effort CLEAR so the old parent releases our cells promptly.
    SixpPayload clear;
    clear.command = SixpCommand::kClear;
    sixp_.request(old_parent, clear);
    Slotframe& sf = own_slotframe();
    const ChannelOffset stale = f_to_parent_;
    sf.remove_if([&](const Cell& c) {
      return c.neighbor == old_parent ||
             (stale != kNoChannel && c.is_shared() && c.neighbor == kBroadcastId &&
              c.channel_offset == stale && c.channel_offset != f_own_family_);
    });
  }
  f_to_parent_ = kNoChannel;
  parent_free_rx_cache_ = 0;
  stage_ = Stage::kWaitChannel;
  if (new_parent != kNoNode) begin_bootstrap();
}

void GtTschSf::begin_bootstrap() {
  if (stage_ != Stage::kWaitChannel) return;
  const NodeId parent = rpl_.parent();
  if (parent == kNoNode) return;
  const auto it = neighbor_info_.find(parent);
  if (it == neighbor_info_.end() || it->second.family_channel == kNoChannel)
    return;  // wait for the parent's EB
  f_to_parent_ = it->second.family_channel;
  level_ = static_cast<unsigned>(it->second.level) + 1;
  reinstall_shared_cells();
  stage_ = Stage::kAskChannel;
  continue_bootstrap();
}

void GtTschSf::continue_bootstrap() {
  const NodeId parent = rpl_.parent();
  if (parent == kNoNode || is_root_) return;
  switch (stage_) {
    case Stage::kWaitChannel:
      begin_bootstrap();
      break;
    case Stage::kAskChannel: {
      if (sixp_.busy_with(parent)) return;
      SixpPayload ask;
      ask.command = SixpCommand::kAskChannel;
      sixp_.request(parent, ask);
      break;
    }
    case Stage::kAddSixp: {
      if (sixp_.busy_with(parent)) return;
      SixpPayload add;
      add.command = SixpCommand::kAdd;
      add.num_cells = static_cast<std::uint8_t>(config_.sixp_cells_per_link);
      add.cell_options = kCellSixp;
      add.cell_list = free_candidate_cells();
      sixp_.request(parent, add);
      break;
    }
    default:
      break;
  }
}

int GtTschSf::children_demand() const {
  int total = 0;
  for (const auto& [_, child] : children_) total += child.demanded;
  return total;
}

int GtTschSf::allocated_tx_cells() const {
  const Slotframe* sf = mac_.schedule().get(kSlotframeHandle);
  if (sf == nullptr) return 0;
  return TxSlotAllocator::count_data_cells(*sf).tx;
}

int GtTschSf::allocated_rx_cells() const {
  const Slotframe* sf = mac_.schedule().get(kSlotframeHandle);
  if (sf == nullptr) return 0;
  return TxSlotAllocator::count_data_cells(*sf).rx;
}

std::uint16_t GtTschSf::advertised_free_rx() {
  const Slotframe* sf = mac_.schedule().get(kSlotframeHandle);
  if (sf == nullptr || stage_ != Stage::kOperational) return 0;
  // grantable_rx scans the slotframe; memoize on the schedule version so
  // the many callers between schedule mutations (DIOs, 6P responses,
  // monitor ticks) pay for the scan once.
  const std::uint64_t version = mac_.schedule().version();
  if (grantable_cache_valid_ && grantable_cache_version_ == version)
    return grantable_cache_;
  const int grantable =
      TxSlotAllocator::grantable_rx(*sf, layout_, is_root_, config_.placement_rules);
  grantable_cache_ = static_cast<std::uint16_t>(std::clamp(grantable, 0, 0xFFFF));
  grantable_cache_version_ = version;
  grantable_cache_valid_ = true;
  return grantable_cache_;
}

std::optional<EbPayload> GtTschSf::eb_info() {
  if (stage_ != Stage::kOperational || f_own_family_ == kNoChannel) return std::nullopt;
  if (!is_root_ && !rpl_.joined()) return std::nullopt;
  EbPayload eb;
  eb.join_priority = static_cast<std::uint8_t>(level_);
  eb.slotframe_length = layout_.length();
  eb.has_family_channel = true;
  eb.family_channel = f_own_family_;
  eb.dodag_root = rpl_.dodag_root();
  return eb;
}

void GtTschSf::monitor_tick() {
  if (!mac_.associated()) return;

  // Reclaim cells of children that went silent (lost CLEAR after a parent
  // switch, or a dead node).
  if (config_.child_timeout > 0) {
    for (auto it = children_.begin(); it != children_.end();) {
      if (it->second.last_heard > 0 &&
          sim_.now() - it->second.last_heard > config_.child_timeout) {
        const NodeId gone = it->first;
        ++it;  // handle_clear erases from children_
        GTTSCH_LOG_INFO("gt-tsch", "node %u: reclaiming cells of silent child %u",
                        mac_.id(), gone);
        handle_clear(gone);
      } else {
        ++it;
      }
    }
  }

  // Keep the advertised l^rx fresh: a 0 <-> nonzero flip matters to
  // children, so nudge the DIO trickle.
  const std::uint16_t adv = advertised_free_rx();
  if ((adv == 0) != (last_advertised_rx_ == 0)) rpl_.notify_metric_changed();
  last_advertised_rx_ = adv;

  // Return cells we refused during a stale-candidate conflict (must run in
  // every stage: a conflicted 6P pair would otherwise block the bootstrap).
  if (!conflicted_cells_.empty() && !is_root_ && rpl_.parent() != kNoNode &&
      !sixp_.busy_with(rpl_.parent())) {
    SixpPayload del;
    del.command = SixpCommand::kDelete;
    // The CellList must fit the 127-byte 6P frame; heavy churn can pile up
    // more conflicted cells than that, so flush in chunks — the remainder
    // goes out on later ticks.
    const std::size_t chunk =
        std::min(conflicted_cells_.size(), kMaxSixpCellListCells);
    del.num_cells = static_cast<std::uint8_t>(chunk);
    del.cell_list.assign(conflicted_cells_.begin(),
                         conflicted_cells_.begin() + static_cast<std::ptrdiff_t>(chunk));
    conflicted_cells_.erase(conflicted_cells_.begin(),
                            conflicted_cells_.begin() + static_cast<std::ptrdiff_t>(chunk));
    sixp_.request(rpl_.parent(), del);
    generated_since_tick_ = 0;
    return;  // one transaction per tick
  }

  if (stage_ != Stage::kOperational) {
    generated_since_tick_ = 0;
    continue_bootstrap();
    return;
  }
  if (is_root_) {
    generated_since_tick_ = 0;
    return;
  }
  const NodeId parent = rpl_.parent();
  if (parent == kNoNode) return;

  LoadBalancer::Inputs in;
  in.generated_since_last_tick = generated_since_tick_;
  generated_since_tick_ = 0;
  in.tick_period = mac_.slotframe_duration(layout_.length());
  in.slotframe_duration = in.tick_period;
  in.children_demand = children_demand();
  in.allocated_tx = allocated_tx_cells();
  in.l_rx_parent = std::max<int>(parent_free_rx_cache_, rpl_.parent_free_rx());
  in.queue_length = mac_.data_queue_length();
  in.rank = rpl_.rank();
  in.rank_min = rpl_.root_rank();
  in.min_step_of_rank = rpl_.min_hop_rank_increase();
  in.etx = etx_.etx(parent);
  in.queue_max = config_.queue_max;

  // Stale-advertisement probe: occasionally ask even when l^rx reads 0.
  if (in.l_rx_parent <= 0) {
    ++probe_counter_;
    if (probe_counter_ >= kProbeInterval) {
      probe_counter_ = 0;
      in.l_rx_parent = 1;
    }
  } else {
    probe_counter_ = 0;
  }

  const LoadBalancer::Decision d = balancer_.tick(in);
  if (d.action == LoadBalancer::Decision::Action::kAdd && !sixp_.busy_with(parent)) {
    SixpPayload add;
    add.command = SixpCommand::kAdd;
    add.num_cells = static_cast<std::uint8_t>(std::clamp(d.count, 1, 255));
    add.cell_options = kCellTx;
    add.cell_list = free_candidate_cells();
    sixp_.request(parent, add);
  } else if (d.action == LoadBalancer::Decision::Action::kDelete &&
             !sixp_.busy_with(parent)) {
    // Offer Tx data cells for removal, highest offsets first, but only
    // where the Section V invariants survive the deletion (a removed Tx
    // cell must not leave two Rx cells un-interleaved).
    const Slotframe& sf = own_slotframe();
    auto cells = TxSlotAllocator::extract_data_cells(sf);
    std::vector<Cell> candidates;
    for (const Cell& c : sf.all_cells()) {
      if (c.is_tx() && !c.is_sixp() && !c.is_shared() && c.neighbor == parent)
        candidates.push_back(c);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Cell& a, const Cell& b) { return a.slot_offset > b.slot_offset; });
    std::vector<Cell> chosen;
    std::vector<std::uint16_t> remaining_tx = cells.tx;
    for (const Cell& cand : candidates) {
      if (static_cast<int>(chosen.size()) >= d.count) break;
      if (chosen.size() >= kMaxSixpCellListCells) break;  // 127-byte frame cap
      std::vector<std::uint16_t> trial = remaining_tx;
      std::erase(trial, cand.slot_offset);
      const bool margin_ok = trial.size() > cells.rx.size() || cells.rx.empty();
      if (!margin_ok) continue;
      if (!TxSlotAllocator::lists_interleaved(trial, cells.rx, sf.length())) continue;
      chosen.push_back(cand);
      remaining_tx = std::move(trial);
    }
    if (!chosen.empty()) {
      SixpPayload del;
      del.command = SixpCommand::kDelete;
      del.num_cells = static_cast<std::uint8_t>(chosen.size());
      del.cell_list = chosen;
      sixp_.request(parent, del);
    }
  }
}

// ---------------------------------------------------------------------------
// Parent-side 6P handling.
// ---------------------------------------------------------------------------

SixpPayload GtTschSf::sixp_handle_request(NodeId peer, const SixpPayload& request) {
  const auto child_it = children_.find(peer);
  if (child_it != children_.end()) child_it->second.last_heard = sim_.now();
  SixpPayload response;
  switch (request.command) {
    case SixpCommand::kAskChannel:
      response = handle_ask_channel(peer);
      break;
    case SixpCommand::kAdd:
      response = handle_add(peer, request);
      break;
    case SixpCommand::kDelete:
      response = handle_delete(peer, request);
      break;
    case SixpCommand::kClear:
      handle_clear(peer);
      response.code = SixpReturnCode::kSuccess;
      break;
  }
  response.free_rx = advertised_free_rx();
  return response;
}

SixpPayload GtTschSf::handle_ask_channel(NodeId peer) {
  SixpPayload r;
  if (f_own_family_ == kNoChannel || stage_ != Stage::kOperational) {
    r.code = SixpReturnCode::kErrBusy;
    return r;
  }
  ChildState& child = children_[peer];
  child.last_heard = sim_.now();
  if (child.family_channel == kNoChannel) {
    if (children_.size() > channels_.max_children()) {
      children_.erase(peer);
      r.code = SixpReturnCode::kErrNoResource;
      return r;
    }
    std::vector<ChannelOffset> siblings;
    for (const auto& [id, c] : children_)
      if (id != peer && c.family_channel != kNoChannel) siblings.push_back(c.family_channel);
    const auto assigned =
        channels_.assign_child_family_channel(f_to_parent_, f_own_family_, siblings);
    if (!assigned.has_value()) {
      children_.erase(peer);
      r.code = SixpReturnCode::kErrNoResource;
      return r;
    }
    child.family_channel = *assigned;
  }
  r.code = SixpReturnCode::kSuccess;
  r.channel_offset = child.family_channel;
  r.level = static_cast<std::uint8_t>(level_ + 1);
  return r;
}

std::vector<Cell> GtTschSf::free_candidate_cells() {
  // Our free negotiable offsets, proposed to the responder so granted
  // slots are free on both sides (RFC 8480 CellList).
  std::vector<Cell> out;
  const Slotframe& sf = own_slotframe();
  for (std::uint16_t s : layout_.negotiable_offsets()) {
    if (sf.slot_in_use(s)) continue;
    // Long slotframes can have hundreds of free offsets; the CellList must
    // fit the 127-byte 6P frame or its airtime outgrows the timeslot.
    if (out.size() >= kMaxSixpCellListCells) break;
    Cell c;
    c.slot_offset = s;
    c.channel_offset = f_to_parent_;
    c.options = kCellTx;
    c.neighbor = kNoNode;
    out.push_back(c);
  }
  return out;
}

SixpPayload GtTschSf::handle_add(NodeId peer, const SixpPayload& request) {
  SixpPayload r;
  Slotframe& sf = own_slotframe();
  ChildState& child = children_[peer];

  std::vector<std::uint16_t> allowed;
  allowed.reserve(request.cell_list.size());
  for (const Cell& c : request.cell_list) allowed.push_back(c.slot_offset);
  const std::vector<std::uint16_t>* allowed_ptr =
      request.cell_list.empty() ? nullptr : &allowed;

  if (request.cell_options & kCellSixp) {
    if (child.sixp_cells) {
      // Idempotent: re-grant the existing pair.
      for (const Cell& c : sf.all_cells()) {
        if (c.neighbor == peer && c.is_sixp()) {
          Cell mirrored = c;  // flip back to the child's perspective
          mirrored.options = static_cast<std::uint8_t>(
              (c.is_rx() ? kCellTx : kCellRx) | kCellSixp);
          mirrored.neighbor = kNoNode;  // filled in by the requester
          r.cell_list.push_back(mirrored);
        }
      }
      r.num_cells = static_cast<std::uint8_t>(r.cell_list.size());
      r.code = SixpReturnCode::kSuccess;
      return r;
    }
    std::vector<std::uint16_t> remaining = allowed;
    for (int i = 0; i < request.num_cells; ++i) {
      const auto slot = TxSlotAllocator::place_free(
          sf, layout_, allowed_ptr == nullptr ? nullptr : &remaining);
      if (!slot.has_value()) break;
      std::erase(remaining, *slot);
      // First cell: child -> parent (our Rx); second: parent -> child.
      const bool child_tx = i == 0;
      Cell mine;
      mine.slot_offset = *slot;
      mine.channel_offset = f_own_family_;
      mine.options = static_cast<std::uint8_t>((child_tx ? kCellRx : kCellTx) | kCellSixp);
      mine.neighbor = peer;
      sf.add(mine);
      Cell theirs = mine;
      theirs.options = static_cast<std::uint8_t>((child_tx ? kCellTx : kCellRx) | kCellSixp);
      theirs.neighbor = kNoNode;
      r.cell_list.push_back(theirs);
    }
    child.sixp_cells = !r.cell_list.empty();
    r.num_cells = static_cast<std::uint8_t>(r.cell_list.size());
    r.code = r.cell_list.empty() ? SixpReturnCode::kErrNoResource : SixpReturnCode::kSuccess;
    return r;
  }

  // Unicast-Data ADD: register demand, then grant what the rules allow —
  // at most a response CellList's worth per transaction (127-byte frame).
  child.demanded = child.granted_rx + request.num_cells;
  const int grant_cap = std::min<int>(request.num_cells,
                                      static_cast<int>(kMaxSixpCellListCells));
  const auto offsets = TxSlotAllocator::place_rx(sf, layout_, peer, grant_cap, is_root_,
                                                 allowed_ptr, config_.placement_rules);
  for (std::uint16_t offset : offsets) {
    Cell mine;
    mine.slot_offset = offset;
    mine.channel_offset = f_own_family_;
    mine.options = kCellRx;
    mine.neighbor = peer;
    sf.add(mine);
    Cell theirs = mine;
    theirs.options = kCellTx;
    theirs.neighbor = kNoNode;
    r.cell_list.push_back(theirs);
  }
  child.granted_rx += static_cast<int>(offsets.size());
  r.num_cells = static_cast<std::uint8_t>(offsets.size());
  r.code = offsets.empty() ? SixpReturnCode::kErrNoResource : SixpReturnCode::kSuccess;
  return r;
}

SixpPayload GtTschSf::handle_delete(NodeId peer, const SixpPayload& request) {
  SixpPayload r;
  Slotframe& sf = own_slotframe();
  int removed_data = 0;
  bool removed_sixp = false;
  for (const Cell& c : request.cell_list) {
    // Cells arrive in the requester's perspective; ours are mirrored.
    const std::size_t n = sf.remove_if([&](const Cell& mine) {
      if (mine.neighbor != peer || mine.slot_offset != c.slot_offset) return false;
      if (mine.is_sixp() != c.is_sixp()) return false;
      return (c.is_tx() && mine.is_rx()) || (c.is_rx() && mine.is_tx());
    });
    if (n > 0) {
      if (c.is_sixp())
        removed_sixp = true;
      else
        ++removed_data;
      r.cell_list.push_back(c);
    }
  }
  auto it = children_.find(peer);
  if (it != children_.end()) {
    it->second.granted_rx = std::max(0, it->second.granted_rx - removed_data);
    it->second.demanded = it->second.granted_rx;
    // A surrendered 6P pair will be re-negotiated from fresh candidates.
    if (removed_sixp) it->second.sixp_cells = false;
  }
  r.num_cells = static_cast<std::uint8_t>(r.cell_list.size());
  r.code = SixpReturnCode::kSuccess;
  return r;
}

void GtTschSf::handle_clear(NodeId peer) {
  remove_cells_with(peer);
  children_.erase(peer);
}

// ---------------------------------------------------------------------------
// Child-side transaction completion.
// ---------------------------------------------------------------------------

void GtTschSf::sixp_transaction_done(NodeId peer, SixpCommand command, bool timed_out,
                                     const SixpPayload& response) {
  if (timed_out) return;  // the monitor retries stage transitions
  if (peer != rpl_.parent()) return;
  parent_free_rx_cache_ = response.free_rx;

  switch (command) {
    case SixpCommand::kAskChannel: {
      if (response.code != SixpReturnCode::kSuccess) return;
      const ChannelOffset old = f_own_family_;
      f_own_family_ = response.channel_offset;
      level_ = response.level;
      if (old != kNoChannel && old != f_own_family_) {
        // Our family moved channel: drop the old family's negotiated cells;
        // children rejoin via our next EBs.
        Slotframe& sf = own_slotframe();
        sf.remove_if([&](const Cell& c) {
          return !c.is_shared() && c.neighbor != kBroadcastId && c.channel_offset == old;
        });
        children_.clear();
      }
      // Shared cells are rebuilt from scratch: the level parity may have
      // changed even when the channel did not.
      reinstall_shared_cells();
      if (stage_ == Stage::kAskChannel) {
        stage_ = Stage::kAddSixp;
        continue_bootstrap();
      }
      return;
    }
    case SixpCommand::kAdd: {
      if (response.code != SixpReturnCode::kSuccess) return;
      Slotframe& sf = own_slotframe();
      bool installed_sixp = false;
      for (Cell c : response.cell_list) {
        c.neighbor = peer;
        // Our candidate list may have gone stale while the transaction was
        // in flight (we granted the slot to one of our own children).
        // Never double-book the radio: refuse the cell and hand it back.
        if (sf.slot_in_use(c.slot_offset)) {
          conflicted_cells_.push_back(c);
          continue;
        }
        sf.add(c);
        if (c.is_sixp()) installed_sixp = true;
      }
      if (stage_ == Stage::kAddSixp && installed_sixp) {
        stage_ = Stage::kOperational;
        GTTSCH_LOG_INFO("gt-tsch", "node %u operational (level %u, fam ch %u)", mac_.id(),
                        level_, f_own_family_);
      }
      return;
    }
    case SixpCommand::kDelete: {
      Slotframe& sf = own_slotframe();
      for (const Cell& c : response.cell_list) {
        sf.remove_if([&](const Cell& mine) {
          return mine.neighbor == peer && mine.slot_offset == c.slot_offset && mine.is_tx() &&
                 !mine.is_sixp();
        });
      }
      return;
    }
    case SixpCommand::kClear:
      return;
  }
}

void register_gt_tsch_sf(SfRegistry& registry) {
  SfRegistry::Entry entry;
  entry.key = "gt-tsch";
  entry.display_name = "GT-TSCH";
  entry.summary = "game-theoretic 6P scheduling, family channels, load balancer";
  entry.aliases = {"gt"};
  entry.factory = [](const SfContext& ctx) -> std::unique_ptr<SchedulingFunction> {
    return std::make_unique<GtTschSf>(ctx.sim, ctx.mac, ctx.rpl, ctx.sixp, ctx.etx,
                                      ctx.configs.gt, ctx.rng);
  };
  registry.add(std::move(entry));
}

}  // namespace gttsch
