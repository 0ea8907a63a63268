#include "core/tx_alloc.hpp"

#include <algorithm>
#include <limits>

namespace gttsch {

namespace {

bool is_data_cell(const Cell& c) {
  return !c.is_sixp() && !c.is_shared() && c.neighbor != kBroadcastId &&
         (c.is_tx() || c.is_rx());
}

/// Cyclic distance from a to b walking forward (a -> b) in a ring of `m`.
std::uint16_t forward_dist(std::uint16_t a, std::uint16_t b, std::uint16_t m) {
  return static_cast<std::uint16_t>((b + m - a) % m);
}

/// True if any element of `tx` lies strictly between a and b cyclically.
bool tx_between(const std::vector<std::uint16_t>& tx, std::uint16_t a, std::uint16_t b,
                std::uint16_t m) {
  const std::uint16_t span = forward_dist(a, b, m);
  if (span <= 1) return false;
  for (std::uint16_t t : tx) {
    const std::uint16_t d = forward_dist(a, t, m);
    if (d > 0 && d < span) return true;
  }
  return false;
}

/// Min cyclic distance from `cand` to any element of the *sorted* list `v`
/// (m when empty). The cyclically nearest element is the sorted
/// predecessor or successor, so two lookups replace a full scan — place_rx
/// runs this once per candidate per pick, which at long slotframes (the
/// fig10 sweep, l^rx dry runs) used to make placement cubic in the free
/// slot count.
std::uint16_t nearest_cyclic(const std::vector<std::uint16_t>& v, std::uint16_t cand,
                             std::uint16_t m) {
  if (v.empty()) return m;
  const auto it = std::lower_bound(v.begin(), v.end(), cand);
  const std::uint16_t next = it == v.end() ? v.front() : *it;
  const std::uint16_t prev = it == v.begin() ? v.back() : *(it - 1);
  const std::uint16_t d_next =
      std::min(forward_dist(cand, next, m), forward_dist(next, cand, m));
  const std::uint16_t d_prev =
      std::min(forward_dist(cand, prev, m), forward_dist(prev, cand, m));
  return std::min(d_prev, d_next);
}

}  // namespace

TxSlotAllocator::DataCellCounts TxSlotAllocator::count_data_cells(const Slotframe& sf) {
  DataCellCounts n;
  for (std::uint16_t s = 0; s < sf.length(); ++s) {
    for (const Cell& c : sf.cells_at(s)) {
      if (!is_data_cell(c)) continue;
      if (c.is_tx()) ++n.tx;
      if (c.is_rx()) ++n.rx;
    }
  }
  return n;
}

TxSlotAllocator::DataCells TxSlotAllocator::extract_data_cells(const Slotframe& sf) {
  DataCells out;
  for (const Cell& c : sf.all_cells()) {
    if (!is_data_cell(c)) continue;
    if (c.is_tx()) out.tx.push_back(c.slot_offset);
    if (c.is_rx()) {
      out.rx.push_back(c.slot_offset);
      out.rx_owner.push_back(c.neighbor);
    }
  }
  std::sort(out.tx.begin(), out.tx.end());
  // rx and rx_owner sorted together.
  std::vector<std::size_t> idx(out.rx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return out.rx[a] < out.rx[b]; });
  DataCells sorted;
  sorted.tx = out.tx;
  for (std::size_t i : idx) {
    sorted.rx.push_back(out.rx[i]);
    sorted.rx_owner.push_back(out.rx_owner[i]);
  }
  return sorted;
}

bool TxSlotAllocator::placement_valid(const std::vector<std::uint16_t>& tx,
                                      const std::vector<std::uint16_t>& rx,
                                      std::uint16_t cand, std::uint16_t length) {
  if (rx.empty()) return !tx.empty();
  // Cyclic neighbors of cand among the (sorted) existing rx offsets.
  const auto it = std::lower_bound(rx.begin(), rx.end(), cand);
  const std::uint16_t next = it == rx.end() ? rx.front() : *it;
  const std::uint16_t prev = it == rx.begin() ? rx.back() : *(it - 1);
  return tx_between(tx, prev, cand, length) && tx_between(tx, cand, next, length);
}

int TxSlotAllocator::grantable_rx(const Slotframe& sf, const SlotframeLayout& layout,
                                  bool is_root, const PlacementRules& rules) {
  if (is_root || (!rules.tx_margin && !rules.interleave)) {
    // No rule constrains the root (it is the sink): every free negotiable
    // offset is grantable, so skip the greedy dry run entirely.
    int free = 0;
    for (std::uint16_t s : layout.negotiable_offsets())
      if (!sf.slot_in_use(s)) ++free;
    return free;
  }
  // Dry-run placement for a hypothetical child; the count is identical for
  // every requester since the rules constrain offsets, not identities.
  const auto placed = place_rx(sf, layout, kNoNode, std::numeric_limits<int>::max() / 2,
                               is_root, nullptr, rules);
  return static_cast<int>(placed.size());
}

std::vector<std::uint16_t> TxSlotAllocator::place_rx(
    const Slotframe& sf, const SlotframeLayout& layout, NodeId child, int count,
    bool is_root, const std::vector<std::uint16_t>* allowed,
    const PlacementRules& rules) {
  std::vector<std::uint16_t> chosen;
  if (count <= 0) return chosen;

  DataCells cells = extract_data_cells(sf);
  // Free negotiable offsets (optionally intersected with the requester's
  // candidate list so the slot is free on both sides).
  std::vector<std::uint16_t> free;
  for (std::uint16_t s : layout.negotiable_offsets()) {
    if (sf.slot_in_use(s)) continue;
    if (allowed != nullptr &&
        std::find(allowed->begin(), allowed->end(), s) == allowed->end())
      continue;
    free.push_back(s);
  }

  const std::uint16_t m = sf.length();

  // Rule (a) budget: after granting g cells, #Tx > #Rx must still hold.
  int budget = count;
  if (!is_root && rules.tx_margin) {
    const int margin = static_cast<int>(cells.tx.size()) -
                       static_cast<int>(cells.rx.size()) - 1;
    budget = std::min(budget, std::max(0, margin));
  }

  // Sorted offsets of `child`'s existing Rx cells (fairness rule c below);
  // cells.rx is sorted, so the filtered view is too.
  std::vector<std::uint16_t> own;
  for (std::size_t i = 0; i < cells.rx.size(); ++i)
    if (cells.rx_owner[i] == child) own.push_back(cells.rx[i]);

  while (static_cast<int>(chosen.size()) < budget && !free.empty()) {
    std::uint16_t best = 0;
    long best_score = std::numeric_limits<long>::min();
    bool found = false;
    for (std::uint16_t cand : free) {
      if (!is_root && rules.interleave && !placement_valid(cells.tx, cells.rx, cand, m))
        continue;
      // Fairness scoring (rule c): prefer offsets whose cyclically nearest
      // Rx cells belong to other children, and spread a child's own cells.
      long score = 4L * nearest_cyclic(own, cand, m) + nearest_cyclic(cells.rx, cand, m);
      score -= cand / 4;  // mild bias toward early offsets (lower latency)
      if (score > best_score) {
        best_score = score;
        best = cand;
        found = true;
      }
    }
    if (!found) break;
    chosen.push_back(best);
    // Keep rx sorted together with owners for the validity checks.
    const auto pos = std::lower_bound(cells.rx.begin(), cells.rx.end(), best);
    cells.rx_owner.insert(cells.rx_owner.begin() + (pos - cells.rx.begin()), child);
    cells.rx.insert(pos, best);
    own.insert(std::lower_bound(own.begin(), own.end(), best), best);
    free.erase(std::find(free.begin(), free.end(), best));
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::optional<std::uint16_t> TxSlotAllocator::place_free(
    const Slotframe& sf, const SlotframeLayout& layout,
    const std::vector<std::uint16_t>* allowed) {
  for (std::uint16_t s : layout.negotiable_offsets()) {
    if (sf.slot_in_use(s)) continue;
    if (allowed != nullptr &&
        std::find(allowed->begin(), allowed->end(), s) == allowed->end())
      continue;
    return s;
  }
  return std::nullopt;
}

bool TxSlotAllocator::tx_exceeds_rx(const Slotframe& sf) {
  const DataCellCounts n = count_data_cells(sf);
  return n.rx == 0 || n.tx > n.rx;
}

bool TxSlotAllocator::rx_interleaved(const Slotframe& sf) {
  const DataCells cells = extract_data_cells(sf);
  return lists_interleaved(cells.tx, cells.rx, sf.length());
}

bool TxSlotAllocator::lists_interleaved(const std::vector<std::uint16_t>& tx,
                                        const std::vector<std::uint16_t>& rx,
                                        std::uint16_t length) {
  if (rx.size() < 2) return true;
  std::vector<std::uint16_t> sorted_rx = rx;
  std::sort(sorted_rx.begin(), sorted_rx.end());
  for (std::size_t i = 0; i < sorted_rx.size(); ++i) {
    const std::uint16_t a = sorted_rx[i];
    const std::uint16_t b = sorted_rx[(i + 1) % sorted_rx.size()];
    if (!tx_between(tx, a, b, length)) return false;
  }
  return true;
}

}  // namespace gttsch
