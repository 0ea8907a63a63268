// TSCH channel hopping: physical channel = seq[(ASN + channel offset) % |seq|].
#pragma once

#include <vector>

#include "util/types.hpp"

namespace gttsch {

class HoppingSequence {
 public:
  /// Default: the paper's Table II sequence {17,23,15,25,19,11,13,21}.
  HoppingSequence();

  PhysChannel channel_for(Asn asn, ChannelOffset offset) const;

  std::size_t size() const { return seq_.size(); }
  const std::vector<PhysChannel>& sequence() const { return seq_; }

  /// Number of usable channel offsets (== sequence length: offsets beyond
  /// that alias lower ones).
  std::size_t num_offsets() const { return seq_.size(); }

 private:
  std::vector<PhysChannel> seq_;
};

}  // namespace gttsch
