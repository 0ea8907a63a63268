#include "mac/hopping.hpp"

namespace gttsch {

HoppingSequence::HoppingSequence() : seq_{17, 23, 15, 25, 19, 11, 13, 21} {}

PhysChannel HoppingSequence::channel_for(Asn asn, ChannelOffset offset) const {
  return seq_[static_cast<std::size_t>((asn + offset) % seq_.size())];
}

}  // namespace gttsch
