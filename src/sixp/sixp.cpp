#include "sixp/sixp.hpp"

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gttsch {

SixpAgent::SixpAgent(Simulator& sim, TschMac& mac, TimeUs response_timeout)
    : sim_(sim), mac_(mac), response_timeout_(response_timeout) {}

bool SixpAgent::request(NodeId peer, SixpPayload payload) {
  GTTSCH_CHECK(peer != kBroadcastId && peer != kNoNode);
  if (outstanding_.count(peer) > 0) {
    ++counters_.busy_rejections;
    return false;
  }
  payload.type = SixpMsgType::kRequest;
  payload.seqnum = next_seqnum_[peer]++;

  if (!mac_.enqueue(make_sixp_frame(mac_.id(), peer, payload))) return false;

  Transaction& tx =
      outstanding_.try_emplace(peer, sim_, payload.command, payload.seqnum).first->second;
  tx.timer.start(response_timeout_, [this, peer] { on_timeout(peer); });
  ++counters_.requests_sent;
  return true;
}

void SixpAgent::on_frame(const Frame& frame) {
  GTTSCH_CHECK(frame.type == FrameType::kSixp);
  const SixpPayload& p = frame.as<SixpPayload>();
  const NodeId peer = frame.src;

  if (p.type == SixpMsgType::kRequest) {
    if (callbacks_ == nullptr) return;
    SixpPayload response = callbacks_->sixp_handle_request(peer, p);
    response.type = SixpMsgType::kResponse;
    response.command = p.command;
    response.seqnum = p.seqnum;
    mac_.enqueue(make_sixp_frame(mac_.id(), peer, response));
    ++counters_.responses_sent;
    return;
  }

  // Response path.
  const auto it = outstanding_.find(peer);
  if (it == outstanding_.end() || it->second.seqnum != p.seqnum ||
      it->second.command != p.command) {
    ++counters_.stale_responses;
    return;
  }
  const SixpCommand command = it->second.command;
  outstanding_.erase(it);
  ++counters_.responses_received;
  if (observer_) observer_(peer, command, false, p.code == SixpReturnCode::kSuccess);
  if (callbacks_ != nullptr) callbacks_->sixp_transaction_done(peer, command, false, p);
}

void SixpAgent::on_timeout(NodeId peer) {
  const auto it = outstanding_.find(peer);
  if (it == outstanding_.end()) return;
  const SixpCommand command = it->second.command;
  outstanding_.erase(it);
  ++counters_.timeouts;
  GTTSCH_LOG_DEBUG("6p", "node %u: transaction to %u timed out", mac_.id(), peer);
  if (observer_) observer_(peer, command, true, false);
  if (callbacks_ != nullptr)
    callbacks_->sixp_transaction_done(peer, command, true, SixpPayload{});
}

void SixpAgent::abort_peer(NodeId peer) { outstanding_.erase(peer); }

}  // namespace gttsch
