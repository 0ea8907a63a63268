#include "phy/radio.hpp"

#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace gttsch {

Radio::Radio(Simulator& sim, Medium& medium, NodeId id, Position pos)
    : sim_(sim), medium_(medium), id_(id), pos_(pos), last_change_(sim.now()) {
  medium_.attach(this);
}

Radio::~Radio() { medium_.detach(id_); }

void Radio::set_position(Position pos) {
  pos_ = pos;
  medium_.position_changed(id_);
}

void Radio::accumulate() const {
  const TimeUs now = sim_.now();
  const TimeUs span = now - last_change_;
  if (span > 0) {
    if (state_ == RadioState::kListening) listening_total_ += span;
    if (state_ == RadioState::kTransmitting) transmitting_total_ += span;
  }
  last_change_ = now;
}

void Radio::listen(PhysChannel channel) {
  GTTSCH_CHECK(state_ != RadioState::kTransmitting);
  accumulate();
  state_ = RadioState::kListening;
  channel_ = channel;
  listen_since_ = sim_.now();
}

void Radio::turn_off() {
  if (state_ == RadioState::kTransmitting) return;  // tx completes regardless
  accumulate();
  state_ = RadioState::kOff;
}

void Radio::transmit(FramePtr frame, PhysChannel channel) {
  GTTSCH_CHECK(state_ != RadioState::kTransmitting);
  GTTSCH_CHECK(frame != nullptr);
  accumulate();
  state_ = RadioState::kTransmitting;
  channel_ = channel;
  medium_.start_transmission(*this, std::move(frame), channel);
}

void Radio::medium_tx_finished() {
  GTTSCH_CHECK(state_ == RadioState::kTransmitting);
  accumulate();
  state_ = RadioState::kOff;
  if (on_tx_done) on_tx_done();
}

void Radio::medium_deliver(FramePtr frame) {
  if (on_rx) on_rx(std::move(frame));
}

TimeUs Radio::on_time() const {
  accumulate();
  return listening_total_ + transmitting_total_;
}

TimeUs Radio::tx_time() const {
  accumulate();
  return transmitting_total_;
}

TimeUs Radio::rx_time() const {
  accumulate();
  return listening_total_;
}

}  // namespace gttsch
