// A node's radio: half-duplex state machine plus on-time accounting used
// for the paper's radio-duty-cycle metric.
#pragma once

#include <functional>

#include "phy/geometry.hpp"
#include "phy/wire.hpp"
#include "util/types.hpp"

namespace gttsch {

class Medium;
class Simulator;

enum class RadioState : std::uint8_t { kOff, kListening, kTransmitting };

class Radio {
 public:
  Radio(Simulator& sim, Medium& medium, NodeId id, Position pos);
  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId id() const { return id_; }
  const Position& position() const { return pos_; }
  /// Relocate (mobility); notifies the medium so cached link qualities
  /// for this radio are recomputed.
  void set_position(Position pos);

  RadioState state() const { return state_; }
  PhysChannel channel() const { return channel_; }
  TimeUs listening_since() const { return listen_since_; }

  /// Turn the receiver on, tuned to `channel`. Re-tuning while listening
  /// restarts the listen window (an in-flight frame is then missed).
  void listen(PhysChannel channel);

  /// Radio off (sleep).
  void turn_off();

  /// Start transmitting `frame` on `channel`. The radio stays in
  /// kTransmitting until the medium reports completion, then turns off and
  /// invokes on_tx_done. Must not be called while already transmitting.
  void transmit(FramePtr frame, PhysChannel channel);

  /// Invoked by the medium when a frame is decodable at this radio.
  std::function<void(FramePtr)> on_rx;
  /// Invoked when our own transmission completes.
  std::function<void()> on_tx_done;

  // --- duty-cycle accounting -------------------------------------------
  /// Cumulative radio-on time (listening + transmitting) up to now.
  TimeUs on_time() const;
  TimeUs tx_time() const;
  TimeUs rx_time() const;

  // Internal: medium calls these.
  void medium_tx_finished();
  void medium_deliver(FramePtr frame);

 private:
  void accumulate() const;

  Simulator& sim_;
  Medium& medium_;
  NodeId id_;
  Position pos_;

  RadioState state_ = RadioState::kOff;
  PhysChannel channel_ = 0;
  TimeUs listen_since_ = 0;

  mutable TimeUs last_change_ = 0;
  mutable TimeUs listening_total_ = 0;
  mutable TimeUs transmitting_total_ = 0;
};

}  // namespace gttsch
