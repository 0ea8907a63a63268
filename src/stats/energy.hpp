// Energy model for the paper's target hardware (Zolertia Firefly, CC2538
// SoC): converts radio on-time into current, charge and battery-lifetime
// estimates. The paper reports radio duty cycle as its energy proxy; this
// model turns the same measurements into milliamp-hours so deployments can
// reason about battery budgets.
#pragma once

#include "phy/radio.hpp"
#include "util/types.hpp"

namespace gttsch {

struct EnergyModel {
  // CC2538 datasheet figures (radio active at 0 dBm) plus deep-sleep draw.
  double tx_current_ma = 24.0;     ///< radio transmitting
  double rx_current_ma = 20.0;     ///< radio listening/receiving
  double sleep_current_ma = 0.0013;  ///< LPM2 with RAM retention

  /// Average current over a window with the given radio activity (mA).
  double average_current_ma(TimeUs tx_time, TimeUs rx_time, TimeUs window) const;

  /// Charge drawn over the window (mAh).
  double charge_mah(TimeUs tx_time, TimeUs rx_time, TimeUs window) const;

  /// Extrapolated lifetime (days) on a battery of `battery_mah`, assuming
  /// the measured window is representative.
  double lifetime_days(double battery_mah, TimeUs tx_time, TimeUs rx_time,
                       TimeUs window) const;
};

/// Snapshot-based per-node meter: bind to a radio, mark the window start,
/// then read consumption since the mark.
class EnergyMeter {
 public:
  EnergyMeter(const Radio& radio, EnergyModel model = {});

  /// Start (or restart) the measurement window now.
  void mark();

  TimeUs tx_time_since_mark() const;
  TimeUs rx_time_since_mark() const;

  double average_current_ma(TimeUs window) const;
  double charge_mah(TimeUs window) const;
  double lifetime_days(double battery_mah, TimeUs window) const;

  const EnergyModel& model() const { return model_; }

 private:
  const Radio& radio_;
  EnergyModel model_;
  TimeUs tx_mark_ = 0;
  TimeUs rx_mark_ = 0;
};

}  // namespace gttsch
