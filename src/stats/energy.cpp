#include "stats/energy.hpp"

#include "util/check.hpp"

namespace gttsch {

double EnergyModel::average_current_ma(TimeUs tx_time, TimeUs rx_time, TimeUs window) const {
  GTTSCH_CHECK(window > 0);
  GTTSCH_CHECK(tx_time >= 0 && rx_time >= 0 && tx_time + rx_time <= window);
  const double tx_frac = static_cast<double>(tx_time) / static_cast<double>(window);
  const double rx_frac = static_cast<double>(rx_time) / static_cast<double>(window);
  const double sleep_frac = 1.0 - tx_frac - rx_frac;
  return tx_current_ma * tx_frac + rx_current_ma * rx_frac + sleep_current_ma * sleep_frac;
}

double EnergyModel::charge_mah(TimeUs tx_time, TimeUs rx_time, TimeUs window) const {
  const double hours = us_to_s(window) / 3600.0;
  return average_current_ma(tx_time, rx_time, window) * hours;
}

double EnergyModel::lifetime_days(double battery_mah, TimeUs tx_time, TimeUs rx_time,
                                  TimeUs window) const {
  const double current = average_current_ma(tx_time, rx_time, window);
  if (current <= 0.0) return 0.0;
  return battery_mah / current / 24.0;
}

EnergyMeter::EnergyMeter(const Radio& radio, EnergyModel model)
    : radio_(radio), model_(model) {
  mark();
}

void EnergyMeter::mark() {
  tx_mark_ = radio_.tx_time();
  rx_mark_ = radio_.rx_time();
}

TimeUs EnergyMeter::tx_time_since_mark() const { return radio_.tx_time() - tx_mark_; }
TimeUs EnergyMeter::rx_time_since_mark() const { return radio_.rx_time() - rx_mark_; }

double EnergyMeter::average_current_ma(TimeUs window) const {
  return model_.average_current_ma(tx_time_since_mark(), rx_time_since_mark(), window);
}

double EnergyMeter::charge_mah(TimeUs window) const {
  return model_.charge_mah(tx_time_since_mark(), rx_time_since_mark(), window);
}

double EnergyMeter::lifetime_days(double battery_mah, TimeUs window) const {
  return model_.lifetime_days(battery_mah, tx_time_since_mark(), rx_time_since_mark(),
                              window);
}

}  // namespace gttsch
