#include "stats/csv_writer.h"

#include <iomanip>

namespace corelite::stats {

void write_csv(std::ostream& os, const std::map<std::string, SeriesRef>& series,
               double t0, double t1, double dt) {
  os << "t";
  for (const auto& [name, ts] : series) os << "," << name;
  os << "\n";
  for (double t = t0; t <= t1 + 1e-9; t += dt) {
    os << t;
    for (const auto& [name, ts] : series) os << "," << ts.value_at(t);
    os << "\n";
  }
}

void write_table(std::ostream& os, const std::map<std::string, SeriesRef>& series,
                 double t0, double t1, double dt, int value_width, int precision) {
  const auto old_flags = os.flags();
  const auto old_prec = os.precision();
  os << std::fixed << std::setprecision(precision);
  os << std::setw(8) << "t";
  for (const auto& [name, ts] : series) os << std::setw(value_width) << name;
  os << "\n";
  for (double t = t0; t <= t1 + 1e-9; t += dt) {
    os << std::setw(8) << t;
    for (const auto& [name, ts] : series) os << std::setw(value_width) << ts.value_at(t);
    os << "\n";
  }
  os.flags(old_flags);
  os.precision(old_prec);
}

}  // namespace corelite::stats
