// CSV / console table emission for experiment results.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats/time_series.h"

namespace corelite::stats {

/// Write a wide CSV: first column `t`, one column per named series,
/// resampled on a regular grid [t0, t1] with step dt (step-function
/// semantics, matching StepSeries::value_at).
void write_csv(std::ostream& os, const std::map<std::string, SeriesRef>& series,
               double t0, double t1, double dt);

/// Render the same grid as a fixed-width console table (used by the
/// bench binaries to print the figure data the paper plots).
void write_table(std::ostream& os, const std::map<std::string, SeriesRef>& series,
                 double t0, double t1, double dt, int value_width = 9, int precision = 2);

}  // namespace corelite::stats
