// Field-by-field views of comparison rows: the canonical text the
// output checks compare, its digest, and the paper's geomean speedup.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"

namespace perfbench {

/// Every deterministic field of the row, one per line, written by this
/// file (not by the journal serializer it is checked against). With
/// `timing` the timing-only fields (wall_ns, transform_cached,
/// exact.solve_ns) are included too.
[[nodiscard]] std::string canonical_row(const slc::driver::ComparisonRow& r,
                                        bool timing = false);

/// fnv1a-64 over the canonical text of every row, in order, as hex.
[[nodiscard]] std::string rows_digest(
    const std::vector<slc::driver::ComparisonRow>& rows);

/// Geometric mean of base/SLMS simulated cycles over rows where SLMS
/// applied and the row is ok and not degraded (1.0 when there are none).
[[nodiscard]] double geomean_speedup(
    const std::vector<slc::driver::ComparisonRow>& rows);

/// A row counts as failed when it is not ok or it degraded.
[[nodiscard]] inline bool row_failed(const slc::driver::ComparisonRow& r) {
  return !r.ok || r.degraded;
}

/// The first line where the canonical texts of two rows differ, or "".
[[nodiscard]] std::string first_difference(const std::string& a,
                                           const std::string& b);

}  // namespace perfbench
