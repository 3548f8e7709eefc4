// Source visibility handling (§IV-d).
//
// A source observed in some configurations may be missing from others
// (route changes, poisoning, measurement loss). The paper (1) restricts the
// analysis to sources observed in the first all-locations announcement, and
// (2) fills each missing (source, configuration) cell with the catchment of
// s_max — the source that most frequently shared a catchment with s across
// the configurations where s was observed.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/catchment.hpp"
#include "measure/catchment_store.hpp"
#include "measure/inference.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::measure {

/// The paper's baseline source set: ASes observed under the first
/// (all-locations, no prepending, no poisoning) configuration.
std::vector<topology::AsId> baseline_sources(const InferenceResult& first);

/// Fills missing cells of `matrix` (row per configuration, column per
/// source) in place from s_max co-catchment frequency. Two imputation
/// passes run so that a cell can be filled from a value the first pass
/// produced; cells that remain missing (e.g. s_max unobserved in the same
/// configurations) stay kNoCatchment8. The deploy's commit stage writes
/// each observed cell as its configuration commits and imputes once after
/// the last.
void impute_missing(CatchmentStore& matrix);

}  // namespace spooftrack::measure
