// The benchmark's metric catalogue and its one-line JSON result.
//
// Untraced runs report every end-to-end metric; traced runs report every
// per-layer metric. BENCHMARK.json lists the same names and units, in the
// same order; every run checks that it does (manifest_mismatches).

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "probes.h"
#include "support/json.h"

namespace fedbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// Differences between the catalogue and the "end_to_end" and "per_layer"
// lists of a parsed BENCHMARK.json, one line each; empty when they agree.
std::vector<std::string> manifest_mismatches(const fed::JsonValue& manifest);

// The median of `values` (the mean of the middle two for an even count).
double median(std::vector<double> values);

// Names use only [A-Za-z0-9_.-], start with a letter or digit, and are
// at most 64 characters long.
bool valid_metric_name(std::string_view name);

// Names of `specs` that `values` lacks or holds a non-finite value for.
std::vector<std::string> missing_metrics(const Metrics& values,
                                         const std::vector<MetricSpec>& specs);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
// {"value": v, "unit": u}, ...}} over the finite `values` of `specs`, in
// catalogue order, with every digit of each value.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& values,
                        const std::vector<MetricSpec>& specs);

}  // namespace fedbench
